"""Command-line front end.

Subcommands: train-ann, convert, train-snn, eval, pipeline-sim,
energy-report, verify. Configs are JSON with a required config_version;
each section is read against one table of its fields (read_section), so an
unknown field or a malformed value is rejected with its path. Dataset paths
may be relative to $SPIKELSTM_DATA_ROOT. Exit codes: 0 success, 1 runtime
failure, 2 config/validation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, checkpoint
from .activations import HardActConfig
from .convert import convert as convert_model
from .data import ROW_PADS, load_feature_tensor, load_tmnist, split_dataset, synthetic_task
from .energy import audit_multiplier_free, count_ops_ann, count_ops_snn, estimate_energy
from .errors import ConfigError, SpikeLstmError, ValidationError
from .lstm import AnnLSTM
from .pipeline import build_schedule, latency_report, tick_trace
from .snn import ConversionPlan, snn_batch_forward, snn_forward
from .train import TrainConfig, TrainMask, evaluate, fit
from .verify import per_step_reference, run_all

DATA_ROOT_ENV = "SPIKELSTM_DATA_ROOT"
CONFIG_VERSION = 1

# Each config section is one table: field -> (kind, least, default). `least`
# bounds a number, or each item of a list, from below. A field missing or
# null takes its default; a default of None leaves the field out, so the
# library call it feeds keeps its own default, and REQUIRED fields must be
# given.
REQUIRED = object()
TOP = {"config_version": (int, None, REQUIRED), "dataset": (dict, None, REQUIRED)}
TRAIN_TOP = {**TOP, "seed": (int, 0, 0), "model": (dict, None, {}), "train": (dict, None, {}),
             "out_dir": (str, None, REQUIRED)}
TRAIN_SNN_TOP = {**TRAIN_TOP, "snn": (dict, None, REQUIRED)}
DATASET = {"kind": (str, None, REQUIRED), "size": (int, 1, 600), "seed": (int, 0, 1),
           "n_classes": (int, 1, None), "n_elements": (int, 1, None),
           "n_features": (int, 1, None), "noise": (float, 0, 0.5), "dir": (str, None, None),
           "path": (str, None, None), "pad_to": (int, None, None),
           "limit_train": (int, 1, None), "val_fraction": (float, None, None),
           "test_fraction": (float, None, 0.15), "split_seed": (int, 0, 0)}
MODEL = {"hidden": (list, 1, (8,)), "head": (list, 1, ()), "v_sig": (float, None, None),
         "v_tanh_pos": (float, None, None), "v_tanh_neg": (float, None, None),
         "init_scale": (float, 0, 0.3), "init_seed": (int, 0, 0),
         "forget_bias": (float, None, None)}
TRAIN = {"epochs": (int, 1, None), "batch_size": (int, 1, None), "lr": (float, None, None),
         "grad_clip": (float, None, None), "precision": (str, None, None),
         "lr_decay_epochs": (list, 0, None), "lr_decay_factor": (float, None, None)}
SNN = {"init_checkpoint": (str, None, None), "time_steps": (int, None, 2),
       "encoding": (str, None, None), "analog_gate": (str, None, None),
       "shift": (bool, None, None), "surrogate_gamma": (float, None, None),
       **{f"train_{key}": (bool, None, None)
          for key in ("threshold", "leak", "init", "bias")}}
KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
              str: "a string", list: "a list of integers", dict: "an object"}


def _of_kind(value, kind) -> bool:
    if isinstance(value, bool) or kind is bool:  # a JSON boolean is no number
        return isinstance(value, bool) and kind is bool
    if kind is float:  # NaN fails the comparison; an int too large for a float fails it too
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is list:
        return isinstance(value, list) and all(_of_kind(item, int) for item in value)
    return isinstance(value, kind)


def read_section(section, table: dict, path: str) -> dict:
    """The fields of one config section, checked against its table: each
    given field, else its default unless that is None; a list as a tuple.
    Every ConfigError names path.field."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in section:
        if key not in table:
            raise ConfigError(f"{path}.{key}: unknown field")
    fields = {}
    for key, (kind, least, default) in table.items():
        value = section.get(key)
        if value is None:
            if default is REQUIRED:
                raise ConfigError(f"{path}.{key}: required")
            if default is not None:
                fields[key] = default
            continue
        if not _of_kind(value, kind) or least is not None and any(
                item < least for item in (value if kind is list else [value])):
            bound = "" if least is None else f" >= {least}"
            raise ConfigError(f"{path}.{key}: expected {KIND_NAMES[kind]}{bound}, got {value!r}")
        fields[key] = tuple(value) if kind is list else value
    return fields


def _given(fields: dict, *keys) -> dict:
    """The named fields a section holds, as keyword arguments to a library
    call that keeps its own defaults for the others."""
    return {key: fields[key] for key in keys if key in fields}


def _resolve(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(DATA_ROOT_ENV, "."), path)


def load_config(path: str, table: dict) -> dict:
    """The top level of a JSON config file, read against `table`."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})")
    cfg = read_section(cfg, table, "config")
    if cfg["config_version"] != CONFIG_VERSION:
        raise ConfigError(f"config.config_version: expected {CONFIG_VERSION}, "
                          f"got {cfg['config_version']}")
    return cfg


# ---------------------------------------------------------------------------
# dataset / model builders

def build_dataset(cfg: dict, path: str = "dataset"):
    """Returns (train, val, test) SequenceDatasets."""
    ds = read_section(cfg, DATASET, path)
    kind, split_seed = ds["kind"], ds["split_seed"]
    if "pad_to" in ds and ds["pad_to"] not in ROW_PADS:  # a value's own check comes first
        raise ConfigError(f"{path}.pad_to: expected one of {ROW_PADS}, got {ds['pad_to']}")
    synthetic = ("size", "seed", "n_classes", "n_elements", "n_features", "noise", "test_fraction")
    reads = {"synthetic-planted": synthetic, "synthetic-recall": synthetic,
             "mnist-idx": ("dir", "pad_to", "limit_train"), "seqf": ("path", "test_fraction")}
    if kind not in reads:
        raise ConfigError(f"{path}.kind: unknown dataset kind {kind!r}")
    unread = [key for key, value in cfg.items() if value is not None  # given, not defaults
              and key not in reads[kind] + ("kind", "val_fraction", "split_seed")]
    if unread:
        raise ConfigError(f"{path}.{unread[0]}: does not apply to dataset kind {kind!r}")
    fractions = _given(ds, "val_fraction", "test_fraction")
    if kind in ("synthetic-planted", "synthetic-recall"):
        full = synthetic_task(
            "planted-pattern" if kind == "synthetic-planted" else "delayed-recall",
            **_given(ds, *synthetic[:-1]))  # test_fraction is the split's
        return split_dataset(full, **fractions, seed=split_seed)
    if kind == "mnist-idx":
        if "dir" not in ds:
            raise ConfigError(f"{path}.dir: required for mnist-idx")
        pad = _given(ds, "pad_to")
        full = load_tmnist(_resolve(ds["dir"]), "train", **pad)
        if "limit_train" in ds:
            order = np.random.default_rng(split_seed).permutation(len(full))[:ds["limit_train"]]
            full = full.subset(order)
        # the official test split stands apart, so no test_fraction
        train, val, _ = split_dataset(full, **_given(ds, "val_fraction"), seed=split_seed)
        return train, val, load_tmnist(_resolve(ds["dir"]), "test", **pad)
    if "path" not in ds:  # seqf
        raise ConfigError(f"{path}.path: required for seqf")
    return split_dataset(load_feature_tensor(_resolve(ds["path"])), **fractions, seed=split_seed)


def build_ann(cfg: dict, input_dim: int, n_classes: int, path: str = "model") -> AnnLSTM:
    """A random ANN from the model section: at least one hidden layer."""
    m = read_section(cfg, MODEL, path)
    if not m["hidden"]:
        raise ConfigError(f"{path}.hidden: expected at least one layer")
    act = HardActConfig(**_given(m, "v_sig", "v_tanh_pos", "v_tanh_neg"))
    return AnnLSTM.random(input_dim, m["hidden"], [*m["head"], n_classes],
                          np.random.default_rng(m["init_seed"]), act=act,
                          scale=m["init_scale"], **_given(m, "forget_bias"))


def build_train_config(cfg: dict, seed: int, mask: TrainMask, path: str = "train") -> TrainConfig:
    return TrainConfig(**read_section(cfg, TRAIN, path), seed=seed, mask=mask)


# ---------------------------------------------------------------------------
# commands

def cmd_train_ann(args) -> int:
    cfg = load_config(args.config, TRAIN_TOP)
    train, val, _ = build_dataset(cfg["dataset"])
    model = build_ann(cfg["model"], train.sequences.shape[2], train.n_classes)
    tc = build_train_config(cfg["train"], cfg["seed"], TrainMask())
    return _fit(args.command, model, train, val, tc, cfg["out_dir"])


def _fit(command: str, model, train, val, tc: TrainConfig, out_dir: str) -> int:
    if len(val) == 0:
        raise ConfigError("dataset.val_fraction: the validation split is empty")
    model, history = fit(model, (train.sequences, train.labels),
                         (val.sequences, val.labels), tc, out_dir=out_dir)
    best = max(h["accuracy"] for h in history if h["split"] == "val")
    print(f"{command} done: best val accuracy {best:.4f}; artifacts in {out_dir}")
    return 0


def cmd_convert(args) -> int:
    ann = checkpoint.load_model(args.ann_ckpt)
    if not isinstance(ann, AnnLSTM):
        raise ValidationError(f"{args.ann_ckpt} holds a spiking model, expected an ANN")
    snn = convert_model(ann, T=args.time_steps, plan=ConversionPlan(args.analog_gate),
                        shift=(args.shift == "on"), surrogate_gamma=args.gamma,
                        encoding=args.encoding)
    checkpoint.save_model(snn, args.out)
    manifest = {
        "command": "convert", "ann_ckpt": args.ann_ckpt, "time_steps": args.time_steps,
        "shift": args.shift, "analog_gate": args.analog_gate, "encoding": args.encoding,
        "surrogate_gamma": args.gamma, "package_version": __version__,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"converted {args.ann_ckpt} -> {args.out} (T={args.time_steps}, "
          f"shift {args.shift}, analog gate {args.analog_gate})")
    return 0


def cmd_train_snn(args) -> int:
    cfg = load_config(args.config, TRAIN_SNN_TOP)
    snn = read_section(cfg["snn"], SNN, "snn")
    # TrainMask holds the defaults; a --train-* flag overrides its config switch
    switches = {"threshold": ("train_threshold", args.train_threshold),
                "leak": ("train_leak", args.train_leak), "mem_init": ("train_init", args.train_init),
                "step_bias": ("train_bias", None)}
    mask = TrainMask(**{name: flag == "on" if flag else snn[key]
                        for name, (key, flag) in switches.items() if flag or key in snn})
    train, val, _ = build_dataset(cfg["dataset"])
    init_ckpt = snn.get("init_checkpoint")
    given = [key for key, value in cfg["model"].items() if value is not None]
    if init_ckpt and given:  # the checkpoint is the model, so a model field would be ignored
        raise ConfigError(f"model.{given[0]}: does not apply with snn.init_checkpoint")
    # no pre-trained model: the conversion of a random ANN (no-pretraining start)
    model = (checkpoint.load_model(_resolve(init_ckpt)) if init_ckpt else
             build_ann(cfg["model"], train.sequences.shape[2], train.n_classes))
    if isinstance(model, AnnLSTM):
        model = convert_model(model, T=snn["time_steps"],
                              plan=ConversionPlan(**_given(snn, "analog_gate")),
                              **_given(snn, "shift", "surrogate_gamma", "encoding"))
    else:  # the checkpoint's own plan, shift and gamma, and its T and encoding unless given
        given = [key for key, value in cfg["snn"].items() if value is not None]
        for key in ("analog_gate", "shift", "surrogate_gamma"):
            if key in given:
                raise ConfigError(f"snn.{key}: applies only when converting an ANN, "
                                  f"and {init_ckpt} holds a spiking model")
        # rebuilt, so a new T or encoding is validated
        model = dataclasses.replace(model, **{key: snn[key] for key in ("time_steps", "encoding")
                                              if key in given})
    tc = build_train_config(cfg["train"], cfg["seed"], mask)
    return _fit(args.command, model, train, val, tc, cfg["out_dir"])


def cmd_eval(args) -> int:
    model = checkpoint.load_model(args.ckpt)
    cfg = load_config(args.dataset_config, TOP)
    train, val, test = build_dataset(cfg["dataset"])
    split = {"train": train, "val": val, "test": test}[args.split]
    if len(split) == 0:
        raise ConfigError(f"--split {args.split}: the split is empty")
    loss, accuracy, rate = evaluate(model, split.sequences, split.labels, seed=args.seed)
    out = {"command": "eval", "ckpt": args.ckpt, "split": args.split,
           "samples": len(split), "loss": loss, "accuracy": accuracy,
           "mean_hidden_spike_rate": None if np.isnan(rate) else rate}
    print(json.dumps(out, indent=2))
    return 0


def cmd_pipeline_sim(args) -> int:
    if args.n < 1 or args.t < 1:
        raise ValidationError(f"pipeline-sim needs --n >= 1 and --t >= 1 "
                              f"(--n {args.n}, --t {args.t})")
    if args.ckpt:
        model = checkpoint.load_model(args.ckpt)
        if isinstance(model, AnnLSTM):
            raise ValidationError("pipeline-sim needs a spiking checkpoint")
    else:  # a demo model: the conversion of a random ANN, 3 features -> 4 units -> 3 classes
        model = convert_model(AnnLSTM.random(3, [4], [3], np.random.default_rng(args.seed),
                                             scale=1.0), T=args.t)
    rng = np.random.default_rng(args.seed)
    sequence = rng.random((args.n, model.input_dim))
    logits, stats, op_counts = snn_forward(model, sequence, T=args.t, rng_seed=args.seed)
    trace = tick_trace(model, stats)
    logits_ref, _, _ = per_step_reference(model, sequence, T=args.t, rng_seed=args.seed)
    schedule = build_schedule(args.n, args.t)
    reports = {mode: latency_report(schedule, op_counts, args.blocks, mode)
               for mode in ("proposed", "nonspiking", "priorwork")}
    out = {
        "command": "pipeline-sim", "n_elements": args.n, "time_steps": args.t,
        "equivalent_to_sequential": bool(np.array_equal(logits_ref, logits)),
        "max_concurrent_blocks": max(r["active"] for r in trace),
        "latency": reports,
    }
    if args.trace_out:
        with open(args.trace_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tick", "active_blocks", "accumulates", "macs",
                             "comparisons", "spikes"])
            for row in trace:
                writer.writerow([row["tick"], row["active"], row["accumulates"],
                                 row["macs"], row["comparisons"], row["spikes"]])
    print(json.dumps(out, indent=2))
    return 0


def cmd_energy_report(args) -> int:
    model = checkpoint.load_model(args.ckpt)
    cfg = load_config(args.dataset_config, TOP)
    _, _, test = build_dataset(cfg["dataset"])
    limit = min(args.limit, len(test))
    if limit < 1:
        raise ValidationError(f"energy-report needs --limit >= 1 and a non-empty test split "
                              f"(--limit {args.limit}, {len(test)} test samples)")
    if isinstance(model, AnnLSTM):
        raise ValidationError("energy-report needs a spiking checkpoint (compare via "
                              "the report's nonspiking baseline)")
    _, _, aux = snn_batch_forward(model, test.sequences[:limit], model.time_steps,
                                  model.encoding, args.seed)
    ops = count_ops_snn(aux["stats"], model)
    audit_multiplier_free(ops)
    energy = estimate_energy(ops)
    rates = [{g: v.tolist() for g, v in layer.items()} for layer in aux["stats"].gate_rates()]
    sparsity_rows = [{"sample": b, "layer": li, **{g: v[b] for g, v in layer.items()}}
                     for b in range(limit) for li, layer in enumerate(rates)]

    def mean(value):  # the per-sample averages summed in sample order
        return sum((np.broadcast_to(value, limit) / limit).tolist())

    totals = {part: {key: mean(value) for key, value in energy[part].items()}
              for part in ("digital", "neuromorphic")}
    totals["total_flops"] = mean(energy["total_flops"])
    ann_equiv = AnnLSTM(layers=[c.weights for c in model.cells], head=model.head, act=model.act)
    ann_ops = count_ops_ann(ann_equiv, test.sequences.shape[1])
    ann_energy = estimate_energy(ann_ops)
    out = {
        "command": "energy-report", "ckpt": args.ckpt, "samples": limit,
        "time_steps": model.time_steps, "encoding": model.encoding,
        "spiking": totals,
        "nonspiking_baseline": {"digital": ann_energy["digital"],
                                "total_flops": ann_energy["total_flops"]},
        "digital_ratio_nonspiking_over_spiking":
            ann_energy["digital"]["total"] / totals["digital"]["total"],
    }
    if args.sparsity_out:
        with open(args.sparsity_out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["sample", "layer", "f", "i", "g", "o", "c"])
            writer.writeheader()
            for row in sparsity_rows:
                writer.writerow(row)
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "bucket", "energy"])
            for bucket, value in totals["digital"].items():
                writer.writerow(["spiking", bucket, f"{value:.6f}"])
            for bucket, value in ann_energy["digital"].items():
                writer.writerow(["nonspiking", bucket, f"{value:.6f}"])
    print(json.dumps(out, indent=2))
    return 0


def cmd_verify(args) -> int:
    results = run_all()
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump([vars(r) for r in results], fh, indent=2)
    if failures:
        print(json.dumps({"failed": [vars(r) for r in failures]}))
        return 1
    print(f"verify: all {len(results)} oracle suites passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikelstm",
        description="Multiplier-free spiking LSTM toolkit: training, conversion, "
                    "fine-tuning, pipelined latency and energy models.")
    parser.add_argument("--version", action="version", version=f"spikelstm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-ann", help="train the hard-activation LSTM baseline")
    p.add_argument("--config", required=True, help="JSON config path")
    p.set_defaults(func=cmd_train_ann)

    p = sub.add_parser("convert", help="convert an ANN checkpoint to a spiking model")
    p.add_argument("--ann-ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--time-steps", type=int, default=2)
    p.add_argument("--shift", choices=("on", "off"), default="on")
    p.add_argument("--analog-gate", choices=("i", "g"), default="i")
    p.add_argument("--encoding", choices=("direct", "poisson"), default="direct")
    p.add_argument("--gamma", type=float, default=0.3, help="surrogate gradient peak")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train-snn", help="surrogate-gradient fine-tuning / training")
    p.add_argument("--config", required=True)
    p.add_argument("--train-threshold", choices=("on", "off"), default=None)
    p.add_argument("--train-leak", choices=("on", "off"), default=None)
    p.add_argument("--train-init", choices=("on", "off"), default=None)
    p.set_defaults(func=cmd_train_snn)

    p = sub.add_parser("eval", help="accuracy and sparsity of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset-config", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline-sim", help="tick trace and latency for the three schemes")
    p.add_argument("--n", type=int, required=True, help="sequence length N")
    p.add_argument("--t", type=int, required=True, help="time steps T per element")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--blocks", type=int, default=None, help="physical block count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", default=None, help="write the per-tick CSV here")
    p.set_defaults(func=cmd_pipeline_sim)

    p = sub.add_parser("energy-report", help="digital + neuromorphic energy breakdowns")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset-config", required=True)
    p.add_argument("--limit", type=int, default=32, help="samples to evaluate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sparsity-out", default=None, help="per-gate sparsity CSV path")
    p.add_argument("--csv-out", default=None, help="digital breakdown CSV path")
    p.set_defaults(func=cmd_energy_report)

    p = sub.add_parser("verify", help="run every analytical oracle suite")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed: expected an integer >= 0, got {args.seed}")
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except SpikeLstmError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
