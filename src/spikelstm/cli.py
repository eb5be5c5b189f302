"""Command-line front end.

Subcommands: train-ann, convert, train-snn, eval, pipeline-sim,
energy-report, verify. Configs are JSON with a required config_version;
unknown fields are rejected with their path. Dataset paths may be
relative to $SPIKELSTM_DATA_ROOT. Exit codes: 0 success, 1 runtime
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


def _resolve(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(DATA_ROOT_ENV, "."), path)


def _expect_keys(obj: dict, allowed, required, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{path}: missing required field(s) {missing}")


def _typed(obj: dict, key: str, kinds, path: str, default=None):
    if key not in obj or obj[key] is None:
        return default
    value = obj[key]
    if kinds is bool and not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected a boolean")
    if kinds is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if kinds is float and not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    if kinds is str and not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string")
    if kinds is list and not isinstance(value, list):
        raise ConfigError(f"{path}.{key}: expected a list")
    return value


def _count(obj: dict, key: str, path: str, default: int | None, least: int = 1) -> int:
    value = _typed(obj, key, int, path, default)
    if value is not None and value < least:
        raise ConfigError(f"{path}.{key}: expected an integer >= {least}, got {value}")
    return value


def _nonnegative(obj: dict, key: str, path: str, default: float) -> float:
    value = _typed(obj, key, float, path, default)
    if value < 0:
        raise ConfigError(f"{path}.{key}: expected a number >= 0, got {value}")
    return value


def _int_list(obj: dict, key: str, path: str, default: list, least: int = 1) -> list:
    values = _typed(obj, key, list, path, default)
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= least for v in values):
        raise ConfigError(f"{path}.{key}: expected a list of integers >= {least}, got {values!r}")
    return values


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    version = cfg.get("config_version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"{path}: config_version must be {CONFIG_VERSION}, got {version!r}")
    return cfg


# ---------------------------------------------------------------------------
# dataset / model builders

_DATASET_KEYS = ("kind", "size", "seed", "n_classes", "n_elements", "n_features",
                 "noise", "dir", "path", "pad_to", "limit_train", "val_fraction",
                 "test_fraction", "split_seed")


def build_dataset(cfg: dict, path: str = "dataset"):
    """Returns (train, val, test) SequenceDatasets."""
    _expect_keys(cfg, _DATASET_KEYS, ("kind",), path)
    kind = _typed(cfg, "kind", str, path)
    val_fraction = _typed(cfg, "val_fraction", float, path, 0.15)
    test_fraction = _typed(cfg, "test_fraction", float, path, 0.15)
    split_seed = _count(cfg, "split_seed", path, 0, least=0)
    if kind in ("synthetic-planted", "synthetic-recall"):
        ds = synthetic_task(
            "planted-pattern" if kind == "synthetic-planted" else "delayed-recall",
            size=_count(cfg, "size", path, 600),
            seed=_count(cfg, "seed", path, 1, least=0),
            n_classes=_count(cfg, "n_classes", path, 3),
            n_elements=_count(cfg, "n_elements", path, 12),
            n_features=_count(cfg, "n_features", path, 6),
            noise=_nonnegative(cfg, "noise", path, 0.5),
        )
        return split_dataset(ds, val_fraction, test_fraction, split_seed)
    if kind == "mnist-idx":
        directory = _typed(cfg, "dir", str, path)
        if directory is None:
            raise ConfigError(f"{path}.dir: required for mnist-idx")
        pad_to = _typed(cfg, "pad_to", int, path, 32)
        if pad_to not in ROW_PADS:
            raise ConfigError(f"{path}.pad_to: expected one of {ROW_PADS}, got {pad_to}")
        limit = _count(cfg, "limit_train", path, None)
        full = load_tmnist(_resolve(directory), "train", pad_to)
        if limit is not None:
            order = np.random.default_rng(split_seed).permutation(len(full))[:limit]
            full = full.subset(order)
        train, val, _ = split_dataset(full, val_fraction, 0.0, split_seed)
        test = load_tmnist(_resolve(directory), "test", pad_to)
        return train, val, test
    if kind == "seqf":
        file_path = _typed(cfg, "path", str, path)
        if file_path is None:
            raise ConfigError(f"{path}.path: required for seqf")
        ds = load_feature_tensor(_resolve(file_path))
        return split_dataset(ds, val_fraction, test_fraction, split_seed)
    raise ConfigError(f"{path}.kind: unknown dataset kind {kind!r}")


_MODEL_KEYS = ("hidden", "head", "v_sig", "v_tanh_pos", "v_tanh_neg", "init_scale",
               "init_seed", "forget_bias")


def build_ann(cfg: dict, input_dim: int, n_classes: int, path: str = "model") -> AnnLSTM:
    """A random ANN from the model section: at least one hidden layer."""
    _expect_keys(cfg, _MODEL_KEYS, (), path)
    hidden = _int_list(cfg, "hidden", path, [8])
    if not hidden:
        raise ConfigError(f"{path}.hidden: expected at least one layer")
    head = _int_list(cfg, "head", path, [])
    rng = np.random.default_rng(_count(cfg, "init_seed", path, 0, least=0))
    act = HardActConfig(v_sig=_typed(cfg, "v_sig", float, path, 4.0),
                        v_tanh_pos=_typed(cfg, "v_tanh_pos", float, path, 3.0),
                        v_tanh_neg=_typed(cfg, "v_tanh_neg", float, path, -2.0))
    return AnnLSTM.random(input_dim, hidden, head + [n_classes], rng, act=act,
                          scale=_nonnegative(cfg, "init_scale", path, 0.3),
                          forget_bias=_typed(cfg, "forget_bias", float, path, 0.0))


_TRAIN_KEYS = ("epochs", "batch_size", "lr", "grad_clip", "precision", "lr_decay_epochs",
               "lr_decay_factor")


def build_train_config(cfg: dict, seed: int, mask: TrainMask, path: str = "train") -> TrainConfig:
    _expect_keys(cfg, _TRAIN_KEYS, (), path)
    return TrainConfig(
        epochs=_typed(cfg, "epochs", int, path, 5),
        batch_size=_typed(cfg, "batch_size", int, path, 32),
        lr=_typed(cfg, "lr", float, path, 1e-3),
        grad_clip=_typed(cfg, "grad_clip", float, path, 5.0),
        precision=_typed(cfg, "precision", str, path, "f64"),
        lr_decay_epochs=tuple(_int_list(cfg, "lr_decay_epochs", path, [], least=0)),
        lr_decay_factor=_typed(cfg, "lr_decay_factor", float, path, 0.1),
        seed=seed,
        mask=mask,
    )


# ---------------------------------------------------------------------------
# commands

def cmd_train_ann(args) -> int:
    cfg = load_config(args.config)
    _expect_keys(cfg, ("config_version", "seed", "dataset", "model", "train", "out_dir"),
                 ("config_version", "dataset", "out_dir"), "config")
    seed = _count(cfg, "seed", "config", 0, least=0)
    train, val, _ = build_dataset(cfg["dataset"])
    model = build_ann(cfg.get("model", {}), train.sequences.shape[2], train.n_classes)
    tc = build_train_config(cfg.get("train", {}), seed, TrainMask())
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
    cfg = load_config(args.config)
    _expect_keys(cfg, ("config_version", "seed", "dataset", "model", "train", "snn", "out_dir"),
                 ("config_version", "dataset", "snn", "out_dir"), "config")
    seed = _count(cfg, "seed", "config", 0, least=0)
    snn_cfg = cfg["snn"]
    _expect_keys(snn_cfg, ("init_checkpoint", "time_steps", "encoding", "analog_gate",
                           "shift", "surrogate_gamma", "train_threshold", "train_leak",
                           "train_init", "train_bias"), (), "snn")
    mask = TrainMask(
        weights=True,
        threshold=_override(args.train_threshold, _typed(snn_cfg, "train_threshold", bool, "snn", False)),
        leak=_override(args.train_leak, _typed(snn_cfg, "train_leak", bool, "snn", False)),
        mem_init=_override(args.train_init, _typed(snn_cfg, "train_init", bool, "snn", False)),
        step_bias=_typed(snn_cfg, "train_bias", bool, "snn", False),
    )
    train, val, _ = build_dataset(cfg["dataset"])
    T = _typed(snn_cfg, "time_steps", int, "snn", 2)
    encoding = _typed(snn_cfg, "encoding", str, "snn", "direct")
    init_ckpt = _typed(snn_cfg, "init_checkpoint", str, "snn")
    # no pre-trained model: the conversion of a random ANN (no-pretraining start)
    model = (checkpoint.load_model(_resolve(init_ckpt)) if init_ckpt else
             build_ann(cfg.get("model", {}), train.sequences.shape[2], train.n_classes))
    if isinstance(model, AnnLSTM):
        model = convert_model(model, T=T, plan=ConversionPlan(
            _typed(snn_cfg, "analog_gate", str, "snn", "i")),
            shift=_typed(snn_cfg, "shift", bool, "snn", True),
            surrogate_gamma=_typed(snn_cfg, "surrogate_gamma", float, "snn", 0.3),
            encoding=encoding)
    else:
        for key in ("analog_gate", "shift", "surrogate_gamma"):  # the checkpoint's own
            if snn_cfg.get(key) is not None:
                raise ConfigError(f"snn.{key}: applies only when converting an ANN, "
                                  f"and {init_ckpt} holds a spiking model")
        # rebuilt, so the new T and encoding are validated
        model = dataclasses.replace(model, time_steps=T, encoding=encoding)
    tc = build_train_config(cfg.get("train", {}), seed, mask)
    return _fit(args.command, model, train, val, tc, cfg["out_dir"])


def _override(flag, config_value):
    return config_value if flag is None else flag == "on"


def cmd_eval(args) -> int:
    model = checkpoint.load_model(args.ckpt)
    cfg = load_config(args.dataset_config)
    _expect_keys(cfg, ("config_version", "dataset"), ("config_version", "dataset"), "config")
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
    cfg = load_config(args.dataset_config)
    _expect_keys(cfg, ("config_version", "dataset"), ("config_version", "dataset"), "config")
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
