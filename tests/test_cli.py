import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spikelstm
from spikelstm import checkpoint
from spikelstm.cli import main
from spikelstm.lstm import AnnLSTM
from spikelstm.snn import SpikingLSTM

from conftest import random_snn

DATASET = {"kind": "synthetic-planted", "size": 240, "seed": 1, "noise": 0.5}


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture()
def ann_run(tmp_path):
    cfg = write_json(tmp_path / "ann.json", {
        "config_version": 1, "seed": 0, "dataset": DATASET,
        "model": {"hidden": [6], "init_scale": 0.3},
        "train": {"epochs": 4, "batch_size": 32, "lr": 0.01},
        "out_dir": str(tmp_path / "ann_run"),
    })
    assert main(["train-ann", "--config", cfg]) == 0
    return tmp_path


def test_train_ann_writes_three_artifacts_within_budget(tmp_path):
    import time

    cfg = write_json(tmp_path / "ann.json", {
        "config_version": 1, "seed": 0, "dataset": DATASET,
        "model": {"hidden": [6], "init_scale": 0.3},
        "train": {"epochs": 4, "batch_size": 32, "lr": 0.01},
        "out_dir": str(tmp_path / "ann_run"),
    })
    start = time.time()
    assert main(["train-ann", "--config", cfg]) == 0
    assert time.time() - start < 60.0
    out = tmp_path / "ann_run"
    assert sorted(os.listdir(out)) == ["manifest.json", "metrics.csv", "model.ckpt"]


def test_missing_required_field_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {
        "config_version": 1, "dataset": {"kind": "mnist-idx"}, "out_dir": "x"})
    assert main(["train-ann", "--config", cfg]) == 2
    assert "dataset.dir" in capsys.readouterr().err


def test_unknown_field_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {
        "config_version": 1, "dataset": dict(DATASET, sizee=3), "out_dir": "x"})
    assert main(["train-ann", "--config", cfg]) == 2
    assert "sizee" in capsys.readouterr().err


def test_wrong_config_version_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {"config_version": 99, "dataset": DATASET,
                                             "out_dir": "x"})
    assert main(["train-ann", "--config", cfg]) == 2


def test_same_seed_identical_metrics_modulo_wall_time(tmp_path):
    rows = []
    for run in ("a", "b"):
        cfg = write_json(tmp_path / f"{run}.json", {
            "config_version": 1, "seed": 3, "dataset": DATASET,
            "model": {"hidden": [6], "init_scale": 0.3},
            "train": {"epochs": 3, "batch_size": 32, "lr": 0.01},
            "out_dir": str(tmp_path / run),
        })
        assert main(["train-ann", "--config", cfg]) == 0
        with open(tmp_path / run / "metrics.csv") as fh:
            rows.append([r[:5] for r in csv.reader(fh)])  # drop wall_time
    assert rows[0] == rows[1]


def test_convert_flags(ann_run, tmp_path):
    ann_ckpt = str(ann_run / "ann_run" / "model.ckpt")
    out_on = str(tmp_path / "snn_on.ckpt")
    out_off = str(tmp_path / "snn_off.ckpt")
    assert main(["convert", "--ann-ckpt", ann_ckpt, "--out", out_on,
                 "--time-steps", "2", "--shift", "on", "--analog-gate", "g"]) == 0
    assert main(["convert", "--ann-ckpt", ann_ckpt, "--out", out_off,
                 "--time-steps", "2", "--shift", "off"]) == 0
    snn_on = checkpoint.load_model(out_on)
    snn_off = checkpoint.load_model(out_off)
    assert snn_on.plan.analog_gate == "g"
    np.testing.assert_array_equal(snn_on.cells[0].gate_params["f"].mem_init, 2.0)
    np.testing.assert_array_equal(snn_off.cells[0].gate_params["f"].mem_init, 0.0)
    # emitted checkpoint reloads bit-identically
    reload_path = str(tmp_path / "snn_reload.ckpt")
    checkpoint.save_model(snn_on, reload_path)
    assert open(out_on, "rb").read() == open(reload_path, "rb").read()


def test_train_snn_pretrained_and_np_modes(ann_run, tmp_path):
    ann_ckpt = str(ann_run / "ann_run" / "model.ckpt")
    cfg_p = write_json(tmp_path / "snn_p.json", {
        "config_version": 1, "seed": 0, "dataset": DATASET,
        "snn": {"init_checkpoint": ann_ckpt, "time_steps": 2,
                "train_threshold": True, "train_leak": True},
        "train": {"epochs": 2, "batch_size": 32, "lr": 0.003},
        "out_dir": str(tmp_path / "snn_p"),
    })
    assert main(["train-snn", "--config", cfg_p]) == 0
    model = checkpoint.load_model(str(tmp_path / "snn_p" / "model.ckpt"))
    assert isinstance(model, SpikingLSTM)

    cfg_np = write_json(tmp_path / "snn_np.json", {
        "config_version": 1, "seed": 0, "dataset": DATASET,
        "model": {"hidden": [6], "init_scale": 0.3},
        "snn": {"init_checkpoint": None, "time_steps": 2},
        "train": {"epochs": 1, "batch_size": 32, "lr": 0.003},
        "out_dir": str(tmp_path / "snn_np"),
    })
    assert main(["train-snn", "--config", cfg_np]) == 0


def test_train_snn_flag_overrides_config(ann_run, tmp_path):
    ann_ckpt = str(ann_run / "ann_run" / "model.ckpt")
    out = tmp_path / "snn_masked"
    cfg = write_json(tmp_path / "snn.json", {
        "config_version": 1, "seed": 0, "dataset": DATASET,
        "snn": {"init_checkpoint": ann_ckpt, "time_steps": 2, "train_leak": True},
        "train": {"epochs": 1, "batch_size": 32, "lr": 0.01},
        "out_dir": str(out),
    })
    assert main(["train-snn", "--config", cfg, "--train-leak", "off"]) == 0
    trained = checkpoint.load_model(str(out / "model.ckpt"))
    # leak stayed frozen at the converted value 1.0
    for gate, p in trained.cells[0].gate_params.items():
        np.testing.assert_array_equal(p.leak, 1.0)


def test_eval_json(ann_run, tmp_path, capsys):
    ds_cfg = write_json(tmp_path / "ds.json", {"config_version": 1, "dataset": DATASET})
    assert main(["eval", "--ckpt", str(ann_run / "ann_run" / "model.ckpt"),
                 "--dataset-config", ds_cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] > 0
    assert 0.0 <= payload["accuracy"] <= 1.0


def test_eval_rejects_non_finite_lif_field_with_exit_2(tmp_path, capsys):
    """A NaN threshold in a checkpoint is refused at load, naming the field,
    before it can reach a membrane."""
    model = random_snn(3, [4], [3], np.random.default_rng(0))
    marker = np.full(4, 1234.5)  # save_model refuses NaN, so the file gets it in place of this
    model.cells[0].gate_params["f"].threshold_pos = marker
    checkpoint.save_model(model, str(tmp_path / "nan.ckpt"))
    raw = (tmp_path / "nan.ckpt").read_bytes()
    assert raw.count(marker.tobytes()) == 1
    (tmp_path / "nan.ckpt").write_bytes(raw.replace(marker.tobytes(),
                                                    np.full(4, np.nan).tobytes()))
    ds_cfg = write_json(tmp_path / "ds.json", {"config_version": 1, "dataset": DATASET})
    assert main(["eval", "--ckpt", str(tmp_path / "nan.ckpt"), "--dataset-config", ds_cfg]) == 2
    err = capsys.readouterr().err
    assert "threshold_pos must be finite" in err and "Traceback" not in err


def test_train_snn_validates_time_steps_of_a_spiking_checkpoint(tmp_path, capsys):
    ckpt = str(tmp_path / "snn.ckpt")
    checkpoint.save_model(random_snn(6, [4], [3], np.random.default_rng(0)), ckpt)
    cfg = write_json(tmp_path / "cfg.json", {
        "config_version": 1, "dataset": DATASET, "out_dir": str(tmp_path / "run"),
        "snn": {"init_checkpoint": ckpt, "time_steps": 0}})
    assert main(["train-snn", "--config", cfg]) == 2
    assert "time_steps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("analog_gate", "g"), ("shift", False),
                                        ("surrogate_gamma", 0.9)])
def test_train_snn_rejects_conversion_keys_with_a_spiking_checkpoint(tmp_path, capsys,
                                                                     key, value):
    """A spiking checkpoint carries its own plan, shift and gamma: a config
    that sets one exits 2 naming the key, before any training."""
    ckpt = str(tmp_path / "snn.ckpt")
    checkpoint.save_model(random_snn(6, [4], [3], np.random.default_rng(0)), ckpt)
    cfg = write_json(tmp_path / "cfg.json", {
        "config_version": 1, "dataset": DATASET, "out_dir": str(tmp_path / "run"),
        "snn": {"init_checkpoint": ckpt, "time_steps": 2, key: value}})
    assert main(["train-snn", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"snn.{key}" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "run")


def test_pipeline_sim_reports_paper_tick_counts(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.csv")
    assert main(["pipeline-sim", "--n", "5", "--t", "3", "--trace-out", trace_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent_to_sequential"] is True
    assert payload["latency"]["proposed"]["ticks"] == 7
    assert payload["latency"]["priorwork"]["ticks"] == 15
    assert payload["latency"]["nonspiking"]["ticks"] == 5
    with open(trace_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 7


def test_pipeline_sim_rejects_block_count_below_one(capsys):
    for blocks in ("0", "-1"):
        assert main(["pipeline-sim", "--n", "5", "--t", "3", "--blocks", blocks]) == 2
        err = capsys.readouterr().err
        assert "block_count" in err and "Traceback" not in err


def test_energy_report_rejects_limit_below_one(ann_run, tmp_path, capsys):
    from spikelstm.convert import convert

    ckpt = str(tmp_path / "snn.ckpt")
    checkpoint.save_model(convert(checkpoint.load_model(
        str(ann_run / "ann_run" / "model.ckpt")), T=2), ckpt)
    ds_cfg = write_json(tmp_path / "ds.json", {"config_version": 1, "dataset": DATASET})
    for limit in ("0", "-3"):
        assert main(["energy-report", "--ckpt", ckpt, "--dataset-config", ds_cfg,
                     "--limit", limit]) == 2
        err = capsys.readouterr().err
        assert "--limit" in err and "Traceback" not in err


def _energy_report_reference(model, test, limit, seed):
    """energy-report's spiking totals and sparsity rows from a B=1
    snn_forward loop, sample k streamed as sample k of the set."""
    from spikelstm.energy import audit_multiplier_free, estimate_energy
    from spikelstm.snn import snn_forward

    totals = None
    rows = []
    for k in range(limit):
        _, stats, ops = snn_forward(model, test.sequences[k], rng_seed=seed, first_index=k)
        audit_multiplier_free(ops)
        energy = estimate_energy(ops)
        if totals is None:
            totals = {"digital": dict.fromkeys(energy["digital"], 0.0),
                      "neuromorphic": dict.fromkeys(energy["neuromorphic"], 0.0),
                      "total_flops": 0}
        for part in ("digital", "neuromorphic"):
            for key, value in energy[part].items():
                totals[part][key] += value / limit
        totals["total_flops"] += ops.total_flops / limit
        rows += [{"sample": k, "layer": li, **{g: float(v[0]) for g, v in rates.items()}}
                 for li, rates in enumerate(stats.gate_rates())]
    return totals, rows


@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_batched_energy_report_matches_streamed_reference(tmp_path, capsys, monkeypatch,
                                                          encoding):
    """energy-report runs the engine once over the whole split, here in
    tiles of 100 rows; its JSON and sparsity CSV equal a per-sample B=1
    reference."""
    from spikelstm import snn as snn_module
    from spikelstm.cli import build_dataset
    from spikelstm.data import SequenceDataset, save_feature_tensor
    from spikelstm.snn import ConversionPlan

    rng = np.random.default_rng(2)  # values in [0, 1], as poisson encoding needs
    save_feature_tensor(str(tmp_path / "set.seqf"), SequenceDataset(
        rng.random((640, 6, 3)).astype(np.float32), rng.integers(0, 3, 640), 3))
    dataset = {"kind": "seqf", "path": str(tmp_path / "set.seqf"),
               "test_fraction": 0.5, "val_fraction": 0.1}
    _, _, test = build_dataset(dataset)
    assert len(test) > 300
    model = random_snn(3, [5, 4], [3], np.random.default_rng(7),
                       plan=ConversionPlan("g"), time_steps=3, encoding=encoding,
                       scale=1.5)
    for cell in model.cells:
        cell.weights.b["o"] += 3.0  # open o so the hidden layers spike
    ckpt = str(tmp_path / "snn.ckpt")
    checkpoint.save_model(model, ckpt)
    model = checkpoint.load_model(ckpt)
    ds_cfg = write_json(tmp_path / "ds.json", {"config_version": 1, "dataset": dataset})
    sparsity = str(tmp_path / "sparsity.csv")
    monkeypatch.setattr(snn_module, "LATTICE_BUDGET", 100 * 6 * 3 * 5)  # N * T * max(H) a row
    assert main(["energy-report", "--ckpt", ckpt, "--dataset-config", ds_cfg, "--seed", "5",
                 "--limit", str(len(test)), "--sparsity-out", sparsity]) == 0
    payload = json.loads(capsys.readouterr().out)

    totals, rows = _energy_report_reference(model, test, len(test), seed=5)
    assert payload["samples"] == len(test)
    assert payload["spiking"] == json.loads(json.dumps(totals))
    assert totals["digital"]["accumulate"] > 0
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["sample", "layer", "f", "i", "g", "o", "c"])
        writer.writeheader()
        writer.writerows(rows)
    assert open(sparsity).read() == expected.read_text()


def test_energy_report_zero_spike_run(tmp_path, capsys):
    """A zero-weight converted model emits no hidden spikes: zero recurrent ACs."""
    from spikelstm.convert import convert
    from spikelstm.lstm import ClassifierHead
    from conftest import zero_weights

    ann = AnnLSTM(layers=[zero_weights(6, 4)],
                  head=ClassifierHead([[np.zeros((3, 4)), np.zeros(3)]]))
    snn = convert(ann, T=2)
    ckpt = str(tmp_path / "zero.ckpt")
    checkpoint.save_model(snn, ckpt)
    ds_cfg = write_json(tmp_path / "ds.json", {"config_version": 1, "dataset": DATASET})
    assert main(["energy-report", "--ckpt", ckpt, "--dataset-config", ds_cfg,
                 "--limit", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spiking"]["digital"]["accumulate"] == 0.0
    assert payload["spiking"]["digital"]["multiply"] == 0.0


def test_verify_command_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_os_error_exits_1_without_traceback(tmp_path, capsys):
    assert main(["pipeline-sim", "--n", "3", "--t", "2", "--ckpt", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_removed_train_keys_exit_2(tmp_path, capsys):
    for key in ("workers", "micro_batch", "optimizer"):
        cfg = write_json(tmp_path / f"{key}.json", {
            "config_version": 1, "dataset": DATASET, "train": {key: 2},
            "out_dir": str(tmp_path / key)})
        assert main(["train-ann", "--config", cfg]) == 2
        assert key in capsys.readouterr().err


MALFORMED = [  # (command, config section or argv, its malformed value, field named)
    ("pipeline-sim", "argv", ["--n", "-1"], "--n"),
    ("train-ann", "model", {"hidden": []}, "model.hidden"),
    ("train-ann", "model", {"hidden": [-3]}, "model.hidden"),
    ("train-ann", "model", {"hidden": ["a"]}, "model.hidden"),
    ("train-ann", "model", {"hidden": [2.5]}, "model.hidden"),
    ("train-ann", "model", {"hidden": [0]}, "model.hidden"),
    ("train-snn", "model", {"hidden": [0]}, "model.hidden"),
    ("train-ann", "model", {"head": [-2]}, "model.head"),
    ("train-ann", "dataset", {"n_classes": 0}, "dataset.n_classes"),
    ("train-ann", "dataset", {"n_elements": 0}, "dataset.n_elements"),
    ("train-ann", "dataset", {"n_features": 0}, "dataset.n_features"),
    ("train-ann", "dataset", {"noise": -1}, "dataset.noise"),
    ("train-ann", "train", {"lr_decay_epochs": [[1]]}, "train.lr_decay_epochs"),
]


@pytest.mark.parametrize("command, section, value, field", MALFORMED,
                         ids=[f"{c} {json.dumps(v)}" for c, _, v, _ in MALFORMED])
def test_malformed_input_exits_2_naming_the_field(tmp_path, capsys, command, section, value,
                                                  field):
    if section == "argv":
        argv = [command, "--t", "2", *value]
    else:
        cfg = {"config_version": 1, "dataset": dict(DATASET), "model": {"hidden": [4]},
               "train": {"epochs": 1}, "snn": {"time_steps": 2},
               "out_dir": str(tmp_path / "run")}
        cfg[section] = {**cfg[section], **value}
        if command == "train-ann":
            del cfg["snn"]
        argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


BAD_INPUT = [  # (command, config overrides by section, extra argv, field named)
    ("train-ann", {"seed": -1}, [], "config.seed"),
    ("train-ann", {"dataset": {"seed": -1}}, [], "dataset.seed"),
    ("train-ann", {"dataset": {"split_seed": -1}}, [], "dataset.split_seed"),
    ("train-ann", {"model": {"init_seed": -1}}, [], "model.init_seed"),
    ("train-snn", {"model": {"init_seed": -1}}, [], "model.init_seed"),
    ("train-ann", {"model": {"init_scale": -1}}, [], "model.init_scale"),
    ("train-ann", {"dataset": {"val_fraction": 0}}, [], "dataset.val_fraction"),
    ("train-ann", {"train": {"lr_decay_factor": -1}}, [], "lr_decay_factor"),
    ("train-ann", {"train": {"grad_clip": -5}}, [], "grad_clip"),
    ("pipeline-sim", {}, ["--seed", "-1"], "--seed"),
    ("eval", {}, ["--seed", "-1"], "--seed"),
    ("energy-report", {}, ["--seed", "-1"], "--seed"),
    ("eval", {"dataset": {"test_fraction": 0}}, [], "--split"),
    ("eval", {"seqf": {"n_classes": 4}}, [], "labels"),  # the checkpoint's head has 3
    ("train-ann", {"dataset": {"kind": "mnist-idx", "pad_to": 20}}, [], "dataset.pad_to"),
    ("train-ann", {"dataset": {"kind": "mnist-idx", "pad_to": 30}}, [], "dataset.pad_to"),
    ("train-ann", {"dataset": {"kind": "mnist-idx", "limit_train": -5}}, [],
     "dataset.limit_train"),
    ("train-ann", {"dataset": {"kind": "mnist-idx", "limit_train": 0}}, [],
     "dataset.limit_train"),
]


@pytest.mark.parametrize("command, overrides, extra, field", BAD_INPUT,
                         ids=[f"{c} {json.dumps(o)} {' '.join(e)}" for c, o, e, _ in BAD_INPUT])
def test_bad_values_exit_2_naming_the_field(tmp_path, capsys, command, overrides, extra, field):
    """Negative seeds and scales, empty splits, out-of-range labels,
    sign-flipping training knobs and MNIST paddings or subset sizes out of
    range exit 2 with the field named, not with a traceback or a silent
    success. eval and energy-report read [0, 1] sequences of
    `seqf.n_classes` labels into a poisson-encoded checkpoint, so a negative
    --seed would reach the encoder. mnist-idx reads 40 train and 20 test
    images of 28x28."""
    from spikelstm.data import SequenceDataset, save_feature_tensor
    from test_data import write_idx_pair

    cfg = {"config_version": 1, "dataset": dict(DATASET, size=60), "model": {"hidden": [3]},
           "train": {"epochs": 1}, "snn": {"time_steps": 2}, "seqf": {"n_classes": 3},
           "out_dir": str(tmp_path / "run")}
    for section, value in overrides.items():
        cfg[section] = {**cfg[section], **value} if isinstance(value, dict) else value
    if command == "train-ann":
        del cfg["snn"]
    if cfg["dataset"]["kind"] == "mnist-idx":
        cfg["dataset"]["dir"] = str(tmp_path)
        rng = np.random.default_rng(3)
        for split, count in (("train", 40), ("t10k", 20)):
            paths = write_idx_pair(tmp_path, rng.integers(0, 256, (count, 28, 28)),
                                   np.arange(count) % 10)
            for path, kind in zip(paths, ("images-idx3", "labels-idx1")):
                os.replace(path, tmp_path / f"{split}-{kind}-ubyte")
    seqf = cfg.pop("seqf")
    if command in ("train-ann", "train-snn"):
        argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg)]
    elif command == "pipeline-sim":
        argv = [command, "--n", "3", "--t", "2"]
    else:
        ckpt = str(tmp_path / "snn.ckpt")
        checkpoint.save_model(random_snn(6, [4], [3], np.random.default_rng(0),
                                         time_steps=2, encoding="poisson"), ckpt)
        rng = np.random.default_rng(1)
        save_feature_tensor(str(tmp_path / "x.seqf"), SequenceDataset(
            rng.random((40, 5, 6)), np.arange(40) % seqf["n_classes"], seqf["n_classes"]))
        dataset = {"kind": "seqf", "path": str(tmp_path / "x.seqf"),
                   **{k: v for k, v in cfg["dataset"].items() if k.endswith("_fraction")}}
        ds_cfg = write_json(tmp_path / "ds.json", {"config_version": 1, "dataset": dataset})
        argv = [command, "--ckpt", ckpt, "--dataset-config", ds_cfg]
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    """`python -m spikelstm` is the command line: --version exits 0."""
    src = os.path.dirname(os.path.dirname(spikelstm.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "spikelstm", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"spikelstm {spikelstm.__version__}"


# Every config field as (section, field, kind, least, required), the section
# named as in the error message ("config" is a command's top level).
TOP_FIELDS = [("config", "config_version", int, None, True), ("config", "seed", int, 0, False),
              ("config", "dataset", dict, None, True), ("config", "model", dict, None, False),
              ("config", "train", dict, None, False), ("config", "out_dir", str, None, True)]
DATASET_FIELDS = [("dataset", "kind", str, None, True), ("dataset", "size", int, 1, False),
                  ("dataset", "seed", int, 0, False), ("dataset", "n_classes", int, 1, False),
                  ("dataset", "n_elements", int, 1, False),
                  ("dataset", "n_features", int, 1, False), ("dataset", "noise", float, 0, False),
                  ("dataset", "dir", str, None, False), ("dataset", "path", str, None, False),
                  ("dataset", "pad_to", int, None, False),
                  ("dataset", "limit_train", int, 1, False),
                  ("dataset", "val_fraction", float, None, False),
                  ("dataset", "test_fraction", float, None, False),
                  ("dataset", "split_seed", int, 0, False)]
MODEL_FIELDS = [("model", "hidden", list, 1, False), ("model", "head", list, 1, False),
                ("model", "v_sig", float, None, False), ("model", "v_tanh_pos", float, None, False),
                ("model", "v_tanh_neg", float, None, False),
                ("model", "init_scale", float, 0, False), ("model", "init_seed", int, 0, False),
                ("model", "forget_bias", float, None, False)]
TRAIN_FIELDS = [("train", "epochs", int, 1, False), ("train", "batch_size", int, 1, False),
                ("train", "lr", float, None, False), ("train", "grad_clip", float, None, False),
                ("train", "precision", str, None, False),
                ("train", "lr_decay_epochs", list, 0, False),
                ("train", "lr_decay_factor", float, None, False)]
SNN_FIELDS = [("config", "snn", dict, None, True), ("snn", "init_checkpoint", str, None, False),
              ("snn", "time_steps", int, None, False), ("snn", "encoding", str, None, False),
              ("snn", "analog_gate", str, None, False), ("snn", "shift", bool, None, False),
              ("snn", "surrogate_gamma", float, None, False),
              *[("snn", f"train_{key}", bool, None, False)
                for key in ("threshold", "leak", "init", "bias")]]


def _malformed(kind, least, required):
    """A boolean, a string, a list (of a boolean, for a list field) and an
    object, each unless the field holds one; NaN and Infinity for a number;
    one below the bound; null where the field is required."""
    values = [] if kind is bool else [True]
    values += [] if kind is str else ["x"]
    values += [[True] if kind is list else [1]]
    values += [] if kind is dict else [{}]
    values += [float("nan"), float("inf")] if kind in (int, float) else []
    if least is not None:
        values.append([least - 1] if kind is list else least - 1)
    return values + ([None] if required else [])


SWEEP = [(command, section, name, value)
         for command, fields in (("train-ann", TOP_FIELDS + DATASET_FIELDS + MODEL_FIELDS
                                  + TRAIN_FIELDS),
                                 ("train-snn", TOP_FIELDS + MODEL_FIELDS + TRAIN_FIELDS
                                  + SNN_FIELDS),
                                 ("eval", DATASET_FIELDS))
         for section, name, kind, least, required in fields
         for value in _malformed(kind, least, required)]


@pytest.fixture(scope="module")
def snn_ckpt(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("sweep") / "snn.ckpt")
    checkpoint.save_model(random_snn(6, [4], [3], np.random.default_rng(0)), path)
    return path


@pytest.mark.parametrize("command, section, name, value", SWEEP,
                         ids=[f"{c} {s}.{n}={json.dumps(v)}" for c, s, n, v in SWEEP])
def test_every_config_field_rejects_a_malformed_value(tmp_path, capsys, snn_ckpt, command,
                                                      section, name, value):
    """A value of the wrong kind (a boolean is no number, a number must be
    finite, a list holds integers), below its field's bound or null where
    the field is required exits 2 naming section.field, without a traceback
    and before a dataset is trained on."""
    out_dir = tmp_path / "run"
    cfg = {"config_version": 1, "seed": 0, "dataset": dict(DATASET, size=60),
           "model": {"hidden": [3]}, "train": {"epochs": 1}, "snn": {"time_steps": 2},
           "out_dir": str(out_dir)}
    if section == "config":
        cfg[name] = value
    else:
        cfg[section][name] = value
    if command == "eval":
        ds_cfg = write_json(tmp_path / "ds.json", {"config_version": 1,
                                                   "dataset": cfg["dataset"]})
        argv = ["eval", "--ckpt", snn_ckpt, "--dataset-config", ds_cfg]
    else:
        if command == "train-ann":
            del cfg["snn"]
        argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{section}.{name}" in err and "Traceback" not in err
    assert not out_dir.exists()


# Fields a config gives that its dataset kind, or a train-snn resumed from a
# checkpoint, would ignore: (command, dataset, model, field named).
SYNTHETIC_ONLY = {"size": 60, "seed": 2, "n_classes": 3, "n_elements": 5, "n_features": 4,
                  "noise": 0.1}
NOT_READ = [
    *[(command, {**DATASET, "kind": kind, "size": 60, key: value}, None, f"dataset.{key}")
      for command in ("train-ann", "eval") for kind in ("synthetic-planted", "synthetic-recall")
      for key, value in (("dir", "mnist"), ("path", "x.seqf"), ("pad_to", 32),
                         ("limit_train", 5))],
    *[(command, {"kind": "mnist-idx", "dir": "mnist", key: value}, None, f"dataset.{key}")
      for command in ("train-ann", "eval")
      for key, value in (*SYNTHETIC_ONLY.items(), ("test_fraction", 0.2), ("path", "x.seqf"))],
    *[(command, {"kind": "seqf", "path": "x.seqf", key: value}, None, f"dataset.{key}")
      for command in ("train-ann", "eval")
      for key, value in (*SYNTHETIC_ONLY.items(), ("dir", "mnist"), ("pad_to", 32),
                         ("limit_train", 5))],
    *[("train-snn", dict(DATASET, size=60), {key: value, "init_seed": None}, f"model.{key}")
      for key, value in (("hidden", [3]), ("init_scale", 0.2), ("v_sig", 4.0))],
]


@pytest.mark.parametrize("command, dataset, model, field", NOT_READ,
                         ids=[f"{c} {d['kind']} {f}" for c, d, _, f in NOT_READ])
def test_every_config_field_that_would_be_ignored_exits_2(tmp_path, capsys, snn_ckpt, command,
                                                          dataset, model, field):
    """A dataset field its kind does not read, or a model field when
    snn.init_checkpoint gives the model, exits 2 naming it before any file
    is read or a model trained. Only the fields given count: a null one,
    or the table's default, does not."""
    out_dir = tmp_path / "run"
    if command == "eval":
        cfg = write_json(tmp_path / "ds.json", {"config_version": 1, "dataset": dataset})
        argv = ["eval", "--ckpt", snn_ckpt, "--dataset-config", cfg]
    else:
        cfg = {"config_version": 1, "dataset": dataset, "train": {"epochs": 1},
               "out_dir": str(out_dir)}
        if model is not None:
            cfg.update(model=model, snn={"init_checkpoint": snn_ckpt})
        argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert field in err and "does not apply" in err and "Traceback" not in err
    assert not out_dir.exists()


def test_null_fields_a_kind_does_not_read_are_not_given(tmp_path, snn_ckpt):
    """Null is no value: a synthetic dataset with null dir, path, pad_to and
    limit_train trains, and so does a resumed train-snn whose model section
    holds only nulls."""
    dataset = dict(DATASET, size=60, dir=None, path=None, pad_to=None, limit_train=None)
    for command, extra in (("train-ann", {"model": {"hidden": [3]}}),
                           ("train-snn", {"model": {"hidden": None, "init_scale": None},
                                          "snn": {"init_checkpoint": snn_ckpt}})):
        cfg = write_json(tmp_path / f"{command}.json", {
            "config_version": 1, "dataset": dataset, "train": {"epochs": 1},
            "out_dir": str(tmp_path / command), **extra})
        assert main([command, "--config", cfg]) == 0


def test_init_scale_too_large_to_sample_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "config_version": 1, "dataset": DATASET, "model": {"init_scale": 1e308},
        "out_dir": str(tmp_path / "run")})
    assert main(["train-ann", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "scale" in err and "Traceback" not in err


def test_train_snn_resume_keeps_the_checkpoints_time_steps_and_encoding(tmp_path):
    """A resumed spiking checkpoint keeps its own T and encoding unless the
    config gives them."""
    from spikelstm.data import SequenceDataset, save_feature_tensor

    rng = np.random.default_rng(1)  # values in [0, 1], as poisson encoding needs
    save_feature_tensor(str(tmp_path / "x.seqf"), SequenceDataset(
        rng.random((60, 5, 6)), np.arange(60) % 3, 3))
    ckpt = str(tmp_path / "snn.ckpt")
    checkpoint.save_model(random_snn(6, [4], [3], np.random.default_rng(0), time_steps=4,
                                     encoding="poisson"), ckpt)
    for run, snn, expected in (("kept", {"time_steps": None}, (4, "poisson")),
                               ("given", {"time_steps": 3, "encoding": "direct"}, (3, "direct"))):
        cfg = write_json(tmp_path / f"{run}.json", {
            "config_version": 1, "dataset": {"kind": "seqf", "path": str(tmp_path / "x.seqf")},
            "train": {"epochs": 1}, "snn": {"init_checkpoint": ckpt, **snn},
            "out_dir": str(tmp_path / run)})
        assert main(["train-snn", "--config", cfg]) == 0
        model = checkpoint.load_model(str(tmp_path / run / "model.ckpt"))
        assert (model.time_steps, model.encoding) == expected
