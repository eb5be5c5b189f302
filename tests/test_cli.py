import csv
import json
import os

import numpy as np
import pytest

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
    model.cells[0].gate_params["f"].threshold_pos = np.full(4, np.nan)
    checkpoint.save_model(model, str(tmp_path / "nan.ckpt"))
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
