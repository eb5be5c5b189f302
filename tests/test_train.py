import csv
import json
import re
import tracemalloc

import numpy as np
import pytest

from spikelstm import checkpoint
from spikelstm import snn as snn_module
from spikelstm.convert import convert
from spikelstm.data import synthetic_task
from spikelstm.errors import TrainingDiverged, ValidationError
from spikelstm.lstm import GATES, AnnLSTM, ClassifierHead, ann_batch_forward
from spikelstm.snn import ConversionPlan, SpikingLSTMCell, default_gate_params
from spikelstm.train import (Adam, TrainConfig, TrainMask, _gate_gradients, _projection_backward,
                             ann_backward, cast_parameters, clip_global_norm, evaluate, fit,
                             model_parameters, set_parameters, snn_backward, snn_batch_forward,
                             softmax_cross_entropy)
from spikelstm.verify import check_ann_gradients, check_snn_gradients

from conftest import random_snn, tape_arrays, zero_weights


def _worst_rel_err(result) -> float:
    return float(re.search(r"worst rel err (\S+)", result.detail).group(1))


def test_ann_gradient_oracle():
    result = check_ann_gradients(n_models=3, tol=1e-5)
    assert result.passed, result.detail
    assert 0.0 < _worst_rel_err(result) <= 1e-5  # the true worst error is reported


def test_snn_gradient_oracle():
    result = check_snn_gradients(n_models=3, tol=1e-4)
    assert result.passed, result.detail
    assert 0.0 < _worst_rel_err(result) <= 1e-4


def test_zero_weight_softmax_symmetry():
    """Uniform logits with balanced targets: per-class logit gradients match."""
    logits = np.zeros((3, 3))
    labels = np.array([0, 1, 2])
    loss, dlogits = softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(np.log(3))
    per_class = dlogits.sum(axis=0)
    np.testing.assert_allclose(per_class, per_class[0], atol=1e-15)


def test_gamma_zero_kills_spiking_gradients_but_not_head():
    rng = np.random.default_rng(0)
    model = random_snn(2, [3], [2], rng, time_steps=2, scale=1.0,
                       surrogate_gamma=0.0)
    X = rng.uniform(0, 1, (3, 4, 2))
    y = np.array([0, 1, 0])
    _, grads = snn_backward(model, (X, y))
    for name, g in grads.items():
        if name.startswith("head."):
            continue
        assert np.all(g == 0.0), name
    assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("head."))


def test_train_forward_matches_streaming_inference():
    from spikelstm.snn import snn_forward

    for encoding in ("direct", "poisson"):
        for analog_gate in ("i", "g"):
            rng = np.random.default_rng(5)
            model = random_snn(3, [6, 5], [2], rng, plan=ConversionPlan(analog_gate),
                               time_steps=3, encoding=encoding, scale=2.0)
            for cell in model.cells:  # open f/i/o so the top layer spikes
                for gate in ("f", "i", "o"):
                    cell.weights.b[gate] += 4.0
            seq = rng.random((5, 3))
            stream_logits, stats, _ = snn_forward(model, seq, rng_seed=4)
            assert stats.layers[-1].hidden_nnz[:, -1].sum() > 0
            batch_logits, _, _ = snn_batch_forward(model, seq[None], 3, encoding, 4)
            np.testing.assert_array_equal(batch_logits[0], stream_logits)


def test_poisson_evaluate_is_chunk_invariant(monkeypatch):
    """Chunks of 256 and of 7, and streaming sample k as sample k of its set
    (as energy-report does), all see the same spikes."""
    from spikelstm import train
    from spikelstm.snn import snn_forward

    rng = np.random.default_rng(6)
    model = random_snn(4, [5], [3], rng, plan=ConversionPlan("g"), time_steps=4,
                       encoding="poisson", scale=1.5)
    X = rng.random((40, 6, 4))
    y = rng.integers(0, 3, 40)
    monkeypatch.setattr(train, "EVAL_CHUNK", 256)
    loss_a, acc_a, rate_a = evaluate(model, X, y, seed=3)
    monkeypatch.setattr(train, "EVAL_CHUNK", 7)
    loss_b, acc_b, rate_b = evaluate(model, X, y, seed=3)
    assert acc_a == acc_b
    assert rate_a == rate_b
    assert abs(loss_a - loss_b) <= 1e-12
    spikes = sum(snn_forward(model, X[k], rng_seed=3, first_index=k)[1].layers[0].hidden_nnz_total
                 for k in range(40))
    assert spikes > 0
    assert rate_a == spikes / (40 * 6 * 4 * 5)


def test_leak_mask_contract():
    rng = np.random.default_rng(1)
    model = random_snn(2, [3], [2], rng, time_steps=2, scale=1.5)
    X = rng.uniform(0, 1, (4, 3, 2))
    y = np.array([0, 1, 0, 1])
    params = model_parameters(model)

    _, grads = snn_backward(model, (X, y))
    live = [k for k in grads if k.endswith(".leak") and np.any(grads[k] != 0.0)]
    assert live, "expected at least one leak parameter with nonzero gradient"
    leak_name = live[0]

    before = params[leak_name].copy()
    opt = Adam(lr=1e-2)
    trainable_on = [k for k in params if TrainMask(leak=True).allows(k)]
    opt.step(params, grads, trainable_on)
    assert not np.array_equal(params[leak_name], before)

    params[leak_name][...] = before
    opt2 = Adam(lr=1e-2)
    trainable_off = [k for k in params if TrainMask(leak=False).allows(k)]
    opt2.step(params, grads, trainable_off)
    assert np.array_equal(params[leak_name], before)  # bit-identical


def test_masked_params_bit_invariant_over_many_steps():
    rng = np.random.default_rng(2)
    model = random_snn(2, [3], [2], rng, time_steps=2, scale=1.0)
    X = rng.uniform(0, 1, (4, 3, 2))
    y = np.array([1, 0, 1, 0])
    params = model_parameters(model)
    frozen = {k: v.copy() for k, v in params.items() if ".lif." in k}
    opt = Adam(lr=5e-2)
    trainable = [k for k in params if TrainMask().allows(k)]  # weights only
    for _ in range(5):
        _, grads = snn_backward(model, (X, y))
        opt.step(params, grads, trainable)
    for name, value in frozen.items():
        assert np.array_equal(params[name], value), name


def test_clip_bounds_global_norm_exactly():
    grads = {"a": np.full(4, 3.0), "b": np.full(9, -2.0)}
    norm = clip_global_norm(grads, 5.0)
    assert norm == pytest.approx(np.sqrt(36 + 36))
    clipped = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert clipped == pytest.approx(5.0, abs=1e-12)
    # below the bound: untouched
    grads2 = {"a": np.ones(2)}
    clip_global_norm(grads2, 5.0)
    np.testing.assert_array_equal(grads2["a"], 1.0)


def _per_gate_projection_backward(w, dz, x, h, grads, prefix, dh=None, dx=None):
    """The per-gate loop that the stacked projection backward replaced
    (dz a dict gate -> [B, H]), as the bitwise reference."""
    for a in GATES:
        grads[f"{prefix}.w_x.{a}"] += dz[a].T @ x
        grads[f"{prefix}.w_h.{a}"] += dz[a].T @ h
        grads[f"{prefix}.b.{a}"] += dz[a].sum(axis=0)
        if dh is not None:
            dh += dz[a] @ w.w_h[a]
        if dx is not None:
            dx += dz[a] @ w.w_x[a]


@pytest.mark.parametrize("inputs", ["dh and dx", "dh", "dx", "neither"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", [1, 2, 32])
def test_stacked_projection_backward_is_the_per_gate_loop_bit_for_bit(batch, dtype, inputs):
    """_projection_backward on [4, B, H] stacks gives the per-gate loop's
    parameter gradients, accumulated over steps, and its input gradients,
    summed into zeros in GATES order, bit for bit: x a strided element
    slice of a [B, N, K] lattice, dz with zeros and signed zeros among its
    values, dh and dx overwritten whatever they held."""
    rng = np.random.default_rng(batch)
    model = AnnLSTM.random(5, [6], [2], rng, scale=0.8)
    cast_parameters(model, dtype)
    w = model.layers[0]
    grads, ((stacks, buffers),) = _gate_gradients(model, model.layers, "layers")
    ref = {k: v.copy() for k, v in grads.items()}
    X = rng.normal(size=(batch, 3, 5)).astype(dtype)
    for n in range(3):  # three steps accumulate
        dz = rng.normal(size=(4, batch, 6)).astype(dtype)
        dz[:, ::2, 1] = 0.0
        dz[:, 1::2, 2] = -0.0
        x, h = X[:, n], rng.normal(size=(batch, 6)).astype(dtype)
        dh = np.full((batch, 6), np.nan, dtype) if "dh" in inputs else None
        dx = np.full((batch, 5), np.nan, dtype) if "dx" in inputs else None
        ref_dh, ref_dx = (None if a is None else np.zeros_like(a) for a in (dh, dx))
        _projection_backward(stacks, dz, x, h, buffers, dh, dx)
        _per_gate_projection_backward(w, dict(zip(GATES, dz)), x, h, ref, "layers.0",
                                      ref_dh, ref_dx)
        for got, want in ((dh, ref_dh), (dx, ref_dx)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == dtype and got.tobytes() == want.tobytes()
    for name, value in ref.items():
        assert grads[name].dtype == dtype and grads[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("kind", ["ann", "snn-i", "snn-g"])
def test_backward_returns_one_array_per_parameter(kind):
    """ann_backward and snn_backward return one gradient per parameter
    name, of its shape and dtype, on distinct memory, and clip_global_norm
    scales that bundle to the bits it gives a deep copy (no shared buffer
    is scaled twice)."""
    import copy

    rng = np.random.default_rng(7)
    X, y = rng.random((3, 5, 4)), rng.integers(0, 3, 3)
    if kind == "ann":
        model = AnnLSTM.random(4, [5, 3], [3], rng, scale=0.8)
        _, grads = ann_backward(model, (X, y))
    else:
        model = random_snn(4, [5, 3], [3], rng, scale=0.8, plan=ConversionPlan(kind[-1]))
        _, grads = snn_backward(model, (X, y), seed=1)
    params = model_parameters(model)
    assert list(grads) == list(params)
    for name, p in params.items():
        assert (grads[name].shape, grads[name].dtype) == (p.shape, p.dtype), name
        assert not any(np.shares_memory(grads[name], g) for other, g in grads.items()
                       if other != name), name
    copied = copy.deepcopy(grads)
    norm = clip_global_norm(grads, 1e-3)
    assert norm == clip_global_norm(copied, 1e-3) and norm > 1e-3
    for name in grads:
        assert grads[name].tobytes() == copied[name].tobytes(), name


def test_piecewise_constant_landscape_still_yields_surrogate_gradient():
    """T=1, leak 1, bias v/2, init 0: the hard forward is a pure threshold
    at v/2, so tiny weight moves leave the loss flat, yet the surrogate
    produces a nonzero weight gradient inside the triangle support."""
    from spikelstm.activations import HardActConfig
    from spikelstm.snn import SpikingLSTM

    w = zero_weights(1, 1)
    w.w_x["g"][0, 0] = 4.0   # g spikes: membrane 4 > theta+ 3, inside (0, 6)
    w.w_x["o"][0, 0] = 3.0   # o spikes: membrane 3 + 2 = 5 > 4, keeps the h path live
    plan = ConversionPlan("i")
    cell = SpikingLSTMCell(weights=w, gate_params=default_gate_params(plan, HardActConfig(), 1, shift=False),
                           plan=plan)
    head = ClassifierHead([[np.array([[2.0], [-2.0]]), np.zeros(2)]])
    model = SpikingLSTM(cells=[cell], head=head, time_steps=1)
    X = np.full((1, 1, 1), 1.0)
    y = np.array([0])
    loss0, grads = snn_backward(model, (X, y))
    # flat landscape: nudging a weight by 1e-6 leaves the hard loss unchanged
    w.w_x["g"][0, 0] += 1e-6
    loss1, _ = snn_backward(model, (X, y))
    w.w_x["g"][0, 0] -= 1e-6
    assert loss1 == loss0
    # the c-neuron membrane (0.5) and the g membrane (4) sit inside their
    # triangle supports, so the surrogate path is live
    assert np.any(grads["cells.0.w_x.g"] != 0.0)


def test_fit_single_epoch_emits_metrics(tmp_path):
    """One epoch at each precision writes the three artifacts; the manifest
    hashes the data as given, so both precisions record the same hash."""
    ds = synthetic_task("planted-pattern", 64, seed=0)
    hashes = set()
    for precision in ("f64", "f32"):
        model = AnnLSTM.random(6, [4], [3], np.random.default_rng(0), scale=0.3)
        cfg = TrainConfig(epochs=1, batch_size=16, lr=1e-2, seed=0, precision=precision)
        out = tmp_path / precision
        _, history = fit(model, (ds.sequences[:48], ds.labels[:48]),
                         (ds.sequences[48:], ds.labels[48:]), cfg, out_dir=str(out))
        assert len(history) == 2  # one train row + one val row for the epoch
        with open(out / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "split", "loss", "accuracy", "spike_rate_mean", "wall_time"]
        assert len(rows) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model_kind"] == "ann"
        assert len(manifest["data_hash"]) == 64
        assert (out / "model.ckpt").exists()
        hashes.add(manifest["data_hash"])
    assert len(hashes) == 1


def test_manifest_records_the_config_as_json(tmp_path):
    """manifest.json's config holds every TrainConfig field in field order:
    the mask as an object and the lr decay epochs as an array."""
    ds = synthetic_task("planted-pattern", 48, seed=0)
    model = AnnLSTM.random(6, [4], [3], np.random.default_rng(0), scale=0.3)
    cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-2, seed=3, mask=TrainMask(threshold=True),
                      lr_decay_epochs=(1,), lr_decay_factor=0.5)
    fit(model, (ds.sequences[:32], ds.labels[:32]), (ds.sequences[32:], ds.labels[32:]), cfg,
        out_dir=str(tmp_path))
    text = (tmp_path / "manifest.json").read_text()
    config = json.loads(text)["config"]
    assert config == {"epochs": 2, "batch_size": 16, "lr": 0.01, "grad_clip": 5.0, "seed": 3,
                      "precision": "f64",
                      "mask": {"weights": True, "threshold": True, "leak": False,
                               "mem_init": False, "step_bias": False},
                      "lr_decay_epochs": [1], "lr_decay_factor": 0.5}
    assert list(config) == list(TrainConfig.__dataclass_fields__)
    assert '    "lr_decay_epochs": [\n      1\n    ],\n' in text


def test_fit_seed_determinism():
    ds = synthetic_task("planted-pattern", 96, seed=3)
    histories = []
    for _ in range(2):
        model = AnnLSTM.random(6, [4], [3], np.random.default_rng(1), scale=0.3)
        cfg = TrainConfig(epochs=3, batch_size=16, lr=1e-2, seed=7)
        _, history = fit(model, (ds.sequences[:64], ds.labels[:64]),
                         (ds.sequences[64:], ds.labels[64:]), cfg)
        histories.append([(h["epoch"], h["split"], h["loss"], h["accuracy"])
                          for h in history])  # wall time excluded
    assert histories[0] == histories[1]


def test_fit_divergence_aborts_with_last_good_state(tmp_path):
    ds = synthetic_task("planted-pattern", 48, seed=0)
    model = AnnLSTM.random(6, [4], [3], np.random.default_rng(0), scale=0.3)
    model.head.weights[0][0][0, 0] = np.nan  # poison: first batch loss is non-finite
    cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-2, seed=0)
    with pytest.raises(TrainingDiverged):
        fit(model, (ds.sequences[:32], ds.labels[:32]),
            (ds.sequences[32:], ds.labels[32:]), cfg, out_dir=str(tmp_path / "div"))
    # metrics/manifest still written, marked diverged
    manifest = json.loads((tmp_path / "div" / "manifest.json").read_text())
    assert "diverged" in manifest


def test_fit_ends_when_a_step_leaves_the_lif_domain(tmp_path):
    """At lr 1.0 Adam drives a trained leak below 0 within the first epoch:
    fit ends as TrainingDiverged naming the parameter, restores the initial
    parameters and writes a checkpoint that loads."""
    ds = synthetic_task("planted-pattern", 84, seed=0)
    model = random_snn(6, [4], [3], np.random.default_rng(0), scale=0.3)
    initial = {k: v.copy() for k, v in model_parameters(model).items()}
    cfg = TrainConfig(epochs=3, batch_size=16, lr=1.0, seed=0,
                      mask=TrainMask(threshold=True, leak=True))
    with pytest.raises(TrainingDiverged, match=r"left cells\.0\.lif\.\w\.leak at -.*> 0"):
        fit(model, (ds.sequences[:64], ds.labels[:64]), (ds.sequences[64:], ds.labels[64:]),
            cfg, out_dir=str(tmp_path / "run"))
    for name, value in model_parameters(model).items():
        np.testing.assert_array_equal(value, initial[name])
    loaded = checkpoint.load_model(str(tmp_path / "run" / "model.ckpt"))
    assert "diverged" in json.loads((tmp_path / "run" / "manifest.json").read_text())
    for name, value in model_parameters(loaded).items():
        np.testing.assert_array_equal(value, initial[name])


def test_f32_fit_that_diverges_restores_the_callers_f64_parameters():
    """An f32 fit that ends as TrainingDiverged before a first epoch ends
    leaves the model as a finished run does, at f64, holding the caller's
    own values, not their f32 roundings."""
    ds = synthetic_task("planted-pattern", 84, seed=0)
    model = random_snn(6, [4], [3], np.random.default_rng(0), scale=0.3)
    initial = {k: v.copy() for k, v in model_parameters(model).items()}
    cfg = TrainConfig(epochs=1, batch_size=16, lr=3.0, seed=0, precision="f32",
                      mask=TrainMask(threshold=True, leak=True))
    with pytest.raises(TrainingDiverged, match="restored the initial parameters"):
        fit(model, (ds.sequences[:64], ds.labels[:64]), (ds.sequences[64:], ds.labels[64:]), cfg)
    for name, value in model_parameters(model).items():
        assert value.dtype == np.float64, name
        np.testing.assert_array_equal(value, initial[name])


@pytest.mark.parametrize("name, value", [
    ("cells.0.w_x.q", np.zeros((3, 2))),  # a fifth gate
    ("cells.0.lif.f.threshold_neg", -np.ones(3)),  # would make the sigmoid f gate ternary
    ("layers.0.b.f", np.zeros(3)),  # an ANN's name
    ("cells.0.b.f", np.zeros(4)),  # the wrong shape
    ("cells.0.w_x.f", np.ones((3, 2), np.int64)),  # not a floating dtype
    ("cells.0.lif.c.leak", np.ones(3, np.float32)),  # a second floating dtype
])
def test_set_parameters_rejects_what_the_model_lacks(name, value):
    """A name the model has no tensor under, a value of another shape, or
    one that would leave the model's tensors without one shared floating
    dtype raises ValidationError naming it, and no tensor is rebound, not
    even the valid one given before it."""
    model = random_snn(2, [3], [2], np.random.default_rng(12), scale=1.0)
    before = model_parameters(model)
    snapshot = {k: v.copy() for k, v in before.items()}
    with pytest.raises(ValidationError, match=re.escape(name)):
        set_parameters(model, {"head.0.b": np.ones(2), name: value})
    after = model_parameters(model)
    assert after.keys() == before.keys()
    for k, v in after.items():
        assert v is before[k] and np.array_equal(v, snapshot[k]), k
    assert model.cells[0].gate_params["f"].threshold_neg is None


def test_fit_f32_precision_flag():
    ds = synthetic_task("planted-pattern", 48, seed=0)
    model = AnnLSTM.random(6, [4], [3], np.random.default_rng(0), scale=0.3)
    cfg = TrainConfig(epochs=1, batch_size=16, lr=1e-2, seed=0, precision="f32")
    model, _ = fit(model, (ds.sequences[:32], ds.labels[:32]),
                   (ds.sequences[32:], ds.labels[32:]), cfg)
    # checkpointable f64 afterwards
    assert model_parameters(model)["layers.0.b.f"].dtype == np.float64


def _arrays(obj):
    """Every array in a nest of dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    values = obj.values() if isinstance(obj, dict) else obj
    return [a for value in values for a in _arrays(value)]


@pytest.mark.parametrize("relaxed", [False, True])
def test_f32_run_makes_no_f64_array(relaxed):
    """An f32 model on f64 input computes at f32 throughout: the logits,
    the encoded input, every tape array of the SNN and its replay (A_analog
    included), the ANN's caches, and both backwards' gradients."""
    rng = np.random.default_rng(22)
    snn = random_snn(3, [5, 4], [3], rng, plan=ConversionPlan("i"), time_steps=2,
                     scale=1.0)
    ann = AnnLSTM.random(3, [5, 4], [3], rng, scale=0.5)
    for model in (snn, ann):
        cast_parameters(model, np.float32)
    X, y = rng.random((4, 3, 3)), np.array([0, 1, 2, 0])
    logits, tapes, aux = snn_batch_forward(snn, X, 2, "direct", 0, relaxed, want_tapes=True)
    assert all(("A_analog", None) in tape_arrays(tape) for tape in tapes)
    arrays = [logits, aux["encoded"], *aux["head_cache"]]
    arrays += [a for tape in tapes for a in [*tape_arrays(tape).values(), tape.Hp, tape.Cp]]
    arrays += _arrays(ann_batch_forward(ann, X, want_caches=True))
    for loss, grads in (snn_backward(snn, (X, y), relaxed=relaxed), ann_backward(ann, (X, y))):
        assert np.isfinite(loss)
        arrays += grads.values()
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("plan", ["g", "i"])
def test_snn_backward_is_bit_identical_across_replay_passes(monkeypatch, plan, relaxed):
    """A 2-layer snn_backward whose tapes replay 1 element per pass, 3 per
    pass (3 + 3 + 1) or all 7 in one pass gives the same loss and every
    gradient bit for bit. Every gradient is nonzero somewhere, but for
    the relaxed negative thresholds, whose partial vanishes where the
    membranes stay above them."""
    rng = np.random.default_rng(52 + (plan == "i"))
    batch, n_elements, T, hidden = 4, 7, 3, 5
    model = random_snn(3, [hidden, hidden], [3], rng, plan=ConversionPlan(plan),
                       time_steps=T, scale=1.5)
    for cell in model.cells:
        for gate in ("f", "i", "o"):
            cell.weights.b[gate] += 1.0
        for params in cell.gate_params.values():
            params.leak = params.leak * rng.uniform(0.8, 1.2, params.leak.shape)
        c = cell.gate_params["c"]  # a c neuron that spikes
        c.threshold_pos, c.threshold_neg = 0.3 * c.threshold_pos, 0.3 * c.threshold_neg
    X, y = rng.random((batch, n_elements, 3)), rng.integers(0, 3, batch)
    runs = []
    for span in (1, 3, n_elements):
        monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", span * T * batch * hidden)
        loss, grads = snn_backward(model, (X, y), seed=4, relaxed=relaxed)
        runs.append((loss, {k: (v.dtype, v.shape, v.tobytes()) for k, v in grads.items()}))
    assert all(np.any(g) for k, g in grads.items()
               if not (relaxed and k.endswith(".threshold_neg")))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_snn_backward_memory_stays_under_twelve_lattices_per_layer():
    """One snn_backward call of a 2-layer model peaks (by tracemalloc)
    below 12 [N, T, B, H] lattices per layer. Its tapes hold 7.1 per layer
    here (V of four neurons, P_analog, Hp and Cp) and replay the rest two
    elements at a time (T*B*H = 8192); a tape that also records the
    spikes, Upre and the analog activation holds 18.1 on its own."""
    rng = np.random.default_rng(46)
    batch, n_elements, T, hidden, feats = 32, 16, 4, 64, 3
    model = random_snn(feats, [hidden, hidden], [3], rng, plan=ConversionPlan("i"),
                       time_steps=T, scale=0.5)
    X, y = rng.random((batch, n_elements, feats)), rng.integers(0, 3, batch)
    snn_backward(model, (X, y))  # warm the caches
    tracemalloc.start()
    try:
        snn_backward(model, (X, y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lattice = n_elements * T * batch * hidden * X.itemsize
    assert peak < 12 * 2 * lattice


def test_finetune_beats_conversion_only(planted_splits):
    train, val, test = planted_splits
    rng = np.random.default_rng(0)
    ann = AnnLSTM.random(6, [8], [3], rng, scale=0.3)
    ann, _ = fit(ann, (train.sequences, train.labels), (val.sequences, val.labels),
                 TrainConfig(epochs=8, batch_size=32, lr=1e-2, seed=0))
    snn = convert(ann, T=2)
    _, conv_acc, _ = evaluate(snn, test.sequences, test.labels)
    mask = TrainMask(weights=True, threshold=True, leak=True, mem_init=True, step_bias=True)
    snn, _ = fit(snn, (train.sequences, train.labels), (val.sequences, val.labels),
                 TrainConfig(epochs=5, batch_size=32, lr=3e-3, seed=0, mask=mask))
    _, ft_acc, _ = evaluate(snn, test.sequences, test.labels)
    assert ft_acc > conv_acc


def test_loss_decreases_on_separable_task():
    ds = synthetic_task("planted-pattern", 160, seed=4, noise=0.2)
    model = AnnLSTM.random(6, [6], [3], np.random.default_rng(0), scale=0.3)
    cfg = TrainConfig(epochs=10, batch_size=32, lr=1e-2, seed=0)  # 50 steps
    _, history = fit(model, (ds.sequences[:128], ds.labels[:128]),
                     (ds.sequences[128:], ds.labels[128:]), cfg)
    train_losses = [h["loss"] for h in history if h["split"] == "train"]
    assert train_losses[-1] < train_losses[0]


def test_invalid_train_config_rejected():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(precision="f16")
