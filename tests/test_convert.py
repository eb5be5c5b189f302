import importlib
import tracemalloc

import numpy as np
import pytest

from spikelstm.convert import convert, conversion_error_report
from spikelstm.errors import ValidationError
from spikelstm.lstm import AnnLSTM, ClassifierHead
import spikelstm.snn as snn_module
from spikelstm.snn import ConversionPlan, SpikingLSTMCell, default_gate_params
from spikelstm.train import cast_parameters, model_parameters, set_parameters

from conftest import zero_weights


def test_zero_weight_ann_gets_stated_defaults():
    head = ClassifierHead([[np.zeros((2, 3)), np.zeros(2)]])
    ann = AnnLSTM(layers=[zero_weights(2, 3)], head=head)
    snn = convert(ann, T=4)
    cell = snn.cells[0]
    for gate in ("f", "o"):
        p = cell.gate_params[gate]
        np.testing.assert_array_equal(p.threshold_pos, 4.0)
        np.testing.assert_array_equal(p.step_bias, 2.0)
        np.testing.assert_array_equal(p.mem_init, 2.0)
        np.testing.assert_array_equal(p.leak, 1.0)
    for gate in ("g", "c"):
        p = cell.gate_params[gate]
        np.testing.assert_array_equal(p.threshold_pos, 3.0)
        np.testing.assert_array_equal(p.threshold_neg, -2.0)
        np.testing.assert_array_equal(p.step_bias, 0.0)
        np.testing.assert_array_equal(p.mem_init, 1.5)
    assert cell.gate_params["f"].surrogate_gamma == 0.3


def test_mem_init_is_shift_times_t():
    ann = AnnLSTM.random(2, [3], [2], np.random.default_rng(0))
    snn = convert(ann, T=2)
    np.testing.assert_array_equal(snn.cells[0].gate_params["f"].mem_init, 2.0)  # 4/(2*2) * 2


def test_shift_off_zeroes_mem_init():
    ann = AnnLSTM.random(2, [3], [2], np.random.default_rng(0))
    snn = convert(ann, T=2, shift=False)
    for gate in snn.cells[0].gate_params:
        np.testing.assert_array_equal(snn.cells[0].gate_params[gate].mem_init, 0.0)


def test_conversion_is_weight_preserving_exactly():
    rng = np.random.default_rng(1)
    ann = AnnLSTM.random(3, [4, 4], [2, 3], rng, scale=0.9)
    snn = convert(ann, T=8)
    for li, w in enumerate(ann.layers):
        for a in "figo":
            assert np.max(np.abs(w.w_x[a] - snn.cells[li].weights.w_x[a])) == 0.0
            assert np.max(np.abs(w.w_h[a] - snn.cells[li].weights.w_h[a])) == 0.0
            assert np.max(np.abs(w.b[a] - snn.cells[li].weights.b[a])) == 0.0
    for k, (W, b) in enumerate(ann.head.weights):
        assert np.max(np.abs(W - snn.head.weights[k][0])) == 0.0
    # copies, not views: mutating the SNN must not touch the ANN
    snn.cells[0].weights.w_x["f"][0, 0] += 1.0
    assert ann.layers[0].w_x["f"][0, 0] != snn.cells[0].weights.w_x["f"][0, 0]


def test_both_analog_gate_plans_convert():
    ann = AnnLSTM.random(2, [3], [2], np.random.default_rng(2))
    for plan in ("i", "g"):
        snn = convert(ann, T=2, plan=ConversionPlan(plan))
        assert snn.plan.analog_gate == plan
        names = model_parameters(snn)
        spiking_ig = "g" if plan == "i" else "i"
        assert f"cells.0.lif.{spiking_ig}.leak" in names
        assert f"cells.0.lif.{plan}.leak" not in names


def test_invalid_t_rejected():
    ann = AnnLSTM.random(2, [3], [2], np.random.default_rng(0))
    with pytest.raises(ValidationError):
        convert(ann, T=0)


def test_error_report_shrinks_with_t(planted_splits):
    train, _, _ = planted_splits
    rng = np.random.default_rng(0)
    ann = AnnLSTM.random(6, [4], [3], rng, scale=0.5)
    probes = [train.sequences[k] for k in range(6)]
    err2 = conversion_error_report(ann, convert(ann, T=2), probes, T=2)
    err16 = conversion_error_report(ann, convert(ann, T=16), probes, T=16)
    mean2 = np.mean([r["mae"] for r in err2])
    mean16 = np.mean([r["mae"] for r in err16])
    assert mean16 <= mean2


def test_error_report_shift_helps_at_t2(planted_splits):
    train, _, _ = planted_splits
    ann = AnnLSTM.random(6, [4], [3], np.random.default_rng(0), scale=0.5)
    probes = [train.sequences[k] for k in range(6)]
    err_on = conversion_error_report(ann, convert(ann, T=2, shift=True), probes, T=2)
    err_off = conversion_error_report(ann, convert(ann, T=2, shift=False), probes, T=2)
    assert np.mean([r["mae"] for r in err_on]) <= np.mean([r["mae"] for r in err_off])


def test_error_report_near_zero_at_large_t():
    head = ClassifierHead([[np.zeros((2, 1)), np.zeros(2)]])
    ann = AnnLSTM(layers=[zero_weights(1, 1)], head=head)
    snn = convert(ann, T=256)
    rows = conversion_error_report(ann, snn, [np.full((3, 1), 0.5)], T=256)
    for row in rows:
        assert row["mae"] <= 0.02


def test_error_report_rejects_ragged_probes(tiny_ann):
    snn = convert(tiny_ann, T=2)
    with pytest.raises(ValidationError):
        conversion_error_report(tiny_ann, snn, [np.zeros((3, 2)), np.zeros((4, 2))], T=2)


@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_error_report_chunked_matches_one_batch(monkeypatch, encoding):
    """More probes than a chunk: chunks of 4 (4 + 4 + 3 probes) give the
    one-batch MAEs, probe k keyed as sample k either way."""
    rng = np.random.default_rng(4)
    ann = AnnLSTM.random(3, [5, 4], [2], rng, scale=1.5)
    snn = convert(ann, T=3, plan=ConversionPlan("g"), encoding=encoding)
    probes = rng.random((11, 6, 3))
    one_batch = conversion_error_report(ann, snn, probes, T=3, rng_seed=2)
    # the package's `convert` attribute is the function; the module is in sys.modules
    monkeypatch.setattr(importlib.import_module("spikelstm.convert"), "EVAL_CHUNK", 4)
    chunked = conversion_error_report(ann, snn, probes, T=3, rng_seed=2)
    keys = [(r["layer"], r["gate"]) for r in one_batch]
    assert [(r["layer"], r["gate"]) for r in chunked] == keys
    assert all(r["mae"] > 0 for r in one_batch)
    for ours, theirs in zip(chunked, one_batch):
        assert ours["mae"] == pytest.approx(theirs["mae"], rel=1e-12)


@pytest.mark.parametrize("plan", ["g", "i"])
def test_error_report_replay_passes_move_no_bit(monkeypatch, plan):
    """A report whose tapes replay their 7 elements in one pass, in passes
    of one element and in passes of three (3 + 3 + 1) gives the same MAE
    bits."""
    rng = np.random.default_rng(5)
    ann = AnnLSTM.random(3, [5, 4], [2], rng, scale=1.5)
    snn = convert(ann, T=3, plan=ConversionPlan(plan))
    probes = rng.random((6, 7, 3))
    runs = []
    for span in (7, 1, 3):
        monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", span * 3 * 6 * 5)
        runs.append(conversion_error_report(ann, snn, probes, T=3, rng_seed=1))
    assert all(r["mae"] > 0 for r in runs[0])
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_error_report_memory_falls_with_the_tape():
    """At 64 probes (N 28, T 4, H 64, one layer) a report peaks (by
    tracemalloc) below 16 [N, T, P, H] lattices: the tape's 7.2, the ANN's
    caches and the per-gate rates, and a replay of one element at a time.
    Replaying the whole lattice with Upre peaks at about 25."""
    rng = np.random.default_rng(6)
    n_elements, T, probes, hidden = 28, 4, 64, 64
    ann = AnnLSTM.random(3, [hidden], [3], rng, scale=0.5)
    snn = convert(ann, T=T)
    X = rng.random((probes, n_elements, 3))
    conversion_error_report(ann, snn, X, T=T)  # warm the caches
    tracemalloc.start()
    try:
        conversion_error_report(ann, snn, X, T=T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n_elements * T * probes * hidden * X.itemsize


def test_convert_of_a_float32_ann_builds_float32_lif_fields():
    """convert builds the LIF fields at the weights' dtype, so rebinding a
    weight to its own value passes set_parameters' dtype check; a cell whose
    LIF fields are at another dtype than its weights raises ValidationError
    naming the gate and field."""
    ann = AnnLSTM.random(3, [4], [2], np.random.default_rng(0))
    cast_parameters(ann, np.float32)
    snn = convert(ann, T=2, plan=ConversionPlan("g"))
    assert {v.dtype for v in model_parameters(snn).values()} == {np.dtype(np.float32)}
    cell = snn.cells[0]
    set_parameters(snn, {"cells.0.w_x.f": cell.weights.w_x["f"]})
    f64_params = default_gate_params(cell.plan, cell.act, 4)
    with pytest.raises(ValidationError, match="gate 'f' leak must be a float array of shape "
                                              r"\[4\] at the weights' float32"):
        SpikingLSTMCell(weights=cell.weights, gate_params=f64_params, plan=cell.plan,
                        act=cell.act)
