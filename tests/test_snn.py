import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from spikelstm.activations import HardActConfig
from spikelstm.convert import convert
from spikelstm.encoding import encode_sequence
from spikelstm.energy import LayerSpikeStats, count_ops_snn
from spikelstm.errors import MultiplierAuditError, NumericalFault, ValidationError
from spikelstm.lstm import GATES, AnnLSTM, ann_batch_forward
import spikelstm.snn as snn_module
from spikelstm.snn import (CellStepState, ConversionPlan, SpikingLSTM, SpikingLSTMCell,
                           default_gate_params, snn_batch_forward, snn_cell_step, snn_forward)
from spikelstm.train import cast_parameters, evaluate, model_parameters, set_parameters
from spikelstm.verify import per_step_reference

from conftest import flat_replay, one_unit_cell, random_snn, tape_arrays, zero_weights

CFG = HardActConfig()


def _sample_layers(stats, b):
    """Sample b's per-layer slices of a batched run's SpikeStats, as the
    one-sample LayerSpikeStats a run of that sample alone records."""
    return [LayerSpikeStats(s.units, s.fan_in, s.input_analog, s.input_nnz[b:b + 1],
                            s.hidden_nnz[b:b + 1],
                            {g: v[b:b + 1] for g, v in s.gate_spikes.items()})
            for s in stats.layers]


def _assert_sample_equals(stats, b, alone):
    assert stats.encoding == alone.encoding
    assert _sample_layers(stats, b) == alone.layers


def test_plan_validation():
    assert ConversionPlan("i").spiking_gates == ("f", "g", "o", "c")
    assert ConversionPlan("g").spiking_gates == ("f", "i", "o", "c")
    with pytest.raises(ValidationError):
        ConversionPlan("f")


def test_cell_rejects_mismatched_gate_params():
    plan = ConversionPlan("i")
    params = default_gate_params(ConversionPlan("g"), CFG, 1)
    with pytest.raises(ValidationError):
        SpikingLSTMCell(weights=zero_weights(1, 1), gate_params=params, plan=plan, act=CFG)


@pytest.mark.parametrize("field, value", [
    ("leak", 1.0),  # a scalar
    ("mem_init", np.zeros(2)),  # one value short
    ("threshold_pos", np.ones(3, np.int64)),  # not a float array
    ("threshold_neg", [-1.0, -1.0, -1.0]),  # not an array
])
def test_cell_takes_only_per_unit_lif_fields(field, value):
    """A set LIF field that is not a float array of shape [H] raises
    ValidationError naming the gate and the field, where the cell is
    built, not later in snapshot_parameters or snn_backward."""
    plan = ConversionPlan("g")
    params = default_gate_params(plan, CFG, 3)
    params["c"] = dataclasses.replace(params["c"], **{field: value})
    with pytest.raises(ValidationError, match=f"gate 'c' {field} must be a float array"):
        SpikingLSTMCell(weights=zero_weights(2, 3), gate_params=params, plan=plan, act=CFG)


def test_a_lif_field_rebound_after_construction_reaches_no_forward_or_checkpoint(tmp_path):
    """The forward's pack and save_model run the cell's field check, so a
    scalar bound after construction raises ValidationError naming the gate
    and field, and save_model raises before it opens the file."""
    from spikelstm.checkpoint import save_model

    model = random_snn(3, [4], [3], np.random.default_rng(0))
    model.cells[0].gate_params["f"].leak = 0.9
    with pytest.raises(ValidationError, match="gate 'f' leak"):
        snn_batch_forward(model, np.zeros((2, 5, 3)), 2, "direct", 0)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValidationError, match="gate 'f' leak"):
        save_model(model, str(path))
    assert not path.exists()


@pytest.mark.parametrize("plan, act, name", [("g", CFG, "plan"),
                                             ("i", HardActConfig(v_sig=2.0), "act")])
def test_model_rejects_layers_that_differ_in_plan_or_act(plan, act, name):
    """A checkpoint stores one plan and one act, so every layer must share
    layer 0's."""
    ann = AnnLSTM.random(2, [3, 3], [2], np.random.default_rng(0))
    base = convert(ann, T=2)
    other = convert(AnnLSTM(ann.layers, ann.head, act), T=2, plan=ConversionPlan(plan))
    with pytest.raises(ValidationError, match=f"layer 1: {name} differs from layer 0's"):
        SpikingLSTM(cells=[base.cells[0], other.cells[1]], head=base.head, time_steps=2)


def test_zero_input_with_converted_defaults_spikes_on_second_step():
    # converted defaults carry mem_init = v_sig/2: the f/o pattern over T=2 is [0,1]
    cell = one_unit_cell(shift=True)
    state = CellStepState.fresh(cell)
    patterns = []
    for _ in range(2):
        rec = {}
        h, _ = snn_cell_step(cell, state, np.zeros(1), np.zeros(1), np.zeros(1), record=rec)
        patterns.append((rec["f"][0], rec["o"][0]))
        assert h[0] == 0.0  # zero cell drive keeps s_c at 0
    assert patterns == [(0.0, 0.0), (1.0, 1.0)]


def test_zero_input_without_shift_stays_silent_two_steps():
    cell = one_unit_cell(shift=False)
    state = CellStepState.fresh(cell)
    for _ in range(2):
        rec = {}
        snn_cell_step(cell, state, np.zeros(1), np.zeros(1), np.zeros(1), record=rec)
        assert rec["f"][0] == 0.0 and rec["o"][0] == 0.0


def test_forget_mask_semantics():
    """f spike 0 at a step means c_in contributes nothing at that step."""
    cell = one_unit_cell(shift=False)
    state = CellStepState.fresh(cell)
    rec = {}
    _, c_out = snn_cell_step(cell, state, np.zeros(1), np.zeros(1), np.array([5.0]), record=rec)
    assert rec["f"][0] == 0.0
    assert c_out[0] == 0.0


def test_forget_gate_hand_trace():
    cell = one_unit_cell(shift=False, w_fx=5.0)
    state = CellStepState.fresh(cell)
    rec = {}
    snn_cell_step(cell, state, np.array([1.0]), np.zeros(1), np.zeros(1), record=rec)
    assert rec["f"][0] == 1.0                      # U = 5 + 2 = 7 > 4
    assert state.membranes["f"].membrane[0] == 3.0  # soft reset 7 - 4


def test_multi_bit_input_rejected_when_spikes_required():
    cell = one_unit_cell(shift=False)
    state = CellStepState.fresh(cell)
    with pytest.raises(MultiplierAuditError):
        snn_cell_step(cell, state, np.array([0.7]), np.zeros(1), np.zeros(1), x_is_spikes=True)
    with pytest.raises(MultiplierAuditError):
        snn_cell_step(cell, state, np.array([1.0]), np.array([0.5]), np.zeros(1))


def test_forward_single_step_composes_cell():
    rng = np.random.default_rng(2)
    model = random_snn(2, [3], [2], rng, time_steps=1, scale=1.0)
    seq = rng.random((1, 2))
    logits, stats, ops = snn_forward(model, seq)
    cell = model.cells[0]
    state = CellStepState.fresh(cell)
    h, _ = snn_cell_step(cell, state, seq[0], np.zeros(3), np.zeros(3), x_is_spikes=False)
    np.testing.assert_array_equal(logits, model.head.forward(h))


def test_forward_poisson_determinism():
    rng = np.random.default_rng(4)
    model = random_snn(3, [4], [3], rng, time_steps=3, encoding="poisson", scale=2.0)
    seq = rng.random((5, 3))
    a = snn_forward(model, seq, rng_seed=42)
    b = snn_forward(model, seq, rng_seed=42)
    c = snn_forward(model, seq, rng_seed=43)
    np.testing.assert_array_equal(a[0], b[0])
    assert a[2].accumulates == b[2].accumulates
    assert a[1].layers[0].input_nnz.sum() != c[1].layers[0].input_nnz.sum()  # different encodings


def test_hidden_alphabet_is_ternary():
    rng = np.random.default_rng(8)
    for plan in ("i", "g"):
        model = random_snn(3, [4, 3], [2], rng, plan=ConversionPlan(plan),
                           time_steps=4, scale=1.5)
        seq = rng.random((6, 3))
        # second layer consumes first-layer spikes: alphabet enforced in-step
        logits, stats, ops = snn_forward(model, seq)
        assert np.isfinite(logits).all()


def test_large_t_rates_converge_to_ann_gates():
    """1-unit converted cell at constant input: f/i/o rates within 2/T of the
    hard-sigmoid gate values at T=256."""
    rng = np.random.default_rng(0)
    ann = AnnLSTM.random(1, [1], [2], rng, scale=1.0)
    snn = convert(ann, T=256, plan=ConversionPlan("g"))
    x = np.array([[[0.6]]])
    _, caches = ann_batch_forward(ann, x, want_caches=True)
    f, i, _, o, _ = caches["layers"][0]["gates"][0]
    _, tapes, _ = snn_batch_forward(snn, x, 256, "direct", 0, want_tapes=True)
    replayed = flat_replay(tapes[0].replay(), snn.plan.bank_gates)
    rates = {gate: replayed["S_pos", gate][0].mean() for gate in ("f", "i", "o")}
    for gate, ann_gate in (("f", f), ("i", i), ("o", o)):
        assert abs(ann_gate[0, 0] - rates[gate]) <= 2.0 / 256.0


def test_forward_stats_geometry():
    rng = np.random.default_rng(9)
    model = random_snn(2, [3], [2], rng, time_steps=2, scale=1.5)
    seq = rng.random((4, 2))
    _, stats, ops = snn_forward(model, seq)
    assert stats.shape == (1, 4, 2)
    layer = stats.layers[0]
    assert layer.input_nnz.shape == layer.hidden_nnz.shape == (1, 4, 2)
    assert set(layer.gate_spikes) == {"f", "g", "o", "c"}
    assert all(v.shape == (1,) for v in layer.gate_spikes.values())
    assert ops.layers[0].macs == 4 * 3 * 2 * 4  # direct input projection, once per element


@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_batch_stats_split_into_per_sample_stats(encoding):
    """Sample b's share of a batched run's counts equals sample b run alone."""
    rng = np.random.default_rng(12)
    model = random_snn(3, [5, 4], [2], rng, plan=ConversionPlan("g"), time_steps=3,
                       encoding=encoding, scale=2.0)
    for cell in model.cells:
        cell.weights.b["o"] += 3.0
    X = rng.random((9, 6, 3))
    _, _, aux = snn_batch_forward(model, X, 3, encoding, seed=4, first_index=2)
    assert aux["stats"].shape == (9, 6, 3)
    for b in range(9):
        _, alone, _ = snn_forward(model, X[b], rng_seed=4, first_index=2 + b)
        _assert_sample_equals(aux["stats"], b, alone)
    assert aux["stats"].layers[-1].hidden_nnz_total > 0


@pytest.mark.parametrize("plan", ["g", "i"])
@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_batched_logits_equal_streamed_ones(plan, encoding):
    """Every row of a B=43 batch, at f64 and f32, with a one- and a
    two-layer head: the logits equal snn_forward's for that sample, bit for
    bit, whatever the batch size."""
    for dtype, head in itertools.product((np.float64, np.float32), ([3], [6, 3])):
        rng = np.random.default_rng(17)
        model = random_snn(4, [23, 11], head, rng, plan=ConversionPlan(plan),
                           time_steps=3, encoding=encoding, scale=1.5)
        for cell in model.cells:
            for gate in ("f", "i", "o"):
                cell.weights.b[gate] += 1.0
        cast_parameters(model, dtype)
        X = rng.random((43, 5, 4))
        logits, _, aux = snn_batch_forward(model, X, 3, encoding, seed=6)
        assert aux["stats"].layers[-1].hidden_nnz_total > 0
        for b in range(len(X)):
            np.testing.assert_array_equal(
                logits[b], snn_forward(model, X[b], rng_seed=6, first_index=b)[0])


def _orders_model(encoding):
    """Two layers wide enough that a batch of under a hundred exceeds the
    wavefront budget, with open f/i/o gates so both layers spike."""
    rng = np.random.default_rng(13)
    model = random_snn(3, [64, 48], [3], rng, plan=ConversionPlan("g"), time_steps=4,
                       encoding=encoding, scale=0.5)
    for cell in model.cells:
        for gate in ("f", "i", "o"):
            cell.weights.b[gate] += 3.0
        for params in cell.gate_params.values():
            params.leak = params.leak * rng.uniform(0.8, 1.2, params.leak.shape)
    return model


def _batch_sizes(model):
    """One batch size whose every layer runs by anti-diagonals, one whose
    every layer runs in element order."""
    T = model.time_steps
    above = snn_module.WAVEFRONT_BUDGET // (T * min(model.hidden_dims)) + 1
    assert 2 * T * max(model.hidden_dims) <= snn_module.WAVEFRONT_BUDGET
    return 2, above


def test_both_loop_orders_match_the_per_step_oracle():
    """Every sample of a batch below the wavefront budget and of one above
    it: logits and per-(n, tau) counts equal the per-step oracle's."""
    model = _orders_model("direct")
    X = np.random.default_rng(14).random((max(_batch_sizes(model)), 5, 3))
    for batch in _batch_sizes(model):
        logits, _, aux = snn_batch_forward(model, X[:batch], 4, "direct", seed=3)
        assert aux["stats"].layers[-1].hidden_nnz_total > 0
        for b in range(batch):
            ref_logits, ref_stats, _ = per_step_reference(model, X[b])
            np.testing.assert_array_equal(logits[b], ref_logits)
            _assert_sample_equals(aux["stats"], b, ref_stats)


@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_both_loop_orders_agree_taped_and_untaped(encoding):
    """Taped and untaped runs give the same logits and SpikeStats in either
    loop order, and the orders agree on the samples they share."""
    model = _orders_model(encoding)
    small, large = _batch_sizes(model)
    X = np.random.default_rng(15).random((large, 5, 3))
    runs = {}
    for batch in (small, large):
        for want_tapes in (False, True):
            logits, _, aux = snn_batch_forward(model, X[:batch], 4, encoding, seed=8,
                                               want_tapes=want_tapes)
            runs[batch, want_tapes] = logits, aux["stats"], aux["head_cache"][0]
        np.testing.assert_array_equal(runs[batch, False][0], runs[batch, True][0])
        assert runs[batch, False][1] == runs[batch, True][1]
    np.testing.assert_array_equal(runs[small, False][2], runs[large, False][2][:small])
    for b in range(small):
        assert (_sample_layers(runs[small, False][1], b)
                == _sample_layers(runs[large, False][1], b))


@pytest.mark.parametrize("plan", ["g", "i"])
@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_packed_block_matches_the_per_step_oracle_in_every_mode(monkeypatch, plan, encoding):
    """Plan g (no ternary slot in the LIF bank) and plan i, an odd width,
    both encodings, f64 and f32; taped and untaped, by anti-diagonals and in
    element order. Hard spikes: every sample's per-(n, tau) counts and
    logits equal the per-step oracle's. Relaxed spikes, which the oracle
    does not model: the four runs give the same logits and per-(n, tau)
    counts, and taped and untaped runs the same SpikeStats."""
    rng = np.random.default_rng(16)
    model = random_snn(3, [37, 21], [3], rng, plan=ConversionPlan(plan), time_steps=3,
                       encoding=encoding, scale=1.5)
    for cell in model.cells:
        for gate in ("f", "i", "o"):
            cell.weights.b[gate] += 1.0
        for params in cell.gate_params.values():
            params.leak = params.leak * rng.uniform(0.8, 1.2, params.leak.shape)
        cell.gate_params["c"].threshold_neg = cell.gate_params["c"].threshold_neg * 0.2
    X = rng.random((3, 5, 3))
    walks = (("wavefront", snn_module.WAVEFRONT_BUDGET), ("elements", 0))
    for dtype, relaxed in itertools.product((np.float64, np.float32), (False, True)):
        cast_parameters(model, dtype)
        runs = {}
        for walk, budget in walks:
            monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", budget)
            for want_tapes in (False, True):
                logits, _, aux = snn_batch_forward(model, X, 3, encoding, seed=5,
                                                   relaxed=relaxed, want_tapes=want_tapes)
                runs[walk, want_tapes] = logits, aux["stats"]
        first_logits, first_stats = runs["wavefront", False]
        assert first_logits.dtype == dtype
        assert first_stats.layers[-1].hidden_nnz_total > 0
        for (walk, want_tapes), (logits, stats) in runs.items():
            np.testing.assert_array_equal(logits, first_logits)
            for ours, theirs in zip(stats.layers, first_stats.layers):
                np.testing.assert_array_equal(ours.hidden_nnz, theirs.hidden_nnz)
                np.testing.assert_array_equal(ours.input_nnz, theirs.input_nnz)
            assert stats == runs[walk, not want_tapes][1]
            for b in range(len(X) * (not relaxed)):
                ref_logits, ref_stats, _ = per_step_reference(model, X[b], rng_seed=5,
                                                              first_index=b)
                np.testing.assert_array_equal(logits[b], ref_logits)
                _assert_sample_equals(stats, b, ref_stats)


def test_packed_parameters_are_never_stale():
    """A forward after an in-place update (as Adam.step makes), after a
    rebind through set_parameters and after an f32 cast gives the logits
    and SpikeStats of a freshly built model holding the same parameters."""
    rng = np.random.default_rng(18)

    def build():
        return random_snn(3, [9, 5], [3], np.random.default_rng(19),
                          plan=ConversionPlan("i"), time_steps=3, scale=1.0)

    def forward(model, dtype=np.float64):
        logits, _, aux = snn_batch_forward(model, X.astype(dtype), 3, "direct", seed=2)
        return logits, aux["stats"]

    def assert_fresh(model, dtype=np.float64):
        fresh = build()
        set_parameters(fresh, {k: v.copy() for k, v in model_parameters(model).items()})
        ours, theirs = forward(model, dtype), forward(fresh, dtype)
        np.testing.assert_array_equal(ours[0], theirs[0])
        assert ours[1] == theirs[1]
        return ours[0]

    model = build()
    X = rng.random((4, 6, 3))
    before = forward(model)[0]
    for p in model_parameters(model).values():
        p -= 0.05 * rng.random(p.shape)
    after_in_place = assert_fresh(model)
    assert not np.array_equal(after_in_place, before)
    set_parameters(model, {k: v + 0.05 * rng.random(v.shape)
                           for k, v in model_parameters(model).items()})
    assert not np.array_equal(assert_fresh(model), after_in_place)
    cast_parameters(model, np.float32)
    assert assert_fresh(model, np.float32).dtype == np.float32


@pytest.mark.parametrize("gate", ["o", "c"])  # a bank neuron and the c neuron
@pytest.mark.parametrize("walk", ["wavefront", "cells"])
def test_forward_rejects_non_finite_membrane(monkeypatch, gate, walk):
    rng = np.random.default_rng(10)
    model = random_snn(2, [3], [2], rng, time_steps=2, scale=1.0)
    model.cells[0].gate_params[gate].step_bias = np.array([0.0, np.inf, 0.0])
    seq = rng.random((3, 2))
    if walk == "cells":  # in element order rather than by anti-diagonals
        monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", 0)
    with pytest.raises(NumericalFault, match=f"gate {gate}, sample 0, unit 1$"):
        snn_forward(model, seq)


@pytest.mark.parametrize("walk", ["wavefront", "cells"])
def test_each_element_end_makes_one_finite_check(monkeypatch, walk):
    """The four neurons' post-reset membranes are one slot-major array, so
    each element's end checks them with one _check_finite call, over
    [4, B, H], under either walk."""
    rng = np.random.default_rng(10)
    model = random_snn(2, [3, 4], [2], rng, time_steps=3, scale=1.0)
    check, calls = snn_module._check_finite, []

    def counted(membrane, gates):
        calls.append((membrane.shape, gates))
        check(membrane, gates)

    monkeypatch.setattr(snn_module, "_check_finite", counted)
    if walk == "cells":
        monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", 0)
    snn_batch_forward(model, rng.random((2, 5, 2)), 3, "direct", seed=0)
    gates = model.plan.bank_gates
    assert calls == [((4, 2, 3), gates)] * 5 + [((4, 2, 4), gates)] * 5


def test_forward_rejects_multi_bit_spike_input(monkeypatch):
    rng = np.random.default_rng(11)
    model = random_snn(2, [3], [2], rng, time_steps=2, encoding="poisson")
    monkeypatch.setattr(snn_module, "encode_sequence",
                        lambda X, T, *args: np.full(X.shape[:2] + (T,) + X.shape[2:], 0.5))
    seq = rng.random((3, 2))
    for budget in (snn_module.WAVEFRONT_BUDGET, 0):  # by anti-diagonals, then in element order
        monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", budget)
        with pytest.raises(MultiplierAuditError):
            snn_forward(model, seq)


def _chunk_sizes(rng, total):
    """Random chunk sizes that sum to total, one of them 1."""
    sizes = [1]
    while sum(sizes) < total:
        sizes.append(int(rng.integers(1, total - sum(sizes) + 1)))
    return rng.permutation(sizes)


def _assert_rows(full, part, lo, axis, what):
    """part's bytes equal those of full's rows lo.. along axis."""
    rows = np.take(full, range(lo, lo + part.shape[axis]), axis=axis)
    assert rows.tobytes() == np.ascontiguousarray(part).tobytes(), what


def _assert_bits(ours, theirs):
    assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
    assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("plan", ["g", "i"])
@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_chunked_runs_equal_the_unsplit_run_entry_for_entry(monkeypatch, dtype, plan, encoding):
    """A batch run in random chunks (a chunk of 1 included, each by
    anti-diagonals) against the unsplit run in element order, at widths 3,
    10, 33 and 60: every SNN tape lattice and replayed array, Hp, Cp and the
    logits, and every ANN cache, logit and head input, byte for byte."""
    rng = np.random.default_rng({"g": 30, "i": 31}[plan] + 2 * (encoding == "poisson"))
    batch, n_elements, T, feats = 12, 4, 3, 7
    X = rng.random((batch, n_elements, feats))
    for width in (3, 10, 33, 60):
        model = random_snn(feats, [width, width], [3], rng, plan=ConversionPlan(plan),
                           time_steps=T, encoding=encoding, scale=1.5)
        for cell in model.cells:
            for gate in ("f", "i", "o"):
                cell.weights.b[gate] += 3.0
            c = cell.gate_params["c"]  # a c neuron that spikes even at width 3
            c.threshold_pos, c.threshold_neg = 0.3 * c.threshold_pos, 0.3 * c.threshold_neg
        ann = AnnLSTM.random(feats, [width, width], [3], rng, scale=0.8)
        cast_parameters(model, dtype)
        cast_parameters(ann, dtype)
        monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", 0)
        logits, tapes, aux = snn_batch_forward(model, X, T, encoding, seed=9, want_tapes=True)
        assert all(layer.hidden_nnz_total > 0 for layer in aux["stats"].layers)
        ann_logits, caches = ann_batch_forward(ann, X, want_caches=True)
        monkeypatch.undo()
        lo = 0
        for size in _chunk_sizes(rng, batch):
            part, part_tapes, _ = snn_batch_forward(model, X[lo:lo + size], T, encoding, seed=9,
                                                    want_tapes=True, first_index=lo)
            _assert_rows(logits, part, lo, 0, "SNN logits")
            for li, (tape, part_tape) in enumerate(zip(tapes, part_tapes)):
                part_arrays = tape_arrays(part_tape)
                for key, lattice in tape_arrays(tape).items():
                    _assert_rows(lattice, part_arrays[key], lo, -2, (width, li, key))
                _assert_rows(tape.Hp, part_tape.Hp, lo, -2, (width, li, "Hp"))
                _assert_rows(tape.Cp, part_tape.Cp, lo, -2, (width, li, "Cp"))
            part, part_caches = ann_batch_forward(ann, X[lo:lo + size], want_caches=True)
            _assert_rows(ann_logits, part, lo, 0, "ANN logits")
            for ours, theirs in zip(caches["head"], part_caches["head"]):
                _assert_rows(ours, theirs, lo, 0, "ANN head input")
            for li, (cache, part_cache) in enumerate(zip(caches["layers"], part_caches["layers"])):
                for key in ("gates", "c", "h", "z"):
                    for n, (ours, theirs) in enumerate(zip(cache[key], part_cache[key])):
                        _assert_rows(np.asarray(ours), np.asarray(theirs), lo, -2,
                                     (width, li, key, n))
            lo += size


@pytest.mark.parametrize("plan", ["g", "i"])
@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_oracle_cell_equals_the_batch_tape_on_membranes_and_cell_values(monkeypatch, plan,
                                                                        encoding):
    """snn_cell_step run per sample against a B=7 taped batch, at f64 and
    f32: the membranes entering each step equal the tape's replayed Upre
    rows, the spikes each neuron emits and the analog activation (its
    record) the replayed S_pos - S_neg and A_analog rows, and c_out and
    h_out the tape's Cp and Hp rows, bit for bit. A slice's replay, and
    replay_backwards's elements (as snn_backward reads them: in passes of
    one element, of three and of all four), are the whole replay's rows."""
    rng = np.random.default_rng(40 + (plan == "i") + 2 * (encoding == "poisson"))
    T = 3
    model = random_snn(5, [33, 10], [3], rng, plan=ConversionPlan(plan), time_steps=T,
                       encoding=encoding, scale=1.5)
    for cell in model.cells:
        for gate in ("f", "i", "o"):
            cell.weights.b[gate] += 1.0
        for params in cell.gate_params.values():
            params.leak = params.leak * rng.uniform(0.8, 1.2, params.leak.shape)
    X = rng.random((7, 4, 5))
    for dtype in (np.float64, np.float32):
        cast_parameters(model, dtype)
        _, tapes, aux = snn_batch_forward(model, X, T, encoding, seed=2, want_tapes=True)
        assert aux["stats"].layers[-1].hidden_nnz_total > 0
        replays = [tape.replay(upre=True) for tape in tapes]
        for tape, whole in zip(tapes, replays):
            gates = tape.pack.bank_gates
            whole = flat_replay(whole, gates)
            for key, part in flat_replay(tape.replay(slice(1, 3), upre=True), gates).items():
                _assert_bits(part, whole[key][1:3])
            for span in (1, 3, X.shape[1]):
                monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", span * tape.H[0].size)
                elements = list(tape.replay_backwards())
                assert [n for n, _ in elements] == list(range(X.shape[1] - 1, -1, -1))
                for n, replayed in elements:
                    for key, part in flat_replay(replayed, gates).items():
                        _assert_bits(part, whole[key][n])
            monkeypatch.undo()
        for b in range(len(X)):
            below = aux["encoded"][b]  # [N, T, F]
            for li, (cell, tape, replayed) in enumerate(zip(model.cells, tapes, replays)):
                replayed = flat_replay(replayed, cell.plan.bank_gates)
                h = np.zeros((T, cell.hidden_dim), dtype)
                c = np.zeros_like(h)
                for n in range(len(below)):
                    state = CellStepState.fresh(cell)
                    for t in range(T):
                        for gate, neuron in state.membranes.items():
                            _assert_bits(neuron.membrane, replayed["Upre", gate][n, t, b])
                        record = {}
                        h[t], c[t] = snn_cell_step(cell, state, below[n, t], h[t], c[t],
                                                   x_is_spikes=li > 0 or encoding != "direct",
                                                   record=record)
                        for gate in cell.plan.spiking_gates:
                            emitted = replayed["S_pos", gate][n, t, b]
                            if ("S_neg", gate) in replayed:
                                emitted = emitted - replayed["S_neg", gate][n, t, b]
                            _assert_bits(record[gate], emitted)
                        _assert_bits(record[cell.plan.analog_gate],
                                     replayed["A_analog", None][n, t, b])
                        np.testing.assert_array_equal(c[t], tape.Cp[n + 1, t, b])
                        np.testing.assert_array_equal(h[t], tape.Hp[n + 1, t, b])
                below = tape.H[:, :, b]


@pytest.mark.parametrize("plan", ["g", "i"])
def test_replay_reads_the_parameters_the_forward_ran_with(plan):
    """Changing every leak, threshold, step bias, mem_init and gamma after a
    taped forward, in place or by rebinding, leaves its replay unchanged;
    a new forward's replay does change."""
    rng = np.random.default_rng(47)
    model = random_snn(3, [6, 5], [3], rng, plan=ConversionPlan(plan), time_steps=3, scale=1.5)
    X = rng.random((4, 5, 3))
    _, tapes, _ = snn_batch_forward(model, X, 3, "direct", seed=0, relaxed=True, want_tapes=True)
    before = [_bits(tape.replay(upre=True)) for tape in tapes]
    for cell in model.cells:
        for params in cell.gate_params.values():
            params.leak *= 0.5
            params.threshold_pos = 2.0 * params.threshold_pos
            if params.is_ternary:
                params.threshold_neg *= 0.5
            params.step_bias += 0.25
            params.mem_init = params.mem_init - 0.125
            params.surrogate_gamma = 0.7
    assert [_bits(tape.replay(upre=True)) for tape in tapes] == before
    _, fresh, _ = snn_batch_forward(model, X, 3, "direct", seed=0, relaxed=True, want_tapes=True)
    assert [_bits(tape.replay(upre=True)) for tape in fresh] != before


@pytest.mark.parametrize("plan", ["g", "i"])
def test_a_tape_holds_four_membrane_lattices_p_analog_hp_and_cp(plan):
    """The arrays a taped layer holds besides its parameter pack, views
    resolved to their base, add up to V's four lattices, P_analog, and Hp
    and Cp, one zero element longer; and the zero elements are zero."""
    rng = np.random.default_rng(48)
    batch, n_elements, T, feats = 5, 6, 3, 4
    model = random_snn(feats, [7, 9], [3], rng, plan=ConversionPlan(plan), time_steps=T,
                       scale=1.5)
    X = rng.random((batch, n_elements, feats))
    _, tapes, _ = snn_batch_forward(model, X, T, "direct", seed=0, want_tapes=True)
    for cell, tape in zip(model.cells, tapes):
        bases = {}
        for value in vars(tape).values():
            for a in (value.values() if isinstance(value, dict) else [value]):
                if isinstance(a, np.ndarray):
                    while a.base is not None:
                        a = a.base
                    bases[id(a)] = a
        lattice = n_elements * T * batch * cell.hidden_dim * X.itemsize
        assert sum(a.nbytes for a in bases.values()) == (
            5 * lattice + 2 * (n_elements + 1) * lattice // n_elements)
        assert not tape.Hp[0].any() and not tape.Cp[0].any()


def _bits(value):
    """value with every array as (dtype, shape, bytes), recursively, so
    that == compares bit for bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _tiled(monkeypatch, model, X, rows):
    """Untaped forwards from now on run X in tiles of `rows` rows."""
    budget = rows * X.shape[1] * model.time_steps * max(model.hidden_dims)
    monkeypatch.setattr(snn_module, "LATTICE_BUDGET", budget)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("encoding", ["direct", "poisson"])
def test_tiles_change_no_bit(monkeypatch, dtype, encoding):
    """An untaped batch of 7 from first_index 5, in tiles of 1, of 3 + 3 + 1
    and as one tile, by anti-diagonals and in element order: the logits,
    SpikeStats, head cache, count_ops_snn and evaluate's triple are the
    same bits, and equal a taped run's, which stays one tile."""
    model = _orders_model(encoding)
    cast_parameters(model, dtype)
    T = model.time_steps
    rng = np.random.default_rng(44)
    X = rng.random((7, 5, 3)).astype(dtype)
    y = rng.integers(0, 3, 7)
    layer_forward, batches = snn_module._layer_forward, []

    def spy(cell, x_feed, *args, **kwargs):
        batches.append(x_feed.shape[0])
        return layer_forward(cell, x_feed, *args, **kwargs)

    monkeypatch.setattr(snn_module, "_layer_forward", spy)
    runs = {}
    tiles = {1: [1] * 7, 3: [3, 3, 1], 7: [7]}
    for (rows, split), walk in itertools.product(tiles.items(),
                                                 (snn_module.WAVEFRONT_BUDGET, 0)):
        monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", walk)
        _tiled(monkeypatch, model, X, rows)
        for want_tapes in (False, True):
            batches.clear()
            logits, _, aux = snn_batch_forward(model, X, T, encoding, seed=6,
                                               want_tapes=want_tapes, first_index=5)
            assert batches == [b for b in ([7] if want_tapes else split) for _ in model.cells]
            assert logits.dtype == dtype
            if want_tapes:  # the encoded input only of a taped run, which is one tile
                _assert_bits(aux["encoded"], encode_sequence(X, T, encoding, 6, 5))
            else:
                assert "encoded" not in aux
            assert aux["stats"].layers[-1].hidden_nnz_total > 0
            runs[rows, walk, want_tapes] = _bits(
                [logits, aux["stats"], aux["head_cache"], count_ops_snn(aux["stats"], model)])
        runs[rows, walk, "evaluate"] = evaluate(model, X, y, seed=6)
    first = runs[7, snn_module.WAVEFRONT_BUDGET, False]
    for (rows, walk, kind), run in runs.items():
        assert run == (runs[7, snn_module.WAVEFRONT_BUDGET, "evaluate"]
                       if kind == "evaluate" else first), (rows, walk, kind)


def _forward_peak(model, X, T):
    """tracemalloc's peak over an untaped direct forward of X, after one
    run that warms the caches."""
    snn_batch_forward(model, X, T, "direct", seed=0)
    tracemalloc.start()
    try:
        snn_batch_forward(model, X, T, "direct", seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_untaped_forward_memory_does_not_grow_with_the_batch(monkeypatch):
    """With tiles of 8 rows, an untaped forward of 32 rows peaks (by
    tracemalloc) within half of one tile's hidden lattice of an 8-row
    forward's peak; the growth is the [B, N, T] spike counts. An untiled
    forward grows by about 15 lattices here."""
    rng = np.random.default_rng(45)
    n_elements, T, rows, hidden, feats = 10, 4, 8, 64, 2
    model = random_snn(feats, [hidden, hidden], [3], rng, time_steps=T, scale=0.5)
    X = rng.random((4 * rows, n_elements, feats))
    _tiled(monkeypatch, model, X, rows)
    lattice = (n_elements + 1) * T * rows * hidden * X.itemsize
    assert _forward_peak(model, X, T) - _forward_peak(model, X[:rows], T) < lattice // 2


def test_untaped_forward_holds_one_tile_in_flight(monkeypatch):
    """A one-layer forward in 4 tiles peaks (by tracemalloc) within half a
    hidden lattice of its one-tile peak: no tile's lattice or encoded input
    outlives the tile. Keeping the previous tile's lattice while the next
    one's is made, with the whole batch encoded up front, adds one lattice
    and three tiles of input (of 32 features here)."""
    rng = np.random.default_rng(49)
    n_elements, T, rows, hidden, feats = 10, 4, 8, 64, 32
    model = random_snn(feats, [hidden], [3], rng, time_steps=T, scale=0.5)
    X = rng.random((4 * rows, n_elements, feats))
    _tiled(monkeypatch, model, X, rows)
    lattice = (n_elements + 1) * T * rows * hidden * X.itemsize
    assert _forward_peak(model, X, T) - _forward_peak(model, X[:rows], T) < lattice // 2


def test_untaped_forward_keeps_hidden_spikes_at_one_byte(monkeypatch):
    """A one-layer, one-tile untaped forward peaks (by tracemalloc), less
    its encoded input, below a quarter of one f64 hidden lattice: its hard
    hidden spikes are int8, an eighth, and are counted in cache-sized
    passes. An f64 lattice alone is four quarters."""
    rng = np.random.default_rng(53)
    n_elements, T, rows, hidden, feats = 96, 8, 40, 64, 2
    model = random_snn(feats, [hidden], [3], rng, time_steps=T, scale=0.5)
    X = rng.random((rows, n_elements, feats))
    _tiled(monkeypatch, model, X, rows)
    encoded = encode_sequence(X, T, "direct", 0, 0).nbytes
    lattice = (n_elements + 1) * T * rows * hidden * X.itemsize
    assert _forward_peak(model, X, T) - encoded < lattice // 4


def _negative_zero_model(dtype):
    """A one-layer model whose unit 0 has a silent o gate and a c neuron
    that fires negative at every step, so its hidden output o * (c+ - c-)
    is -0.0 throughout; the other units are a random conversion's."""
    rng = np.random.default_rng(54)
    model = random_snn(3, [4], [3], rng, time_steps=3, scale=1.0)
    w = model.cells[0].weights
    for gate in GATES:
        w.w_x[gate][0] = w.w_h[gate][0] = 0.0
        w.b[gate][0] = 50.0 if gate == "i" else -50.0  # i = 1, g spikes -1, f and o silent
    c = model.cells[0].gate_params["c"]
    c.threshold_neg[0], c.mem_init[0] = -0.1, 0.0  # the drive of -1 crosses it at every step
    cast_parameters(model, dtype)
    return model


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_negative_zero_hidden_spikes_read_out_as_in_the_tape(monkeypatch, dtype):
    """A hidden output of -0.0 (silent o, negative c spike), which an f64
    tape holds and an int8 lattice cannot: the untaped logits, head cache
    and SpikeStats equal the taped run's bit for bit, under both walks and
    in tiles of 1 row and of the batch."""
    model = _negative_zero_model(dtype)
    T = model.time_steps
    X = np.random.default_rng(55).random((3, 4, 3)).astype(dtype)
    _, tapes, _ = snn_batch_forward(model, X, T, "direct", seed=0, want_tapes=True)
    last = tapes[0].H[-1, :, :, 0]
    assert not last.any() and np.signbit(last).all()
    for walk, rows in itertools.product((snn_module.WAVEFRONT_BUDGET, 0), (1, 3)):
        monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", walk)
        _tiled(monkeypatch, model, X, rows)
        runs = []
        for want_tapes in (False, True):
            logits, _, aux = snn_batch_forward(model, X, T, "direct", seed=0,
                                               want_tapes=want_tapes)
            runs.append(_bits([logits, aux["head_cache"], aux["stats"]]))
        assert runs[0] == runs[1], (walk, rows)


def test_forward_rejects_multi_bit_hidden_output(monkeypatch):
    """When the c neuron's spikes are halved, a hard run's hidden output
    o * (c+ - c-) carries +-0.5: taped and untaped runs raise
    MultiplierAuditError naming it, under both walks and in tiles of 1 row
    and of the batch, although an int8 store would truncate 0.5 to 0."""
    rng = np.random.default_rng(56)
    model = _orders_model("direct")
    X = rng.random((3, 5, 3))
    real_spike = snn_module.spike

    def halved_c(V, theta, gamma, relaxed):  # the c pair is the one [2, 1, 1, H] threshold
        s = real_spike(V, theta, gamma, relaxed)
        return s * 0.5 if np.shape(theta)[0] == 2 else s

    monkeypatch.setattr(snn_module, "spike", halved_c)
    for walk, rows in itertools.product((snn_module.WAVEFRONT_BUDGET, 0), (1, 3)):
        monkeypatch.setattr(snn_module, "WAVEFRONT_BUDGET", walk)
        _tiled(monkeypatch, model, X, rows)
        for want_tapes in (False, True):
            with pytest.raises(MultiplierAuditError, match=r"^hidden output .*0\.5"):
                snn_batch_forward(model, X, model.time_steps, "direct", seed=0,
                                  want_tapes=want_tapes)


def test_poisson_range_is_checked_before_any_tile_runs(monkeypatch):
    """A poisson batch whose last row leaves [0, 1] raises ValidationError,
    in tiles of one row, before any layer runs."""
    rng = np.random.default_rng(50)
    model = random_snn(3, [4], [2], rng, time_steps=2, encoding="poisson")
    X = rng.random((5, 4, 3))
    X[-1, -1, -1] = 1.5
    _tiled(monkeypatch, model, X, 1)
    calls = []
    monkeypatch.setattr(snn_module, "_layer_forward", lambda *args, **kwargs: calls.append(1))
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        snn_batch_forward(model, X, 2, "poisson", seed=0)
    assert not calls


@pytest.mark.parametrize("plan", ["g", "i"])
def test_replay_makes_upre_only_when_asked(plan):
    """replay() gives S_pos, S_neg and A_analog; with upre=True it adds
    Upre, and every other array is the same bits."""
    rng = np.random.default_rng(51)
    model = random_snn(3, [5], [2], rng, plan=ConversionPlan(plan), time_steps=3, scale=1.5)
    _, tapes, _ = snn_batch_forward(model, rng.random((4, 5, 3)), 3, "direct", seed=0,
                                    want_tapes=True)
    lean, full = tapes[0].replay(slice(1, 4)), tapes[0].replay(slice(1, 4), upre=True)
    upre = {gate for name, gate in flat_replay(full, model.plan.bank_gates) if name == "Upre"}
    assert set(lean) == {"S_pos", "S_neg", "A_analog"}
    assert set(full) == {"S_pos", "S_neg", "Upre", "A_analog"}
    assert upre == set(model.cells[0].gate_params)
    del full["Upre"]
    assert _bits(lean) == _bits(full)
