import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikelstm.energy import LayerOps, OpCountReport
from spikelstm.errors import ValidationError
from spikelstm.pipeline import build_schedule, latency_report, simulate_pipelined, tick_trace
from spikelstm.snn import ConversionPlan, snn_batch_forward, snn_forward
from spikelstm.train import cast_parameters
from spikelstm.verify import per_step_reference

from conftest import random_snn


def test_schedule_tick_counts():
    assert build_schedule(5, 3).total_ticks == 7
    assert build_schedule(1, 6).total_ticks == 6
    assert build_schedule(9, 1).total_ticks == 9
    with pytest.raises(ValidationError):
        build_schedule(0, 3)


def test_tick_trace_rejects_a_batched_spike_stats():
    """A three-sample SpikeStats is refused, naming its shape, instead of
    being traced as its first sample."""
    rng = np.random.default_rng(1)
    model = random_snn(3, [4], [2], rng, time_steps=2, scale=1.5)
    _, _, aux = snn_batch_forward(model, rng.random((3, 5, 3)), 2, "direct", seed=0)
    with pytest.raises(ValidationError, match=r"\(3, 5, 2\)"):
        tick_trace(model, aux["stats"])
    _, _, aux = snn_batch_forward(model, rng.random((1, 5, 3)), 2, "direct", seed=0)
    assert len(tick_trace(model, aux["stats"])) == 5 + 2 - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 20))
def test_schedule_laws(n, T):
    schedule = build_schedule(n, T)
    assert schedule.total_ticks == n + T - 1
    tick_of = {}
    for tick in range(1, schedule.total_ticks + 1):
        for element in schedule.active_elements(tick):
            step = tick - element + 1
            assert 1 <= step <= T
            assert (element, step) not in tick_of
            tick_of[(element, step)] = tick
    assert len(tick_of) == n * T
    for (element, step), tick in tick_of.items():
        # each block step waits only on values produced one tick earlier
        if step > 1:
            assert tick_of[(element, step - 1)] == tick - 1
        if element > 1:
            assert tick_of[(element - 1, step)] == tick - 1
    profile = schedule.concurrency_profile()
    assert max(profile) == min(n, T)
    assert sum(profile) == n * T


def test_pipelined_equivalence_and_conservation():
    rng = np.random.default_rng(0)
    model = random_snn(3, [4, 3], [2], rng, time_steps=4, scale=1.5)
    seq = rng.random((6, 3))
    logits_seq, _, ops = snn_forward(model, seq, rng_seed=11)
    logits_pipe, trace = simulate_pipelined(model, seq, rng_seed=11)
    np.testing.assert_array_equal(logits_seq, logits_pipe)
    assert len(trace) == 6 + 4 - 1
    assert max(r["active"] for r in trace) == min(6, 4)
    assert sum(r["accumulates"] for r in trace) == ops.accumulates - ops.head_accumulates
    assert sum(r["comparisons"] for r in trace) == ops.comparisons
    assert sum(r["macs"] for r in trace) == ops.macs - ops.head_macs
    assert sum(r["macs"] for r in trace) == sum(l.macs for l in ops.layers)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from("ig"), st.integers(1, 3), st.integers(1, 8),
       st.sampled_from(["direct", "poisson"]), st.integers(1, 6), st.integers(0, 2**16),
       st.sampled_from([np.float64, np.float32]))
def test_engine_matches_per_step_oracles(plan, n_layers, T, encoding, n, seed, dtype):
    """snn_forward (the batched engine at B=1) and simulate_pipelined against
    the per-step oracle, at f64 and at f32: equal logits, per-(n, tau)
    counts and tick trace, the logits at the model's dtype."""
    rng = np.random.default_rng(seed)
    feats = int(rng.integers(1, 4))
    hidden = [int(h) for h in rng.integers(2, 5, n_layers)]
    model = random_snn(feats, hidden, [3], rng, plan=ConversionPlan(plan),
                       time_steps=T, encoding=encoding, scale=2.0)
    for cell in model.cells:
        for gate in ("f", "i", "o"):  # open the gates so most examples spike
            cell.weights.b[gate] += 3.0
        for params in cell.gate_params.values():
            params.leak = params.leak * rng.uniform(0.8, 1.2, params.leak.shape)
            params.mem_init = params.mem_init + rng.normal(0.0, 0.4, params.mem_init.shape)
    cast_parameters(model, dtype)
    seq = rng.random((n, feats))
    logits, stats, _ = snn_forward(model, seq, rng_seed=seed)
    piped, trace = simulate_pipelined(model, seq, rng_seed=seed)
    ref_logits, ref_stats, ref_trace = per_step_reference(model, seq, rng_seed=seed)
    assert logits.dtype == ref_logits.dtype == dtype
    np.testing.assert_array_equal(logits, ref_logits)
    np.testing.assert_array_equal(piped, ref_logits)
    assert stats == ref_stats
    assert trace == ref_trace


def _unit_report(n, T):
    return OpCountReport(layers=[LayerOps(hidden=1, fan_in=1, accumulates=n * T)],
                         n_elements=n, time_steps=T, encoding="poisson")


def test_latency_tick_fixture():
    """Ticks: proposed 7, priorwork 15, nonspiking 5; latency is ticks times
    the per-tick cost, a block's op counts at one unit each: one AC per
    spiking step, 8 MACs + 1 AC + 5 activations per non-spiking element,
    and the AC plus 4 dense recurrent MACs per prior-work step."""
    schedule = build_schedule(5, 3)
    report = _unit_report(5, 3)
    for mode, ticks, cost in (("proposed", 7, 1.0), ("nonspiking", 5, 14.0),
                              ("priorwork", 15, 5.0)):
        result = latency_report(schedule, report, None, mode)
        assert result["ticks"] == ticks and result["per_tick_cost"] == cost
        assert result["total_latency"] == ticks * result["per_tick_cost"]


def test_latency_t1_matches_nonspiking_ticks():
    schedule = build_schedule(9, 1)
    report = _unit_report(9, 1)
    proposed = latency_report(schedule, report, None, "proposed")
    nonspiking = latency_report(schedule, report, None, "nonspiking")
    assert proposed["ticks"] == nonspiking["ticks"] == 9


def test_priorwork_reports_t_times_n_ticks():
    schedule = build_schedule(8, 5)
    report = _unit_report(8, 5)
    assert latency_report(schedule, report, None, "priorwork")["ticks"] == 40


def test_block_count_stretches_schedule():
    schedule = build_schedule(6, 4)
    report = _unit_report(6, 4)
    full = latency_report(schedule, report, None, "proposed")
    halved = latency_report(schedule, report, 2, "proposed")
    assert halved["ticks"] > full["ticks"]
    # 2 blocks must still cover every (n, tau) once
    assert halved["ticks"] == sum(int(np.ceil(a / 2)) for a in schedule.concurrency_profile())


def test_unknown_mode_rejected():
    with pytest.raises(ValidationError):
        latency_report(build_schedule(2, 2), _unit_report(2, 2), None, "warp")
