"""Tests of the benchmark's own code: seeded inputs, the percentile rule,
self time, wrapper installation and the BENCHMARK.json metric lists.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from spikelstm import pipeline, snn  # noqa: E402


def _inputs(state):
    if isinstance(state, workloads.FinetuneState):
        return [*state.train_set, *state.val_set]
    return [state.X]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_inputs_repeat_and_differ_by_seed(name, tmp_path):
    setup = workloads.WORKLOADS[name].setup
    first, again, other = (setup(seed, str(tmp_path)) for seed in (7, 7, 8))
    for a, b in zip(_inputs(first), _inputs(again)):
        assert np.array_equal(a, b)
    assert any(not np.array_equal(a, b) for a, b in zip(_inputs(first), _inputs(other)))


def test_generators_respect_their_ranges():
    X = workloads.row_images(np.random.default_rng(0), 5)
    assert X.shape == (5, 28, 28) and X.min() >= 0.0 and X.max() <= 1.0
    X, y = workloads.planted_sequences(np.random.default_rng(0), 40, 28, 16, 4)
    assert X.shape == (40, 28, 16) and sorted(np.bincount(y)) == [10, 10, 10, 10]


@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_examples(n, expected):
    assert tracing.tail_percentile(n) == expected


def test_tail_percentile_is_highest_with_ten_beyond():
    cands = tracing.TAIL_CANDIDATES
    for n in range(1, 3000):
        p = tracing.tail_percentile(n)
        beyond = {q: n - tracing._rank(n, q) for q in cands}
        if p is None:
            assert all(b < 10 for b in beyond.values())
        else:
            assert beyond[p] >= 10
            assert all(beyond[q] < 10 for q in cands if q > p)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 90) == 90
    assert tracing.percentile(values, 99.9) == 100


def test_self_time_subtracts_covered_children():
    # parent [0, 100]; children overlap (10-30, 20-50) and overrun (90-120)
    start = [0, 10, 20, 90, 25]
    end = [100, 30, 50, 120, 28]
    parent = [-1, 0, 0, 0, 2]
    self_ns = tracing.self_times(start, end, parent)
    assert self_ns[0] == 100 - 40 - 10
    assert self_ns[2] == 30 - 3
    assert self_ns[1] == 20 and self_ns[4] == 3


def test_tracer_nests_spans_and_shares_op_id():
    tracer = tracing.Tracer()
    tracer.op_id = 4
    inner = tracer.wrap(lambda x: x + 1, "inner")
    with tracer.span("outer"):
        assert inner(1) == 2
        assert inner(2) == 3
    cols = tracer.spans()
    assert [cols["names"][c] for c in cols["name"]] == ["outer", "inner", "inner"]
    assert cols["parent"] == [-1, 0, 0]
    assert cols["op"] == [4, 4, 4]
    children = cols["duration_ns"][1] + cols["duration_ns"][2]
    assert cols["self_ns"][0] == cols["duration_ns"][0] - children


def test_install_wraps_every_alias_and_uninstall_restores():
    original = snn.snn_cell_step
    assert pipeline.snn_cell_step is original
    tracer = tracing.Tracer()
    tracer.install(run.trace_targets())
    try:
        assert snn.snn_cell_step is not original
        assert pipeline.snn_cell_step is snn.snn_cell_step
        assert snn.snn_cell_step.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert snn.snn_cell_step is original and pipeline.snn_cell_step is original


def test_host_clock_scales_by_the_probes_around_a_section(monkeypatch):
    times = iter([0.02, 0.04, 0.06])
    monkeypatch.setattr(run, "probe_host", lambda inputs: next(times))
    probe = workloads.Probe(1, 4, 3, steps=1, ref_s=0.03)
    clock = run.HostClock([probe, probe])
    assert clock.scale()[probe] == pytest.approx(0.03 / 0.03)
    assert clock.scale()[probe] == pytest.approx(0.03 / 0.05)
    assert clock.probes == {probe: [0.02, 0.04, 0.06]}


def test_stage_rate_is_items_over_scaled_seconds():
    rounds = [workloads.RoundResult(stages={"a": (secs, 10), "b": (1.0, 1)}, digest="")
              for secs in (1.0, 2.0, 1.0)]
    # round 2 ran while the host was twice as slow: its scale halves its time
    scales = [{"pa": 1.0, "pb": 2.0}, {"pa": 0.5, "pb": 2.0}, {"pa": 0.8, "pb": 2.0}]
    probe_of = {"a": "pa", "b": "pb"}.get
    assert run.round_rates(rounds, scales, probe_of)["a"] == pytest.approx([10.0, 10.0, 12.5])
    rates = run.stage_rates(rounds, scales, probe_of)
    assert rates == pytest.approx({"a": 30 / 2.8, "b": 0.5})


def test_probe_host_runs_its_steps():
    clock = run.HostClock([workloads.SEQ_PROBE, workloads.BATCH_PROBE])
    assert all(k > 0 for k in clock.scale().values())


def test_benchmark_json_lists_the_metrics_the_runner_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
