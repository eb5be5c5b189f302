"""Run one workload of the spikelstm benchmark and print its metrics.

    python3 perfbench/run.py --workload finetune --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
One process, one caller, closed loop: rounds of identical work run back to
back until --seconds have passed, with a fixed probe of the host's speed
between rounds (see `probe_host`). --trace 0 prints the end-to-end metrics;
--trace 1 measures half the time untraced and half with spans recorded
around the library's public functions, and prints the per-layer metrics
plus the tracing overhead. The last stdout line is the JSON result; the
full record (environment, output digests, every named metric) and the
spans go to .bench_out/. Exit code 1 when an output check failed, 2 when
the checkout has no library to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from statistics import median

import tracing  # stdlib only, so it loads before numpy and the BLAS pin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "aux_items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Workload-specific names of each stage's rate (printed and recorded, not gated).
STAGE_NAMES = {
    "finetune": {"snn_fit": "train_snn_samples_per_s", "ann_fit": "train_ann_samples_per_s"},
    "infer-poisson": {"eval": "eval_seq_per_s", "stream": "stream_seq_per_s"},
    "stream-energy": {"energy": "energy_seq_per_s", "pipeline": "pipeline_sim_seq_per_s",
                      "conversion_report": "conversion_report_seq_per_s",
                      "report": "report_seq_per_s"},
}

NS_PER_MS = 1e6
NS_PER_US = 1e3

# name -> unit; README.md says what each measures and what it should move
PER_LAYER = {
    "train.snn_backward.ms_p50": "ms",
    "train.snn_backward.self_ms_p50": "ms",
    "train.snn_batch_forward.taped_ms_p50": "ms",
    "train.snn_batch_forward.ms_per_seq": "ms/seq",
    "train.optimizer_step.ms_p50": "ms",
    "train.clip_global_norm.ms_p50": "ms",
    "train.evaluate.epoch_share": "ratio",
    "train.ann_backward.ms_p50": "ms",
    "snn.snn_forward.ms_p50": "ms",
    "snn.snn_cell_step.calls": "calls/round",
    "snn.snn_cell_step.us_mean": "us",
    "neuron.step_sigmoid_neuron.calls": "calls/round",
    "neuron.step_sigmoid_neuron.us_mean": "us",
    "neuron.step_tanh_neuron.calls": "calls/round",
    "neuron.step_tanh_neuron.us_mean": "us",
    "encoding.encode_sequence.us_p50": "us",
    "energy.count_ops_snn.us_p50": "us",
    "energy.estimate_energy.us_p50": "us",
    "energy.audit_multiplier_free.us_p50": "us",
    "energy.total_flops_per_seq": "ops/seq",
    "energy.accumulates_per_seq": "ops/seq",
    "energy.hidden_spike_rate": "ratio",
    "energy.event_ac_ratio": "ratio",
    "pipeline.simulate_pipelined.ms_p50": "ms",
    "pipeline.ticks": "ticks",
    "pipeline.max_active": "blocks",
    "convert.conversion_error_report.ms_per_seq": "ms/seq",
    "convert.convert.ms": "ms",
    "checkpoint.roundtrip_ms": "ms",
    "trace.overhead_pct": "%",
}


def trace_targets():
    """(owner, attribute, span name, items) for every traced function."""
    import importlib

    from spikelstm import encoding, energy, neuron, pipeline, snn, train

    convert = importlib.import_module("spikelstm.convert")

    def forward_name(args, kwargs):
        taped = kwargs.get("want_tapes", args[6] if len(args) > 6 else False)
        return "train.snn_batch_forward." + ("taped" if taped else "untaped")

    def batch_items(args, kwargs):
        return int(args[1].shape[0])

    def probe_items(args, kwargs):
        return len(kwargs.get("probe_inputs", args[2] if len(args) > 2 else ()))

    plain = [
        (train, "snn_backward"), (train, "ann_backward"), (train, "clip_global_norm"),
        (train, "evaluate"), (snn, "snn_forward"), (snn, "snn_cell_step"),
        (neuron, "step_sigmoid_neuron"), (neuron, "step_tanh_neuron"),
        (encoding, "encode_sequence"), (energy, "count_ops_snn"),
        (energy, "estimate_energy"), (energy, "audit_multiplier_free"),
        (pipeline, "simulate_pipelined"), (convert, "convert"),
    ]
    targets = [(mod, attr, f"{mod.__name__.split('.')[-1]}.{attr}", None)
               for mod, attr in plain]
    targets += [
        (train, "snn_batch_forward", forward_name, batch_items),
        (train.Adam, "step", "train.optimizer_step", None),
        (convert, "conversion_error_report", "convert.conversion_error_report", probe_items),
    ]
    return targets


def environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    pkg = os.path.join(SRC, "spikelstm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": src_lines,
    }


def probe_host(inputs) -> float:
    """Seconds taken by a fixed run of LSTM-like gate steps in numpy (a
    small matmul, then tanh and a threshold on slices), the kind of work
    the library does. It calls nothing of the library, so a change to the
    library never moves it; a busy host slows it as it slows the rounds
    around it."""
    import numpy

    u, w_x, w_h, h0, steps = inputs
    hidden = h0.shape[1]
    t0 = time.perf_counter()
    h = h0
    for _ in range(steps):
        g = u @ w_x + h @ w_h
        h = numpy.tanh(g[:, :hidden]) * (g[:, hidden:2 * hidden] > 0.5)
    return time.perf_counter() - t0


class HostClock:
    """Probes the host between timed sections and scales each section's
    seconds by the probe's reference time over the mean of the probes on
    either side of it, so rates keep their 1/s unit at reference speed.

    Neighbours on a shared host slow the CPU by up to 2x, in phases that
    last from under a second to minutes; a run that falls in a slow phase
    reads slow however long it is. Each probe runs at the batch and hidden
    size of the stages it scales (`workloads.Probe`), because a busy
    neighbour slows small and large matmuls by different factors."""

    def __init__(self, probes):
        import numpy

        self._inputs = {}
        for probe in dict.fromkeys(probes):
            rng = numpy.random.default_rng(0)
            b, h, f = probe.batch, probe.hidden, probe.features
            self._inputs[probe] = (rng.random((b, f)), rng.random((f, 4 * h)) * 0.1,
                                   rng.random((h, 4 * h)) * 0.1, rng.random((b, h)),
                                   probe.steps)
        self.probes = {probe: [probe_host(inputs)] for probe, inputs in self._inputs.items()}

    def scale(self) -> dict:
        """Probe once more; probe -> the factor for what ran since the last
        probe."""
        factors = {}
        for probe, inputs in self._inputs.items():
            times = self.probes[probe]
            times.append(probe_host(inputs))
            factors[probe] = probe.ref_s / ((times[-2] + times[-1]) / 2.0)
        return factors


def run_rounds(workload, state, seconds, checks, tracer, first_digest, clock, between=None):
    """Closed loop of rounds until `seconds` pass (at least one round);
    `between` runs after each round, before the next probe. Returns the
    rounds and each one's host-speed scale."""
    rounds, scales = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        result = workload.run_round(state, checks, tracer)
        if first_digest[0] is None:
            first_digest[0] = result.digest
        else:
            checks.record("determinism", {"round digest equals first round":
                                          result.digest == first_digest[0]})
        rounds.append(result)
        if between is not None:
            between()
        scales.append(clock.scale())
    return rounds, scales


def round_rates(rounds, scales, probe_of) -> dict:
    """Stage -> items per reference-speed second of each round;
    `probe_of(stage)` names the probe that scales the stage."""
    return {stage: [r.stages[stage][1] / (r.stages[stage][0] * k[probe_of(stage)])
                    for r, k in zip(rounds, scales)
                    if stage in r.stages and r.stages[stage][0] > 0]
            for stage in rounds[0].stages}


def stage_rates(rounds, scales, probe_of) -> dict:
    """Stage -> its items over its host-scaled seconds, summed over the
    rounds. A stage that takes a few ms per round (infer-poisson's stream)
    reads steadier so than as the median of its per-round rates."""
    rates = {}
    for stage in rounds[0].stages:
        items = sum(r.stages[stage][1] for r in rounds)
        scaled_s = sum(r.stages[stage][0] * k[probe_of(stage)] for r, k in zip(rounds, scales))
        if scaled_s > 0:
            rates[stage] = items / scaled_s
    return rates


def layer_metrics(tracer, boundary, n_rounds, counts, overhead_pct) -> dict:
    """Per-layer metrics from the traced half's spans and counts. A layer
    the workload does not exercise reports 0."""
    cols = tracer.spans()
    names = cols["names"]
    by_name: dict = {}
    for idx, code in enumerate(cols["name"]):
        by_name.setdefault(names[code], []).append(idx)
    dur, self_ns, items = cols["duration_ns"], cols["self_ns"], cols["items"]

    def durations(name, scale, use_self=False):
        src = self_ns if use_self else dur
        return [src[i] / scale for i in by_name.get(name, ())]

    def p50(name, scale, use_self=False):
        values = durations(name, scale, use_self)
        return median(values) if values else 0.0

    def mean(name, scale):
        values = durations(name, scale)
        return sum(values) / len(values) if values else 0.0

    def per_item(name, scale):
        idx = by_name.get(name, ())
        n = sum(items[i] for i in idx)
        return sum(dur[i] for i in idx) / scale / n if n else 0.0

    def calls(name):
        return sum(1 for i in by_name.get(name, ()) if i >= boundary) / n_rounds

    fit_idx = by_name.get("bench.snn_fit", ())
    fit_ns = sum(dur[i] for i in fit_idx)
    fit_set = set(fit_idx)
    eval_ns = sum(dur[i] for i in by_name.get("train.evaluate", ())
                  if cols["parent"][i] in fit_set)
    return {
        "train.snn_backward.ms_p50": p50("train.snn_backward", NS_PER_MS),
        "train.snn_backward.self_ms_p50": p50("train.snn_backward", NS_PER_MS, use_self=True),
        "train.snn_batch_forward.taped_ms_p50": p50("train.snn_batch_forward.taped", NS_PER_MS),
        "train.snn_batch_forward.ms_per_seq": per_item("train.snn_batch_forward.untaped",
                                                       NS_PER_MS),
        "train.optimizer_step.ms_p50": p50("train.optimizer_step", NS_PER_MS),
        "train.clip_global_norm.ms_p50": p50("train.clip_global_norm", NS_PER_MS),
        "train.evaluate.epoch_share": eval_ns / fit_ns if fit_ns else 0.0,
        "train.ann_backward.ms_p50": p50("train.ann_backward", NS_PER_MS),
        "snn.snn_forward.ms_p50": p50("snn.snn_forward", NS_PER_MS),
        "snn.snn_cell_step.calls": calls("snn.snn_cell_step"),
        "snn.snn_cell_step.us_mean": mean("snn.snn_cell_step", NS_PER_US),
        "neuron.step_sigmoid_neuron.calls": calls("neuron.step_sigmoid_neuron"),
        "neuron.step_sigmoid_neuron.us_mean": mean("neuron.step_sigmoid_neuron", NS_PER_US),
        "neuron.step_tanh_neuron.calls": calls("neuron.step_tanh_neuron"),
        "neuron.step_tanh_neuron.us_mean": mean("neuron.step_tanh_neuron", NS_PER_US),
        "encoding.encode_sequence.us_p50": p50("encoding.encode_sequence", NS_PER_US),
        "energy.count_ops_snn.us_p50": p50("energy.count_ops_snn", NS_PER_US),
        "energy.estimate_energy.us_p50": p50("energy.estimate_energy", NS_PER_US),
        "energy.audit_multiplier_free.us_p50": p50("energy.audit_multiplier_free", NS_PER_US),
        "energy.total_flops_per_seq": counts.get("total_flops_per_seq", 0.0),
        "energy.accumulates_per_seq": counts.get("accumulates_per_seq", 0.0),
        "energy.hidden_spike_rate": counts.get("hidden_spike_rate", 0.0),
        "energy.event_ac_ratio": counts.get("event_ac_ratio", 0.0),
        "pipeline.simulate_pipelined.ms_p50": p50("pipeline.simulate_pipelined", NS_PER_MS),
        "pipeline.ticks": counts.get("ticks", 0),
        "pipeline.max_active": counts.get("max_active", 0),
        "convert.conversion_error_report.ms_per_seq": per_item(
            "convert.conversion_error_report", NS_PER_MS),
        "convert.convert.ms": p50("convert.convert", NS_PER_MS),
        "checkpoint.roundtrip_ms": p50("checkpoint.roundtrip", NS_PER_MS),
        "trace.overhead_pct": overhead_pct,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STAGE_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # pinned before numpy loads: one caller, no BLAS threads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not os.path.isfile(os.path.join(SRC, "spikelstm", "__init__.py")):
        print(f"error: no spikelstm sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import spikelstm
    import workloads

    if os.path.dirname(os.path.abspath(spikelstm.__file__)) != os.path.join(SRC, "spikelstm"):
        print(f"error: spikelstm imported from {spikelstm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    clock = HostClock([workload.probe, workload.aux_probe])
    setup_raw = []

    def timed_setup():
        t0 = time.perf_counter()
        state = workload.setup(args.seed, OUT_DIR)
        setup_raw.append(time.perf_counter() - t0)
        return state

    # set-up repeats before the loop and again after every round; each
    # sample is scaled by the probes around it, and setup_s is their median
    for _ in range(workloads.SETUP_REPEATS):
        state = timed_setup()
    first_scale = clock.scale()[workload.probe]
    setup_s = [t * first_scale for t in setup_raw]

    checks = workloads.Checks()
    first_digest = [None]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(numpy),
              "setup_s_raw": setup_raw, "probe_s": {f"{p.batch}x{p.hidden}": times
                                                    for p, times in clock.probes.items()}}
    if args.trace:
        untraced, base_scales = run_rounds(workload, state, args.seconds / 2, checks, None,
                                           first_digest, clock)
        tracer = tracing.Tracer()
        tracer.install(trace_targets())
        try:
            with tracer.span("bench.setup"):
                workload.setup(args.seed, OUT_DIR, tracer)
            boundary = len(tracer.start)
            traced, traced_scales = run_rounds(workload, state, args.seconds / 2, checks,
                                               tracer, first_digest, clock)
        finally:
            tracer.uninstall()
        base = stage_rates(untraced, base_scales, workload.probe_of)[workload.headline]
        slow = stage_rates(traced, traced_scales, workload.probe_of)[workload.headline]
        metrics = layer_metrics(tracer, boundary, len(traced), traced[0].counts,
                                (base / slow - 1.0) * 100.0)
        units = PER_LAYER
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.npz"))
        rounds, scales = untraced + traced, base_scales + traced_scales
    else:
        rounds, scales = run_rounds(workload, state, args.seconds, checks, None, first_digest,
                                    clock, between=timed_setup)
        # one set-up ran after each round, inside the same pair of probes
        setup_s += [t * k[workload.probe]
                    for t, k in zip(setup_raw[workloads.SETUP_REPEATS:], scales)]
        rates = stage_rates(rounds, scales, workload.probe_of)
        metrics = {
            "setup_s": median(setup_s),
            "items_per_s": rates.get(workload.headline, 0.0),
            "aux_items_per_s": rates.get(workload.aux, 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    rates = stage_rates(rounds, scales, workload.probe_of)
    named = {STAGE_NAMES[args.workload][s]: r for s, r in rates.items()
             if s in STAGE_NAMES[args.workload]}
    for key in rounds[0].latencies:
        pooled = [x * 1e3 for r in rounds for x in r.latencies[key]]
        named[f"{key}_ms_p50"] = median(pooled)
        named[f"{key}_ms_p90"] = tracing.percentile(pooled, 90.0)
        tail = tracing.tail_percentile(len(pooled))
        if tail is not None:
            named[f"{key}_ms_p{tail:g}"] = tracing.percentile(pooled, tail)
        named[f"{key}_samples"] = len(pooled)
    named.update(rounds[0].info)
    named["failed_frac"] = checks.failed / max(checks.attempted, 1)
    digests = {"round_outputs": first_digest[0]}
    if args.workload == "infer-poisson":
        digests["eval_logits"] = workloads.infer_logits_digest(state)
    record.update(setup_s_samples=setup_s, rounds=len(rounds),
                  round_rates=round_rates(rounds, scales, workload.probe_of),
                  named_metrics=named, counts=rounds[0].counts, digests=digests,
                  failures=checks.failures, metrics=metrics)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"spikelstm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={len(rounds)}")
    for key, value in named.items():
        print(f"  {key:<40} {value:.6g}")
    for key, value in metrics.items():
        print(f"  {key:<40} {value:.6g} {units[key]}")
    for key, value in {**digests, **record["environment"]}.items():
        print(f"  {key:<40} {value}")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
