"""Seeded inputs and the three benchmark workloads.

Each workload has a `setup(seed, work_dir, tracer)` that generates its
inputs with numpy and builds its model (checkpoint files go to work_dir),
and a `run_round(state, checks, tracer)` that performs
one fixed unit of work, checks its outputs and returns its timings. Every
round of a run does identical work on identical inputs, so its output
digest must equal the first round's.

The program only ever sees the generated arrays; the seed stays here.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from spikelstm import checkpoint, energy, pipeline, snn, train
from spikelstm.errors import SpikeLstmError
from spikelstm.lstm import GATES, AnnLSTM

# the package re-exports the function `convert` under the module's name
convert = importlib.import_module("spikelstm.convert")

SETUP_REPEATS = 3


class Checks:
    """Counts attempted and failed operations; an operation fails when it
    raises a library error or any of its output checks is false."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def record(self, label: str, results: dict) -> None:
        self.attempted += 1
        bad = [name for name, ok in results.items() if not ok]
        if bad:
            self.failed += 1
            self.failures.append(f"{label}: {', '.join(bad)}")

    def raised(self, label: str, error: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{label}: {type(error).__name__}: {error}")


@dataclass
class RoundResult:
    """Stage name -> (seconds, items) plus per-item latencies and the digest
    of everything the round produced."""

    stages: dict
    digest: str
    latencies: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# inputs

def planted_sequences(rng, count: int, n: int, f: int, classes: int, noise: float = 0.3):
    """Class-planted sequences: each class embeds its own +-1 pattern of
    n // 3 elements at a random offset into Gaussian noise."""
    labels = rng.permutation(np.arange(count) % classes)
    X = rng.normal(0.0, noise, (count, n, f))
    length = n // 3
    patterns = rng.choice([-1.0, 1.0], (classes, length, f))
    starts = rng.integers(0, n - length + 1, count)
    for s in range(count):
        X[s, starts[s]:starts[s] + length] += patterns[labels[s]]
    return X, labels.astype(np.int64)


def row_images(rng, count: int, side: int = 28, ink: float = 0.2):
    """[count, side, side] images in [0, 1], read row by row as sequences:
    smooth random blobs covering about `ink` of the area, plus pixel noise."""
    coarse = rng.random((count, 7, 7))
    up = np.kron(coarse, np.ones((side // 7, side // 7)))
    cut = np.quantile(up, 1.0 - ink, axis=(1, 2), keepdims=True)
    img = np.clip((up - cut) * 4.0 + 0.5, 0.0, 1.0) * (up > cut)
    img += rng.random(img.shape) * 0.1
    return np.clip(img, 0.0, 1.0)


def _bias_gates(ann: AnnLSTM, bias: float) -> None:
    """Raise the f/i/o gate biases so the converted model spikes densely
    enough for its spike-rate band."""
    for w in ann.layers:
        for gate in ("f", "i", "o"):
            w.b[gate] += bias


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(np.asarray(arr, dtype=np.float64)).tobytes())
    return h.hexdigest()


def parameter_arrays(model) -> list:
    params = train.model_parameters(model)
    return [params[k] for k in sorted(params)]


def digest_parameters(model) -> str:
    return digest_arrays(*parameter_arrays(model))


def checkpoint_roundtrip(model, work_dir: str, tracer=None):
    """Save and reload through an SLSTM1 file; returns (loaded, bit_exact)."""
    path = os.path.join(work_dir, f"roundtrip-{os.getpid()}.ckpt")
    with tracer.span("checkpoint.roundtrip") if tracer else nullcontext():
        checkpoint.save_model(model, path)
        loaded = checkpoint.load_model(path)
    os.remove(path)
    return loaded, digest_parameters(loaded) == digest_parameters(model)


def _timed(tracer, name, items=1):
    """Span around one benchmark operation; spans inside it share its id."""
    if tracer is None:
        return nullcontext()
    tracer.op_id += 1
    return tracer.span(name, items)


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=np.float64))) for v in values)


# ---------------------------------------------------------------------------
# finetune: ANN epoch -> convert -> SNN fine-tune epoch

FT_TRAIN, FT_VAL = 192, 64
FT_N, FT_F, FT_CLASSES = 28, 16, 4
FT_HIDDEN, FT_T = [64, 64], 4


@dataclass
class FinetuneState:
    train_set: tuple
    val_set: tuple
    ann0: AnnLSTM
    seed: int
    work_dir: str


def finetune_setup(seed: int, work_dir: str, tracer=None) -> FinetuneState:
    rng = np.random.default_rng(seed)
    X, y = planted_sequences(rng, FT_TRAIN + FT_VAL, FT_N, FT_F, FT_CLASSES)
    ann = AnnLSTM.random(FT_F, FT_HIDDEN, [FT_CLASSES], rng, scale=0.3)
    return FinetuneState((X[:FT_TRAIN], y[:FT_TRAIN]), (X[FT_TRAIN:], y[FT_TRAIN:]),
                         ann, seed, work_dir)


def finetune_round(state: FinetuneState, checks: Checks, tracer=None) -> RoundResult:
    ann_cfg = train.TrainConfig(epochs=1, batch_size=32, lr=3e-2, seed=state.seed)
    snn_cfg = train.TrainConfig(
        epochs=1, batch_size=32, lr=1e-2, seed=state.seed,
        mask=train.TrainMask(weights=True, threshold=True, leak=True, mem_init=True))
    ann = copy.deepcopy(state.ann0)
    stages, info = {}, {}
    outputs = []
    try:
        t0 = time.perf_counter()
        with _timed(tracer, "bench.ann_fit", FT_TRAIN):
            ann, ann_hist = train.fit(ann, state.train_set, state.val_set, ann_cfg)
        stages["ann_fit"] = (time.perf_counter() - t0, FT_TRAIN)
        checks.record("ann_fit", {"losses finite": _finite([h["loss"] for h in ann_hist])})

        model = convert.convert(ann, T=FT_T, plan=snn.ConversionPlan("i"), encoding="direct")
        copied = all(np.array_equal(getattr(w, kind)[a], getattr(c.weights, kind)[a])
                     for w, c in zip(ann.layers, model.cells)
                     for kind in ("w_x", "w_h", "b") for a in GATES)
        t0 = time.perf_counter()
        with _timed(tracer, "bench.snn_fit", FT_TRAIN):
            model, snn_hist = train.fit(model, state.train_set, state.val_set, snn_cfg)
        stages["snn_fit"] = (time.perf_counter() - t0, FT_TRAIN)
        _, exact = checkpoint_roundtrip(model, state.work_dir, tracer)
        checks.record("snn_fit", {"losses finite": _finite([h["loss"] for h in snn_hist]),
                                  "convert copies weights": copied,
                                  "checkpoint bit-exact": exact})
        info["val_accuracy"] = snn_hist[-1]["accuracy"]
        outputs = [*parameter_arrays(ann), *parameter_arrays(model),
                   [h["loss"] for h in ann_hist + snn_hist]]
    except SpikeLstmError as error:  # TrainingDiverged, NumericalFault, ...
        checks.raised("finetune", error)
    return RoundResult(stages=stages, digest=digest_arrays(*outputs), info=info)


# ---------------------------------------------------------------------------
# infer-poisson: batched evaluate of a poisson-encoded model (B=256), plus
# the same model streamed one sequence at a time

IP_EVAL, IP_STREAM = 256, 8
IP_N, IP_HIDDEN, IP_T, IP_CLASSES = 28, [128], 8, 10


@dataclass
class InferState:
    X: np.ndarray
    y: np.ndarray
    model: snn.SpikingLSTM
    seed: int


def infer_setup(seed: int, work_dir: str, tracer=None) -> InferState:
    rng = np.random.default_rng(seed)
    X = row_images(rng, IP_EVAL, IP_N)
    ann = AnnLSTM.random(IP_N, IP_HIDDEN, [IP_CLASSES], rng, scale=0.5)
    _bias_gates(ann, 1.0)
    # labels are the source ANN's own predictions: accuracy is then the
    # converted model's agreement with the network it came from
    y = train.ann_batch_forward(ann, X).argmax(axis=1)
    model = convert.convert(ann, T=IP_T, plan=snn.ConversionPlan("g"), encoding="poisson")
    model, exact = checkpoint_roundtrip(model, work_dir, tracer)
    if not exact:
        raise SpikeLstmError("checkpoint round trip changed the converted model")
    return InferState(X, y, model, seed)


def infer_round(state: InferState, checks: Checks, tracer=None) -> RoundResult:
    stages, info = {}, {}
    outputs = []
    try:
        t0 = time.perf_counter()
        with _timed(tracer, "bench.eval_chunk", IP_EVAL):
            loss, acc, rate = train.evaluate(state.model, state.X, state.y, seed=state.seed)
        stages["eval"] = (time.perf_counter() - t0, IP_EVAL)
        checks.record("evaluate", {"loss finite": _finite(loss),
                                   "accuracy in [0,1]": 0.0 <= acc <= 1.0,
                                   "spike rate in [0,1]": 0.0 <= rate <= 1.0})
        info["eval_accuracy"] = acc
        outputs.append([loss, acc, rate])
    except SpikeLstmError as error:
        checks.raised("evaluate", error)
    counts = _new_counts()
    stream_s = 0.0
    for k in range(IP_STREAM):
        try:
            t0 = time.perf_counter()
            with _timed(tracer, "bench.stream_seq"):
                logits, stats, ops = snn.snn_forward(state.model, state.X[k],
                                                     rng_seed=state.seed + k)
                energy.audit_multiplier_free(ops)
            stream_s += time.perf_counter() - t0
            _add_counts(counts, state.model, stats, ops)
            checks.record("stream", {"logits finite": _finite(logits)})
            outputs.append(logits)
        except SpikeLstmError as error:
            checks.raised("stream", error)
    stages["stream"] = (stream_s, IP_STREAM)
    return RoundResult(stages=stages, digest=digest_arrays(*outputs), info=info,
                       counts=_finish_counts(counts, IP_STREAM))


def infer_logits_digest(state: InferState) -> str:
    """Digest of the batched eval logits; computed once per run, untimed."""
    logits, _, _ = train.snn_batch_forward(state.model, state.X, state.model.time_steps,
                                           state.model.encoding, state.seed)
    return digest_arrays(logits)


# ---------------------------------------------------------------------------
# stream-energy: B=1 energy-report path, plus pipeline-sim and the
# conversion-error report on a fixed subset

SE_POOL, SE_REPORT = 32, 2
SE_N, SE_HIDDEN, SE_T, SE_CLASSES = 28, [32, 32], 2, 10
SE_RATE_BAND = (0.1, 0.4)


@dataclass
class StreamState:
    X: np.ndarray
    ann: AnnLSTM
    model: snn.SpikingLSTM
    seed: int


def stream_setup(seed: int, work_dir: str, tracer=None) -> StreamState:
    rng = np.random.default_rng(seed)
    X = row_images(rng, SE_POOL, SE_N)
    ann = AnnLSTM.random(SE_N, SE_HIDDEN, [SE_CLASSES], rng, scale=1.0)
    _bias_gates(ann, 2.0)
    model = convert.convert(ann, T=SE_T, plan=snn.ConversionPlan("i"), encoding="direct")
    model, exact = checkpoint_roundtrip(model, work_dir, tracer)
    if not exact:
        raise SpikeLstmError("checkpoint round trip changed the converted model")
    return StreamState(X, ann, model, seed)


def _new_counts() -> dict:
    return {"total_flops": 0, "accumulates": 0, "event_acs": 0, "dense_gate_madds": 0,
            "spike_rate_sum": 0.0}


def _add_counts(counts: dict, model, stats, ops) -> None:
    counts["total_flops"] += ops.total_flops
    counts["accumulates"] += ops.accumulates
    counts["event_acs"] += sum(layer.accumulates for layer in ops.layers)
    counts["dense_gate_madds"] += sum(
        4 * c.hidden_dim * (c.input_dim + c.hidden_dim) for c in model.cells
    ) * ops.n_elements * ops.time_steps
    counts["spike_rate_sum"] += stats.mean_hidden_rate()


def _finish_counts(counts: dict, n: int) -> dict:
    return {
        "total_flops_per_seq": counts["total_flops"] / n,
        "accumulates_per_seq": counts["accumulates"] / n,
        "hidden_spike_rate": counts["spike_rate_sum"] / n,
        "event_ac_ratio": counts["event_acs"] / counts["dense_gate_madds"],
    }


def stream_round(state: StreamState, checks: Checks, tracer=None) -> RoundResult:
    counts = _new_counts()
    latencies = []
    outputs = []
    logits_of = {}
    for k in range(SE_POOL):
        try:
            t0 = time.perf_counter()
            with _timed(tracer, "bench.energy_seq"):
                logits, stats, ops = snn.snn_forward(state.model, state.X[k],
                                                     rng_seed=state.seed + k)
                energy.audit_multiplier_free(ops)
                report = energy.estimate_energy(ops)
            latencies.append(time.perf_counter() - t0)
            totals = [report["digital"]["total"], *report["neuromorphic"].values()]
            checks.record("energy", {"energy totals finite and positive":
                                     _finite(totals) and min(totals) > 0})
            _add_counts(counts, state.model, stats, ops)
            logits_of[k] = (logits, ops)
            outputs += [logits, totals, [ops.macs, ops.accumulates, ops.comparisons,
                                         ops.activations, ops.leak_multiplies, ops.total_flops]]
        except SpikeLstmError as error:
            checks.raised("energy", error)
    stages = {"energy": (sum(latencies), len(latencies))}
    pool = _finish_counts(counts, SE_POOL)
    lo, hi = SE_RATE_BAND
    checks.record("pool", {"hidden spike rate in band": lo <= pool["hidden_spike_rate"] <= hi})

    pipe_s = report_s = 0.0
    ticks = max_active = 0
    for k in range(SE_REPORT):
        try:
            t0 = time.perf_counter()
            with _timed(tracer, "bench.report_seq"):
                piped, trace = pipeline.simulate_pipelined(state.model, state.X[k],
                                                           rng_seed=state.seed + k)
                t1 = time.perf_counter()
                rows = convert.conversion_error_report(state.ann, state.model, state.X[k:k + 1],
                                                       T=SE_T, rng_seed=state.seed + k)
            t2 = time.perf_counter()
            pipe_s += t1 - t0
            report_s += t2 - t1
            ticks, max_active = len(trace), max(row["active"] for row in trace)
            ref_logits, ref_ops = logits_of.get(k, (None, None))
            checks.record("report", {
                "pipelined logits bit-equal to snn_forward":
                    ref_logits is not None and np.array_equal(piped, ref_logits),
                "tick ACs reconcile with OpCountReport": ref_ops is not None and
                    sum(row["accumulates"] for row in trace)
                    == sum(layer.accumulates for layer in ref_ops.layers),
                "ticks == N+T-1": len(trace) == SE_N + SE_T - 1,
                "conversion report finite": len(rows) == 5 * len(SE_HIDDEN)
                    and _finite([r["mae"] for r in rows]),
            })
            outputs += [piped, [r["mae"] for r in rows],
                        [[row[key] for key in sorted(row)] for row in trace]]
        except SpikeLstmError as error:
            checks.raised("report", error)
    stages["pipeline"] = (pipe_s, SE_REPORT)
    stages["conversion_report"] = (report_s, SE_REPORT)
    stages["report"] = (pipe_s + report_s, SE_REPORT)
    pool.update(ticks=ticks, max_active=max_active)
    return RoundResult(stages=stages, digest=digest_arrays(*outputs),
                       latencies={"energy_seq": latencies}, counts=pool)


@dataclass(frozen=True)
class Probe:
    """Shape of a host-speed probe (`run.probe_host`): `steps` gate steps
    at this batch, hidden and input size. `ref_s` is its median time on the
    2-core Xeon (2.1 GHz) VM the benchmark was tuned on."""

    batch: int
    hidden: int
    features: int
    steps: int
    ref_s: float


# B=1 stages track the first, batched ones the second (README.md: Probe choice)
SEQ_PROBE = Probe(1, 32, 28, steps=2000, ref_s=0.020)
BATCH_PROBE = Probe(32, 64, 16, steps=400, ref_s=0.022)


@dataclass(frozen=True)
class Workload:
    setup: object
    run_round: object
    headline: str       # stage behind items_per_s
    aux: str            # stage behind aux_items_per_s
    probe: Probe        # scales the set-up and every stage but `aux`
    aux_probe: Probe    # scales the `aux` stage

    def probe_of(self, stage: str) -> Probe:
        return self.aux_probe if stage == self.aux else self.probe


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "finetune": Workload(finetune_setup, finetune_round, headline="snn_fit", aux="ann_fit",
                         probe=BATCH_PROBE, aux_probe=BATCH_PROBE),
    "infer-poisson": Workload(infer_setup, infer_round, headline="eval", aux="stream",
                              probe=BATCH_PROBE, aux_probe=SEQ_PROBE),
    "stream-energy": Workload(stream_setup, stream_round, headline="energy", aux="report",
                              probe=SEQ_PROBE, aux_probe=SEQ_PROBE),
}
