"""Analytical oracle suites.

Every check returns a VerifyResult; the CLI `verify` command prints one
line per check and exits nonzero on any failure, and the acceptance tests
assert the same results. Each oracle is independent of the code path it
checks: closed forms against step-by-step hand-trace recurrences,
reverse-mode gradients against central finite differences, the batched
engine and the pipeline trace against the per-step oracle
(`per_step_reference`, the one per-step SNN simulator).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .activations import HardActConfig, hard_sigmoid, hard_tanh
from .convert import convert
from .encoding import encode_sequence
from .energy import (LayerOps, LayerSpikeStats, OpCountReport, SpikeStats,
                     audit_multiplier_free, direct_input_macs, estimate_energy,
                     step_comparisons)
from .lstm import AnnLSTM
from .neuron import (NEVER, LIFGateParams, if_avg_sigmoid, if_avg_tanh,
                     lif_avg_sigmoid, lif_first_spike_time, optimal_shift,
                     run_constant_drive, spike, spike_partials)
from .pipeline import simulate_pipelined
from .snn import CellStepState, ConversionPlan, snn_cell_step, snn_forward
from .train import (ann_backward, ann_loss, model_parameters, snn_backward,
                    snn_relaxed_loss)

Z_GRID = np.round(np.arange(-6.0, 6.0001, 0.1), 10)
T_GRID = tuple(range(1, 17))
V_GRID = (1.0, 2.0, 3.0, 4.0)
LEAK_GRID = (0.8, 0.9, 1.0, 1.05)


@dataclass
class VerifyResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.elapsed:.2f}s)"


def _result(name, start, passed, detail) -> VerifyResult:
    return VerifyResult(name, bool(passed), detail, time.time() - start)


def check_if_oracle() -> VerifyResult:
    """Exact equality of T-step IF simulation and the closed-form average
    on the full grid, off floor-tie points, plus shift-as-init equivalence."""
    start = time.time()
    checked = failures = 0
    for v in V_GRID:
        for T in T_GRID:
            arg = Z_GRID * T / v + T / 2.0
            ties = np.abs(arg - np.round(arg)) < 1e-9
            params = LIFGateParams(leak=1.0, threshold_pos=v, step_bias=v / 2.0, mem_init=0.0)
            counts = run_constant_drive(params, Z_GRID, T).sum(axis=0)
            ref = T * if_avg_sigmoid(Z_GRID, T, v, 0.0)
            failures += int(np.sum((counts != ref) & ~ties))
            checked += int(np.sum(~ties))

            arg2 = arg + 0.5
            ties2 = np.abs(arg2 - np.round(arg2)) < 1e-9
            params2 = LIFGateParams(leak=1.0, threshold_pos=v, step_bias=v / 2.0, mem_init=v / 2.0)
            counts2 = run_constant_drive(params2, Z_GRID, T).sum(axis=0)
            ref2 = T * if_avg_sigmoid(Z_GRID, T, v, optimal_shift(v, T))
            failures += int(np.sum((counts2 != ref2) & ~ties2))
            checked += int(np.sum(~ties2))
    return _result("if-closed-form-oracle", start, failures == 0,
                   f"{checked} grid points exact, {failures} mismatches")


def _reset_to_zero_trace(z: float, v: float, leak: float, T: int):
    """Spike count and first tick under the count derivation's stated
    reset-to-zero dynamics (independent hand-trace recurrence)."""
    u = 0.0
    count = 0
    first = None
    for t in range(1, T + 1):
        u = leak * u + z
        if u > v:
            count += 1
            if first is None:
                first = t
            u = 0.0
    return count, first


def check_lif_oracle() -> VerifyResult:
    """First-spike tick exact against the soft-reset neuron; the floor(T/t)
    count within +-1 of its own (reset-to-zero) dynamics; soft reset never
    under-counts."""
    start = time.time()
    checked = failures = 0
    T = 16
    for leak in LEAK_GRID:
        for v in V_GRID:
            for z in Z_GRID:
                t_pred = lif_first_spike_time(z, v, leak) if z > 0 else NEVER
                if t_pred != NEVER:
                    q = v / z if leak == 1.0 else np.log1p(-v * (1 - leak) / z) / np.log(leak)
                    if abs(q - round(q)) < 1e-6:
                        continue  # boundary drive: strict-inequality tie
                count_formula = int(round(T * lif_avg_sigmoid(z, T, v, leak)))
                count_rz, first_rz = _reset_to_zero_trace(z, v, leak, T)
                params = LIFGateParams(leak=leak, threshold_pos=v, step_bias=0.0, mem_init=0.0)
                spikes = run_constant_drive(params, [z], T)
                count_soft = int(spikes.sum())
                ticks = np.flatnonzero(spikes[:, 0])
                first_soft = int(ticks[0]) + 1 if len(ticks) else None
                checked += 1
                if abs(count_rz - count_formula) > 1:
                    failures += 1
                elif count_soft < count_formula:
                    failures += 1
                elif t_pred == NEVER and first_soft is not None:
                    failures += 1
                elif t_pred != NEVER and t_pred <= T and first_soft != t_pred:
                    failures += 1
                elif first_rz != (t_pred if t_pred != NEVER and t_pred <= T else None):
                    failures += 1
    return _result("lif-first-spike-and-count-oracle", start, failures == 0,
                   f"{checked} grid points, {failures} violations")


def check_convergence_bound() -> VerifyResult:
    """Optimally shifted staircase stays within v/(2T) + 1/T of the hard
    activation on the non-saturated region (and the tanh analogue)."""
    start = time.time()
    worst = 0.0
    ok = True
    for v in V_GRID:
        cfg = HardActConfig(v_sig=v, v_tanh_pos=v, v_tanh_neg=-v)
        for T in T_GRID:
            bound = v / (2 * T) + 1.0 / T
            z = np.linspace(-v / 2, v / 2, 801)
            err = np.abs(if_avg_sigmoid(z, T, v, optimal_shift(v, T)) - hard_sigmoid(z, cfg))
            worst = max(worst, float(err.max()))
            ok &= bool(err.max() <= bound)
            zt = np.linspace(-v, v, 801)
            err_t = np.abs(
                if_avg_tanh(zt, T, cfg, optimal_shift(v, T), optimal_shift(-v, T))
                - hard_tanh(zt, cfg))
            ok &= bool(err_t.max() <= bound)
    return _result("shift-convergence-bound", start, ok, f"max deviation {worst:.4f}")


def check_shift_optimality() -> VerifyResult:
    """Brute-force sweep: delta = v/(2T) uniquely minimizes the mean
    absolute staircase error among 9 shift candidates."""
    start = time.time()
    ok = True
    detail = []
    for v in (2.0, 3.0, 4.0):
        cfg = HardActConfig(v_sig=v, v_tanh_pos=v, v_tanh_neg=-v)
        for T in (2, 4, 8):
            z = np.linspace(-v / 2, v / 2, 4001)
            target = hard_sigmoid(z, cfg)
            deltas = [k * v / (8.0 * T) for k in range(9)]
            maes = [float(np.abs(if_avg_sigmoid(z, T, v, d) - target).mean()) for d in deltas]
            best = int(np.argmin(maes))
            if not np.isclose(deltas[best], optimal_shift(v, T)):
                ok = False
                detail.append(f"(v={v},T={T}) best delta {deltas[best]:.4f}")
    return _result("shift-optimality-sweep", start, ok,
                   "argmin = v/(2T) on all 9 (v, T) pairs" if ok else "; ".join(detail))


def check_surrogate_properties() -> VerifyResult:
    """The engine's spike rule against its own partials: the V-partial
    integrates to gamma in magnitude, and central differences of the
    relaxed spike in V and in theta equal its V- and theta-partials."""
    start = time.time()
    ok = True
    h = 1e-6
    for v_th, gamma in ((1.0, 0.3), (3.0, 0.5), (-2.0, 0.3)):
        u = np.linspace(min(0.0, 2 * v_th) - 1, max(0.0, 2 * v_th) + 1, 200001)
        dsdv, dsdth = spike_partials(u, v_th, gamma, True)
        ok &= bool(abs(np.trapezoid(np.abs(dsdv), u) - gamma) < 1e-6)
        fd_v = (spike(u + h / 2, v_th, gamma, True) - spike(u - h / 2, v_th, gamma, True)) / h
        ok &= bool(np.max(np.abs(fd_v - dsdv)) < 1e-5)
        fd_th = (spike(u, v_th + h / 2, gamma, True) - spike(u, v_th - h / 2, gamma, True)) / h
        ok &= bool(np.max(np.abs(fd_th - dsdth)) < 1e-5)
    return _result("surrogate-triangle-properties", start, ok,
                   "integral |ds/dV| = gamma; relaxed spike' = partials in V and theta")


def _fd_check(loss_fn, model, grads, h, tol, floor=1e-9):
    """Central differences against grads over every parameter entry.
    Returns the worst relative error over all entries, and whether every
    entry whose absolute error exceeds floor is within tol."""
    worst = worst_gated = 0.0
    for name, arr in model_parameters(model).items():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss_fn()
            arr[idx] = orig - h
            lm = loss_fn()
            arr[idx] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1.0)
            worst = max(worst, rel)
            if abs(fd - g[idx]) > floor:
                worst_gated = max(worst_gated, rel)
    return worst, worst_gated <= tol


def check_ann_gradients(n_models: int = 3, tol: float = 1e-5) -> VerifyResult:
    """ANN BPTT against central finite differences on random tiny models."""
    start = time.time()
    worst = 0.0
    ok = True
    for k in range(n_models):
        rng = np.random.default_rng(2024 + k)
        model = AnnLSTM.random(2, [3] if k % 2 == 0 else [2, 2], [2], rng, scale=0.8)
        X = rng.normal(0.0, 1.0, (2, 3, 2))
        y = rng.integers(0, 2, 2)
        _, grads = ann_backward(model, (X, y))
        w, good = _fd_check(lambda: ann_loss(model, (X, y)), model, grads, 1e-5, tol)
        worst = max(worst, w)
        ok &= good
    return _result("ann-gradient-oracle", start, ok,
                   f"{n_models} models, worst rel err {worst:.2e} (tol {tol:g})")


def check_snn_gradients(n_models: int = 3, tol: float = 1e-4) -> VerifyResult:
    """Surrogate BPTT against finite differences of the triangle-ramp
    relaxed forward (whose exact gradient the engine computes)."""
    start = time.time()
    worst = 0.0
    ok = True
    for k in range(n_models):
        rng = np.random.default_rng(900 + k)
        plan = ConversionPlan("i" if k % 2 == 0 else "g")
        ann = AnnLSTM.random(2, [3] if k % 2 == 0 else [2, 2], [2], rng, scale=1.0)
        model = convert(ann, T=2, plan=plan)
        for cell in model.cells:
            for p in cell.gate_params.values():
                p.leak = p.leak * rng.uniform(0.8, 1.2, p.leak.shape)
                p.step_bias = p.step_bias + rng.normal(0.0, 0.4, p.step_bias.shape)
                p.mem_init = p.mem_init + rng.normal(0.0, 0.4, p.mem_init.shape)
        X = rng.uniform(0.0, 1.0, (2, 3, 2))
        y = rng.integers(0, 2, 2)
        _, grads = snn_backward(model, (X, y), relaxed=True, seed=5)
        w, good = _fd_check(
            lambda: snn_relaxed_loss(model, (X, y), 5), model, grads, 1e-5, tol)
        worst = max(worst, w)
        ok &= good
    return _result("snn-gradient-oracle", start, ok,
                   f"{n_models} models, worst rel err {worst:.2e} (tol {tol:g})")


def per_step_reference(model, sequence, T: int | None = None, rng_seed: int = 0,
                       first_index: int = 0):
    """The per-step SNN oracle, at the model's dtype: snn_cell_step over
    (element, layer, step) in element order, counting its own spikes from
    what each step consumes and emits. The sequence is sample first_index
    of its set under rng_seed, as in snn_forward. Returns (logits, stats,
    trace): stats is a one-sample SpikeStats of per-(n, tau) counts and
    trace the per-tick rows of simulate_pipelined, with step (n, tau) on
    tick n + tau - 1.
    """
    T = model.time_steps if T is None else T
    encoding = model.encoding
    sequence = np.asarray(sequence, dtype=model.dtype)
    n_elements = sequence.shape[0]
    stats = SpikeStats(layers=[
        LayerSpikeStats.zeros(c.hidden_dim, c.input_dim, li == 0 and encoding == "direct",
                              (1, n_elements, T), c.plan.spiking_gates)
        for li, c in enumerate(model.cells)], encoding=encoding)
    trace = [dict(tick=k, active=0, accumulates=0, macs=0, comparisons=0, spikes=0)
             for k in range(1, n_elements + T)]
    # element n's hidden spikes and cell values in row n + 1; row 0 is the zero element
    h = [np.zeros((n_elements + 1, T, c.hidden_dim), dtype=model.dtype) for c in model.cells]
    c_val = [np.zeros_like(h_li) for h_li in h]
    for n, below in enumerate(encode_sequence(sequence, T, encoding, rng_seed, first_index)):
        for li, (cell, s) in enumerate(zip(model.cells, stats.layers)):
            state = CellStepState.fresh(cell)
            for t in range(T):
                record = {}
                h[li][n + 1, t], c_val[li][n + 1, t] = snn_cell_step(
                    cell, state, below[t], h[li][n, t], c_val[li][n, t],
                    x_is_spikes=not s.input_analog, record=record)
                if not s.input_analog:
                    s.input_nnz[0, n, t] = np.count_nonzero(below[t])
                s.hidden_nnz[0, n, t] = np.count_nonzero(h[li][n + 1, t])
                for gate in s.gate_spikes:
                    s.gate_spikes[gate][0] += np.count_nonzero(record[gate])
                row = trace[n + t]
                row["active"] += li == 0
                row["accumulates"] += 4 * cell.hidden_dim * int(
                    s.input_nnz[0, n, t] + np.count_nonzero(h[li][n, t]))
                row["macs"] += direct_input_macs(cell) if s.input_analog and t == 0 else 0
                row["comparisons"] += step_comparisons(cell)
                row["spikes"] += int(s.hidden_nnz[0, n, t])
            below = h[li][n + 1]
    return model.head.forward(h[-1][-1].sum(axis=0) / T), stats, trace


def check_pipeline_equivalence(n_cases: int = 100) -> VerifyResult:
    """The batched engine (snn_forward) and simulate_pipelined against the
    per-step oracle on randomized models/inputs: bit-identical logits,
    equal per-(n, tau) spike counts and an equal tick trace (which fixes
    the N + T - 1 ticks and the blocks active on each), and the trace
    reconciles with the OpCountReport."""
    start = time.time()
    failures = []
    for case in range(n_cases):
        rng = np.random.default_rng(4000 + case)
        layers = ([int(rng.integers(2, 6))] if rng.random() < 0.6
                  else [int(rng.integers(2, 5)), int(rng.integers(2, 5))])
        feats = int(rng.integers(1, 5))
        n = int(rng.integers(1, 13))
        T = int(rng.integers(1, 9))
        enc = "direct" if rng.random() < 0.5 else "poisson"
        plan = ConversionPlan("i" if rng.random() < 0.5 else "g")
        ann = AnnLSTM.random(feats, layers, [3], rng, scale=2.0)
        model = convert(ann, T=T, plan=plan, encoding=enc)
        for cell in model.cells:  # open f/i/o, or most readouts are all zero
            for gate in ("f", "i", "o"):
                cell.weights.b[gate] += 3.0
        seq = rng.random((n, feats))
        logits, stats, ops = snn_forward(model, seq, rng_seed=case)
        logits_pipe, trace = simulate_pipelined(model, seq, rng_seed=case)
        ref_logits, ref_stats, ref_trace = per_step_reference(model, seq, rng_seed=case)
        if not (np.array_equal(logits, ref_logits) and np.array_equal(logits_pipe, ref_logits)):
            failures.append(f"case {case}: logits differ")
        if stats != ref_stats:
            failures.append(f"case {case}: per-(n, tau) spike counts differ")
        if trace != ref_trace:
            failures.append(f"case {case}: tick trace differs")
        if (sum(r["accumulates"] for r in trace) != ops.accumulates - ops.head_accumulates
                or sum(r["macs"] for r in trace) != ops.macs - ops.head_macs
                or sum(r["comparisons"] for r in trace) != ops.comparisons):
            failures.append(f"case {case}: trace does not reconcile with OpCountReport")
    return _result("pipeline-equivalence", start, not failures,
                   f"{n_cases} randomized cases: engine, trace and oracle agree"
                   if not failures else "; ".join(failures[:3]))


def check_energy_fixtures() -> VerifyResult:
    """Neuromorphic formula against hand arithmetic and the audit on a
    synthetic report."""
    start = time.time()
    report = OpCountReport(
        layers=[LayerOps(hidden=1, fan_in=1, accumulates=996, comparisons=2, activations=2)],
        n_elements=1, time_steps=4, encoding="poisson")
    # total_flops = 996 + 2 + 2 = 1000
    energy = estimate_energy(report)
    ok = abs(energy["neuromorphic"]["truenorth"] - 402.4) < 1e-9
    ok &= abs(energy["neuromorphic"]["spinnaker"] - 641.44) < 1e-9
    ok &= report.total_flops == 1000
    try:
        audit_multiplier_free(report)
    except Exception:
        ok = False
    return _result("energy-fixtures", start, ok,
                   f"truenorth {energy['neuromorphic']['truenorth']:.2f}, "
                   f"spinnaker {energy['neuromorphic']['spinnaker']:.2f}")


def check_poisson_encoder() -> VerifyResult:
    """Empirical rate concentration and bit-reproducibility."""
    start = time.time()
    seq = np.full((1, 64), 0.5)
    train1 = encode_sequence(seq, 10000, "poisson", rng_seed=11)
    train2 = encode_sequence(seq, 10000, "poisson", rng_seed=11)
    rate = train1.mean()
    ok = abs(rate - 0.5) < 0.02 and np.array_equal(train1, train2)
    return _result("poisson-encoder", start, ok, f"rate {rate:.4f} at p=0.5, seeded replay exact")


ALL_CHECKS = (
    check_if_oracle,
    check_lif_oracle,
    check_convergence_bound,
    check_shift_optimality,
    check_surrogate_properties,
    check_ann_gradients,
    check_snn_gradients,
    check_pipeline_equivalence,
    check_energy_fixtures,
    check_poisson_encoder,
)


def run_all() -> list:
    return [check() for check in ALL_CHECKS]
