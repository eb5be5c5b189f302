"""Diagonal pipelined execution: schedule construction, the per-tick
trace of the schedule, and latency reports for the proposed / non-spiking
/ serial-spiking execution schemes.

Block n's step tau runs at wall tick n + tau - 1, consuming the
(n-1, tau) and (n, tau-1) values produced one tick earlier. Layers of a
stacked model are extra pipeline stages inside the block, so all of a
block-step's layers land on its tick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import OpCountReport, direct_input_macs, step_comparisons
from .errors import ValidationError
# snn_cell_step is unused here; perfbench wraps it under every module alias
from .snn import SpikingLSTM, snn_cell_step, snn_forward  # noqa: F401


@dataclass
class PipelineSchedule:
    """Block n (1-based) runs its step tau at tick n + tau - 1."""

    n_elements: int
    time_steps: int

    @property
    def total_ticks(self) -> int:
        return self.n_elements + self.time_steps - 1

    def active_elements(self, tick: int) -> range:
        lo = max(1, tick - self.time_steps + 1)
        hi = min(self.n_elements, tick)
        return range(lo, hi + 1)

    def concurrency_profile(self) -> list:
        return [len(self.active_elements(k)) for k in range(1, self.total_ticks + 1)]


def build_schedule(n_elements: int, time_steps: int) -> PipelineSchedule:
    """Diagonal schedule mapping (n, tau) -> tick n + tau - 1.

    Total ticks N + T - 1; every dependency lands strictly one tick
    earlier.
    """
    if n_elements < 1 or time_steps < 1:
        raise ValidationError("n_elements and time_steps must be >= 1")
    return PipelineSchedule(n_elements=n_elements, time_steps=time_steps)


def tick_trace(model: SpikingLSTM, stats) -> list:
    """Per tick of the diagonal schedule (tick, active elements, synaptic
    ACs, MACs, compares, emitted spikes): the sum of a one-sample
    SpikeStats' per-(n, tau) counts over the steps on that tick's
    anti-diagonal n + tau - 1. Step (n, tau) reads the (n-1, tau) hidden
    spikes, so its recurrent ACs are (n-1, tau)'s count."""
    batch, n_elements, T = stats.shape
    if batch != 1:
        raise ValidationError(f"tick_trace needs a one-sample SpikeStats, got shape {stats.shape}")
    schedule = build_schedule(n_elements, T)
    acs, macs, spikes = (np.zeros((n_elements, T), dtype=np.int64) for _ in range(3))
    for cell, s in zip(model.cells, stats.layers):  # per-(n, tau) counts over the layers
        hidden = s.hidden_nnz[0]
        acs += 4 * cell.hidden_dim * s.input_nnz[0]
        acs[1:] += 4 * cell.hidden_dim * hidden[:-1]
        spikes += hidden
        if s.input_analog:  # the input projection runs once per element, at tau = 1
            macs[:, 0] += direct_input_macs(cell)
    compares = sum(step_comparisons(cell) for cell in model.cells)
    trace = []
    for tick in range(1, schedule.total_ticks + 1):
        n = np.array(schedule.active_elements(tick))
        diagonal = (n - 1, tick - n)  # 0-based (n, tau) of the steps on this tick
        trace.append({"tick": tick, "active": len(n), "accumulates": int(acs[diagonal].sum()),
                      "macs": int(macs[diagonal].sum()), "comparisons": compares * len(n),
                      "spikes": int(spikes[diagonal].sum())})
    return trace


def simulate_pipelined(model: SpikingLSTM, sequence, T: int | None = None, rng_seed: int = 0):
    """Run a sequence under the diagonal schedule.

    Returns (logits, trace): the logits of the batched engine at B=1, which
    walks the same anti-diagonals, and its tick_trace.
    """
    logits, stats, _ = snn_forward(model, sequence, T, rng_seed)
    return logits, tick_trace(model, stats)


def _block_cost(class_counts: dict) -> float:
    """Critical-path cost of one block-step given per-class op counts: its
    op classes run one after another, every op costing one unit."""
    return float(sum(np.ceil(c) for c in class_counts.values() if c > 0))


def _per_step_classes_snn(op_counts: OpCountReport) -> dict:
    steps = op_counts.n_elements * op_counts.time_steps
    return {
        "mac": op_counts.macs / steps,
        "ac": op_counts.accumulates / steps,
        "compare": op_counts.comparisons / steps,
        "act": op_counts.activations / steps,
    }


def latency_report(schedule: PipelineSchedule, op_counts: OpCountReport,
                   block_count: int | None = None, mode: str = "proposed") -> dict:
    """Tick counts and modeled latency for one execution scheme.

    proposed: N+T-1 ticks of spiking block-steps. nonspiking: N element
    steps of dense MAC blocks. priorwork: T*N ticks of spiking block-steps
    whose multi-bit hidden state forces dense recurrent MACs. block_count
    caps the physical blocks; fewer than min(N, T) stretches the proposed
    schedule proportionally.
    """
    if block_count is not None and block_count < 1:
        raise ValidationError(f"block_count must be >= 1, got {block_count}")
    n, T = schedule.n_elements, schedule.time_steps
    if op_counts.n_elements != n:
        raise ValidationError("op counts and schedule disagree on N")
    if mode == "proposed":
        ticks = n + T - 1
        if block_count is not None and block_count < min(n, T):
            ticks = int(sum(np.ceil(a / block_count)
                            for a in schedule.concurrency_profile()))
        cost = _block_cost(_per_step_classes_snn(op_counts))
    elif mode == "nonspiking":
        ticks = n
        per_elem = {
            "mac": sum(4 * l.hidden * (l.fan_in + l.hidden) for l in op_counts.layers),
            "ac": sum(l.hidden for l in op_counts.layers),
            "compare": 0,
            "act": sum(5 * l.hidden for l in op_counts.layers),
        }
        cost = _block_cost(per_elem)
    elif mode == "priorwork":
        ticks = T * n
        classes = _per_step_classes_snn(op_counts)
        steps = n * T
        # multi-bit hidden state: recurrent spike-adds become dense MACs
        rec_acc = sum(l.recurrent_accumulates for l in op_counts.layers) / steps
        classes["ac"] = max(0.0, classes["ac"] - rec_acc)
        classes["mac"] += sum(4 * l.hidden * l.hidden for l in op_counts.layers)
        cost = _block_cost(classes)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return {"mode": mode, "ticks": ticks, "per_tick_cost": cost,
            "total_latency": ticks * cost, "n_elements": n, "time_steps": T}
