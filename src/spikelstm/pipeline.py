"""Diagonal pipelined execution: schedule construction, a tick-ordered
simulator proven bit-equivalent to sequential evaluation, and latency
reports for the proposed / non-spiking / serial-spiking execution schemes.

Block n's step tau runs at wall tick n + tau - 1, consuming the
(n-1, tau) and (n, tau-1) values produced one tick earlier. Layers of a
stacked model are extra pipeline stages inside the block; the simulator
runs them in ascending order within a tick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import encode_sequence
from .errors import SpikeLstmError, ValidationError
from .snn import CellStepState, SpikingLSTM, snn_cell_step
from .energy import LayerSpikeStats, OpCountReport, direct_input_macs, step_comparisons


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


def simulate_pipelined(model: SpikingLSTM, sequence, T: int | None = None,
                       encoding: str | None = None, rng_seed: int = 0):
    """Execute the cell steps in tick-major schedule order.

    Returns (logits, trace) where trace is a list of per-tick dicts
    (tick, active elements, synaptic ACs, compares, emitted spikes). It
    runs the per-step snn_cell_step oracle in schedule order; its logits
    must equal snn_forward's (the batched engine) bit for bit.
    """
    T = model.time_steps if T is None else T
    encoding = model.encoding if encoding is None else encoding
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 2 or sequence.shape[0] < 1:
        raise ValidationError(f"sequence must be non-empty [N, F], got shape {sequence.shape}")
    n_elements = sequence.shape[0]
    schedule = build_schedule(n_elements, T)
    encoded = encode_sequence(sequence, T, encoding, rng_seed)

    n_layers = len(model.cells)
    dims = [c.hidden_dim for c in model.cells]
    # h_buf[li][n][tau] holds block n's outputs; index 0 is the zero element.
    h_buf = [np.zeros((n_elements + 1, T, h)) for h in dims]
    c_buf = [np.zeros((n_elements + 1, T, h)) for h in dims]
    produced_tick = [np.full((n_elements + 1, T), 0) for _ in dims]  # tick 0: boundary zeros
    states: dict = {}
    trace = []

    for tick in range(1, schedule.total_ticks + 1):
        active = list(schedule.active_elements(tick))
        row = {"tick": tick, "active": len(active), "accumulates": 0, "macs": 0,
               "comparisons": 0, "spikes": 0}
        for li, cell in enumerate(model.cells):
            for n in active:
                tau = tick - n + 1
                if (li, n) not in states:
                    states[(li, n)] = CellStepState.fresh(cell)
                # same-layer inputs must come from strictly earlier ticks
                if produced_tick[li][n - 1][tau - 1] >= tick:
                    raise SpikeLstmError(
                        f"dependency violation: block {n} step {tau} consumed a "
                        f"value produced at tick {produced_tick[li][n-1][tau-1]}")
                x_in = encoded[n - 1][tau - 1] if li == 0 else h_buf[li - 1][n][tau - 1]
                h_in = h_buf[li][n - 1][tau - 1]
                c_in = c_buf[li][n - 1][tau - 1]
                x_is_spikes = not (li == 0 and encoding == "direct")
                stats = LayerSpikeStats(units=cell.hidden_dim, fan_in=cell.input_dim,
                                        input_analog=not x_is_spikes)
                h_out, c_out = snn_cell_step(cell, states[(li, n)], x_in, h_in, c_in,
                                             stats=stats, x_is_spikes=x_is_spikes)
                h_buf[li][n][tau - 1] = h_out
                c_buf[li][n][tau - 1] = c_out
                produced_tick[li][n][tau - 1] = tick
                fanout = 4 * cell.hidden_dim
                nnz_h_in = int(np.count_nonzero(h_in))
                row["accumulates"] += fanout * (stats.input_nnz + nnz_h_in)
                if not x_is_spikes and tau == 1:
                    row["macs"] += direct_input_macs(cell)
                row["comparisons"] += step_comparisons(cell)
                row["spikes"] += stats.hidden_nnz_total
        trace.append(row)

    readout = h_buf[-1][n_elements].sum(axis=0) / T
    logits = model.head.forward(readout)
    return logits, trace


@dataclass
class LatencyModel:
    """Unit latencies per op class, per-block functional-unit width, and
    whether stages inside a block overlap. block_count caps the physical
    blocks; fewer than min(N, T) stretches the schedule proportionally.
    fixed_block_cost, when set, overrides the derived per-tick critical
    path (the "one op per tick" abstraction)."""

    mac: float = 1.0
    ac: float = 1.0
    compare: float = 1.0
    act: float = 1.0
    width: int = 1
    stage_pipelined: bool = False
    block_count: int | None = None
    fixed_block_cost: float | None = None

    def __post_init__(self):
        for v in (self.mac, self.ac, self.compare, self.act):
            if v <= 0:
                raise ValidationError("unit latencies must be positive")
        if self.width < 1:
            raise ValidationError("width must be >= 1")

    def block_cost(self, class_counts: dict) -> float:
        """Critical-path cost of one block-step given per-class op counts."""
        if self.fixed_block_cost is not None:
            return self.fixed_block_cost
        unit = {"mac": self.mac, "ac": self.ac, "compare": self.compare, "act": self.act}
        costs = [np.ceil(c / self.width) * unit[k] for k, c in class_counts.items() if c > 0]
        if not costs:
            return 0.0
        return float(max(costs) if self.stage_pipelined else sum(costs))


def _per_step_classes_snn(op_counts: OpCountReport) -> dict:
    steps = op_counts.n_elements * op_counts.time_steps
    return {
        "mac": op_counts.macs / steps,
        "ac": op_counts.accumulates / steps,
        "compare": op_counts.comparisons / steps,
        "act": op_counts.activations / steps,
    }


def latency_report(schedule: PipelineSchedule, op_counts: OpCountReport,
                   lm: LatencyModel | None = None, mode: str = "proposed") -> dict:
    """Tick counts and modeled latency for one execution scheme.

    proposed: N+T-1 ticks of spiking block-steps. nonspiking: N element
    steps of dense MAC blocks. priorwork: T*N ticks of spiking block-steps
    whose multi-bit hidden state forces dense recurrent MACs.
    """
    lm = lm or LatencyModel()
    n, T = schedule.n_elements, schedule.time_steps
    if op_counts.n_elements != n:
        raise ValidationError("op counts and schedule disagree on N")
    if mode == "proposed":
        ticks = n + T - 1
        if lm.block_count is not None and lm.block_count < min(n, T):
            ticks = int(sum(np.ceil(a / lm.block_count)
                            for a in schedule.concurrency_profile()))
        cost = lm.block_cost(_per_step_classes_snn(op_counts))
    elif mode == "nonspiking":
        ticks = n
        per_elem = {
            "mac": sum(4 * l.hidden * (l.fan_in + l.hidden) for l in op_counts.layers),
            "ac": sum(l.hidden for l in op_counts.layers),
            "compare": 0,
            "act": sum(5 * l.hidden for l in op_counts.layers),
        }
        cost = lm.block_cost(per_elem)
    elif mode == "priorwork":
        ticks = T * n
        classes = _per_step_classes_snn(op_counts)
        steps = n * T
        # multi-bit hidden state: recurrent spike-adds become dense MACs
        rec_acc = sum(l.recurrent_accumulates for l in op_counts.layers) / steps
        classes["ac"] = max(0.0, classes["ac"] - rec_acc)
        classes["mac"] += sum(4 * l.hidden * l.hidden for l in op_counts.layers)
        cost = lm.block_cost(classes)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return {"mode": mode, "ticks": ticks, "per_tick_cost": cost,
            "total_latency": ticks * cost, "n_elements": n, "time_steps": T}
