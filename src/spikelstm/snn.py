"""Streaming spiking LSTM with selective gate conversion.

Per internal step tau the cell consumes the encoded input x(n, tau), the
PREVIOUS element's hidden/cell values at the SAME internal step
(h(n-1, tau), c(n-1, tau)) and emits (h(n, tau), c(n, tau)); membranes
reset to mem_init at every element boundary. This per-step streaming is
what lets element n+1 start one tick after element n under the diagonal
pipeline schedule.

The hidden state is ternary (o AND the c-neuron's sign), the cell value
is multi-bit but only ever multiplied by spikes, and exactly one of the
i/g gates stays analog so the datapath needs no multiplier.

snn_batch_forward is the one spiking forward and the one source of spike
counts; snn_forward is it at B=1. It walks the (n, tau) lattice by whole
anti-diagonals, the pipeline schedule, while the state in flight is small,
else cell by cell in element order, with one block body on gates packed
slot-major: one projection call per operand and every LIF quantity of the
four spiking neurons (f, o, the spiking one of i/g and the c neuron) in one
array. A taped run records per layer only what cannot be recomputed bit
for bit (the membranes, the analog pre-activation, H and C); the tape
replays the spikes, the membranes entering each step and the analog
activation on demand, and only a taped run returns its encoded input.
Without tapes it encodes and runs a large batch through all layers one
tile of rows at a time, so at its peak it holds one tile's encoded input,
a layer's input lattice and its own (two hidden lattices of a tile in a
multi-layer model), bounded by LATTICE_BUDGET, not by the batch; in a
layer that walks cell by cell its hard hidden spikes are then int8, one
byte each, and each block's are checked to narrow exactly. snn_cell_step
is the per-step reference cell that the oracle in `verify` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activations import HardActConfig, hard_sigmoid, hard_tanh
from .encoding import check_poisson_range, encode_sequence
from .energy import LayerSpikeStats, SpikeStats, count_ops_snn
from .errors import DimensionMismatch, MultiplierAuditError, ValidationError
from .lstm import GATES, ClassifierHead, LSTMWeights
from .neuron import (LIF_FIELDS, LIFGateParams, NeuronState, _check_finite, spike,
                     step_sigmoid_neuron, step_tanh_neuron)

SPIKE_ALPHABET = (-1.0, 0.0, 1.0)


@dataclass(frozen=True)
class ConversionPlan:
    """Which of i/g keeps its analog hard activation. f, o and the cell
    tanh neuron always spike; the other one of i/g spikes."""

    analog_gate: str = "i"

    def __post_init__(self):
        if self.analog_gate not in ("i", "g"):
            raise ValidationError(f"analog_gate must be 'i' or 'g', got {self.analog_gate!r}")

    @property
    def spiking_gates(self) -> tuple:
        other = "g" if self.analog_gate == "i" else "i"
        return ("f", other, "o", "c")

    @property
    def bank_gates(self) -> tuple:
        """The four spiking neurons in the engine's slot order, the ternary
        ones last: f, o and the spiking one of i/g, which the engine
        updates as one bank, and the c neuron, which the cell combine
        drives."""
        return ("f", "o", self.spiking_gates[1], "c")


@dataclass
class SpikingLSTMCell:
    """Gate weights + per-gate LIF parameters + conversion plan. Each set
    LIF field is an array of shape [H] at the weights' dtype, one value per
    unit."""

    weights: LSTMWeights
    gate_params: dict  # gate name in plan.spiking_gates -> LIFGateParams
    plan: ConversionPlan
    act: HardActConfig = field(default_factory=HardActConfig)

    def __post_init__(self):
        self.check_gate_params()

    def check_gate_params(self) -> None:
        """Raise ValidationError unless gate_params holds the plan's spiking
        gates, threshold_neg on the tanh-type ones only, and every set LIF
        field as an array of shape [H] at the weights' dtype. A field can be
        rebound after construction, so the forward's pack and save_model run
        this check too."""
        expected = set(self.plan.spiking_gates)
        if set(self.gate_params) != expected:
            raise ValidationError(
                f"gate_params keys {sorted(self.gate_params)} != spiking gates {sorted(expected)}")
        units, dtype = (self.hidden_dim,), self.weights.dtype
        for gate, params in self.gate_params.items():
            tanh_type = gate in ("g", "c")
            if tanh_type and not params.is_ternary:
                raise ValidationError(f"tanh-type gate {gate!r} needs threshold_neg")
            if not tanh_type and params.is_ternary:
                raise ValidationError(f"sigmoid-type gate {gate!r} must not carry threshold_neg")
            for name in LIF_FIELDS:
                value = getattr(params, name)
                if value is not None and not (isinstance(value, np.ndarray)
                                              and value.shape == units and value.dtype == dtype):
                    raise ValidationError(f"gate {gate!r} {name} must be a float array of shape "
                                          f"[{units[0]}] at the weights' {dtype}, got "
                                          f"{np.asarray(value).dtype} of shape {np.shape(value)}")

    @property
    def hidden_dim(self) -> int:
        return self.weights.hidden_dim

    @property
    def input_dim(self) -> int:
        return self.weights.input_dim


@dataclass
class CellStepState:
    """Per-element mutable state: one membrane bank per spiking neuron."""

    membranes: dict  # gate -> NeuronState

    @classmethod
    def fresh(cls, cell: SpikingLSTMCell) -> "CellStepState":
        return cls({gate: NeuronState.initialized(params, (cell.hidden_dim,), cell.weights.dtype)
                    for gate, params in cell.gate_params.items()})


@dataclass
class SpikingLSTM:
    """Stacked spiking cells plus the (non-spiking) classifier head. The
    model's plan and act are its cells', which must all share them: a
    checkpoint stores one of each."""

    cells: list
    head: ClassifierHead
    time_steps: int
    encoding: str = "direct"

    def __post_init__(self):
        if self.time_steps < 1:
            raise ValidationError("time_steps must be >= 1")
        if self.encoding not in ("direct", "poisson"):
            raise ValidationError(f"unknown encoding {self.encoding!r}")
        for li, cell in enumerate(self.cells[1:], 1):
            for name in ("plan", "act"):
                if getattr(cell, name) != getattr(self.cells[0], name):
                    raise ValidationError(f"layer {li}: {name} differs from layer 0's")
        for lower, upper in zip(self.cells[:-1], self.cells[1:]):
            if lower.hidden_dim != upper.input_dim:
                raise DimensionMismatch("spiking layer stack dimension mismatch")
        if self.head.input_dim != self.cells[-1].hidden_dim:
            raise DimensionMismatch("head input dim != top layer hidden dim")

    @property
    def plan(self) -> ConversionPlan:
        return self.cells[0].plan

    @property
    def act(self) -> HardActConfig:
        return self.cells[0].act

    @property
    def input_dim(self) -> int:
        return self.cells[0].input_dim

    @property
    def hidden_dims(self) -> list:
        return [c.hidden_dim for c in self.cells]

    @property
    def dtype(self) -> np.dtype:
        return self.cells[0].weights.dtype


def _assert_spikes(name: str, values: np.ndarray, ternary: bool) -> None:
    alphabet = SPIKE_ALPHABET if ternary else (0.0, 1.0)
    # an int8 lattice by its bounds: exact, and cheaper than np.isin on int8
    if values.dtype == np.int8 and alphabet[0] <= values.min() and values.max() <= 1:
        return
    ok = np.isin(values, alphabet)
    if not ok.all():
        raise MultiplierAuditError(
            f"{name} carries multi-bit values where a spike tensor is required "
            f"(e.g. {values[~ok].flat[0]!r}); the plan would need a real multiplier")


def snn_cell_step(cell: SpikingLSTMCell, state: CellStepState, x_in, h_in, c_in,
                  x_is_spikes: bool = True, record: dict | None = None):
    """Advance one spiking cell by one internal step; returns (h_out, c_out).

    x_in is a spike vector except at the first layer under direct encoding.
    h_in is the previous element's ternary hidden spikes at this step, c_in
    its cell value. Computes at the weights' dtype; membranes advance in
    place. When a dict is passed as `record`, the per-step gate values land
    in it under keys f/i/g/o/c.
    """
    w = cell.weights
    x_in, h_in, c_in = (np.asarray(a, dtype=w.dtype) for a in (x_in, h_in, c_in))
    if x_in.shape[-1] != w.input_dim or h_in.shape[-1] != w.hidden_dim:
        raise DimensionMismatch(
            f"snn cell step got x dim {x_in.shape[-1]} (want {w.input_dim}), "
            f"h dim {h_in.shape[-1]} (want {w.hidden_dim})")
    if x_is_spikes:
        _assert_spikes("x_in", x_in, ternary=True)
    _assert_spikes("h_in", h_in, ternary=True)

    proj_x, proj_h = w.projections()
    p = {a: px + ph + w.b[a] for a, px, ph in zip(GATES, proj_x(x_in), proj_h(h_in))}

    f = step_sigmoid_neuron(state.membranes["f"], p["f"], cell.gate_params["f"])
    o = step_sigmoid_neuron(state.membranes["o"], p["o"], cell.gate_params["o"])
    if cell.plan.analog_gate == "g":
        i_val = step_sigmoid_neuron(state.membranes["i"], p["i"], cell.gate_params["i"])
        g_val = hard_tanh(p["g"], cell.act)
    else:
        i_val = hard_sigmoid(p["i"], cell.act)
        g_val = step_tanh_neuron(state.membranes["g"], p["g"], cell.gate_params["g"])

    c_out = f * c_in + i_val * g_val
    s_c = step_tanh_neuron(state.membranes["c"], c_out, cell.gate_params["c"])
    h_out = o * s_c

    if record is not None:
        record.update(f=f, i=i_val, g=g_val, o=o, c=s_c)
    return h_out, c_out


# The forward runs a whole anti-diagonal n + t = k of the (n, t) lattice as
# one block while the state in flight, T*B*H elements per gate, is at most
# this many (128 KiB per gate at f64). Small batches then pay for one block's
# numpy calls instead of one per cell: measured 1.5-2.6x faster at B=1. With
# large [B, H] arrays the calls are already amortised and a diagonal's
# stacks spill the 2 MiB L2 (0.75-0.97x at B=256), so cells run one at a
# time in element order. The two cross over between 8k and 64k elements.
# The backward and the conversion report replay a tape, and a layer counts
# its hidden spikes, in passes over as many elements as keep the same
# per-gate size within this bound (_span).
WAVEFRONT_BUDGET = 16_384

# An untaped forward runs its batch through every layer one tile of rows at a
# time, max(1, LATTICE_BUDGET // (N*T*max H)) rows, so a layer's hidden
# lattice stays near this many elements whatever the batch: 2 MiB as the
# int8 of hard spikes walked cell by cell, 16 MiB at f64.
# Rows do not interact (README: Batch invariance), so a tile moves no bit.
# Smaller tiles measured slower for less memory (36 rows at B=256: 0.89x).
LATTICE_BUDGET = 2 ** 21


def _span(lattice) -> int:
    """Elements per pass over an [N, T, B, H] lattice: as many as keep
    T*B*H per gate within WAVEFRONT_BUDGET, so a pass's temporaries stay in
    cache."""
    return max(1, WAVEFRONT_BUDGET // lattice[0].size)


class _GatePack:
    """One layer's parameters packed slot-major at its dtype: the
    projections as GateProjections w_x and w_h and the bias as [4, 1, 1, H]
    in the order of the bank (plan.bank_gates[:3]) and then the analog gate,
    and the LIF vectors of the four neurons as [4, 1, 1, H] in
    plan.bank_gates order, th_neg as [ternary, 1, 1, H] of the last
    `ternary` slots. Built from the cell's arrays at every forward call, so
    no update can leave it stale."""

    def __init__(self, cell: SpikingLSTMCell):
        cell.check_gate_params()
        plan, w, dtype = cell.plan, cell.weights, cell.weights.dtype
        self.bank_gates, self.hidden, self.dtype = plan.bank_gates, cell.hidden_dim, dtype
        order = plan.bank_gates[:3] + (plan.analog_gate,)
        self.w_x, self.w_h = w.projections(order)
        self.b = np.array([w.b[a] for a in order], dtype)[:, None, None]
        lif = [cell.gate_params[g] for g in plan.bank_gates]
        self.leak, self.th_pos, self.beta, self.mem_init = (
            np.array([getattr(p, name) for p in lif], dtype)[:, None, None]
            for name in ("leak", "threshold_pos", "step_bias", "mem_init"))
        self.gamma = np.array([p.surrogate_gamma for p in lif], dtype)[:, None, None, None]
        ternary = [p.threshold_neg for p in lif if p.is_ternary]
        self.ternary, self.th_neg = len(ternary), np.array(ternary, dtype)[:, None, None]
        self.analog_i = plan.analog_gate == "i"
        self.act = cell.act
        # what _cell_block reads: the bank's slots, slot 2's th_neg when g
        # spikes, and the c neuron's slot with its thresholds as one pair
        self.bank = (self.leak[:3], self.th_pos[:3], self.beta[:3], self.gamma[:3])
        self.ig_neg = self.th_neg[0] if self.ternary == 2 else None
        self.c = (self.leak[3], np.stack([self.th_pos[3], self.th_neg[-1]]), self.beta[3],
                  self.gamma[3])


class _SnnLayerTape:
    """Forward recordings of one spiking layer over the (n, t) lattice:
    only what the backward cannot replay bit for bit.

    V is the four neurons' membranes as the forward computes them,
    slot-major [4, N, T, B, H] in the order of plan.bank_gates. P_analog is
    the analog gate's pre-activation, Hp and Cp the hidden spikes and cell
    values behind one zero element. The spikes, the membranes entering each
    step and the analog activation are replayed from V and P_analog
    (replay, replay_backwards) against the pack the forward ran with."""

    def __init__(self, pack: _GatePack, relaxed: bool, batch, n_elements, T):
        shape = (n_elements, T, batch, pack.hidden)
        self.pack, self.relaxed = pack, relaxed
        self.V, self.P_analog = np.empty((4,) + shape, pack.dtype), np.empty(shape, pack.dtype)
        self.lattices = {"V": self.V, "P_analog": self.P_analog}  # what a block records
        # H and C behind one zero element: row n of Hp/Cp is element n - 1
        self.Hp = np.empty((n_elements + 1,) + shape[1:], pack.dtype)
        self.Cp = np.empty_like(self.Hp)
        self.Hp[0] = self.Cp[0] = 0.0
        self.H = self.Hp[1:]

    def rows(self) -> dict:
        """The recorded lattices as views whose row n*T + t (axis -3) is
        cell (n, t)."""
        return {key: a.reshape(a.shape[:-4] + (-1,) + a.shape[-2:])
                for key, a in self.lattices.items()}

    def replay(self, elements: slice = slice(None), upre: bool = False) -> dict:
        """What the forward computed from V and P_analog and did not record,
        for the cells of a slice of elements, by the forward's own
        operations and in its layout, each array's axis -4 the element:
        S_pos, every slot's positive spike component, [4, n, T, B, H] in
        plan.bank_gates order; S_neg, the negative one of the last
        pack.ternary slots, [ternary, n, T, B, H]; A_analog, the analog
        gate's activation; and, with upre, which only the backward asks for,
        Upre, [4, n, T, B, H], the membranes entering each step (mem_init at
        t = 0, else the soft-reset membrane of step t - 1)."""
        pack, relaxed, ternary = self.pack, self.relaxed, -self.pack.ternary
        V = self.V[:, elements]

        def per_cell(a):  # a [..., 1, 1, H] parameter stack, broadcast over [n, t, b]
            return a[..., None, :, :, :]

        th_pos, th_neg, gamma = (per_cell(a) for a in (pack.th_pos, pack.th_neg, pack.gamma))
        out = {"S_pos": spike(V, th_pos, gamma, relaxed),
               "S_neg": spike(V[ternary:], th_neg, gamma[ternary:], relaxed),
               "A_analog": (hard_sigmoid if pack.analog_i else hard_tanh)(
                   self.P_analog[elements], pack.act)}
        if upre:
            U = np.empty_like(V)  # the step-t membranes, step t - 1's post-reset ones
            U[:, :, 0] = pack.mem_init
            post = U[:, :, 1:]
            np.multiply(th_pos, out["S_pos"][:, :, :-1], out=post)
            np.subtract(V[:, :, :-1], post, out=post)
            post[ternary:] -= th_neg * out["S_neg"][:, :, :-1]
            out["Upre"] = U
        return out

    def replay_span(self) -> int:
        """Elements per replay pass (_span)."""
        return _span(self.H)

    def replay_backwards(self):
        """(n, element n's replay with Upre, each array a view with the
        element axis dropped) from the last element to the first. One
        replay pass covers replay_span() elements: a small lattice in one
        pass, a large one a few elements at a time."""
        n_elements, span = self.H.shape[0], self.replay_span()
        for hi in range(n_elements, 0, -span):
            lo = max(0, hi - span)
            block = self.replay(slice(lo, hi), upre=True)
            for n in range(hi - 1, lo - 1, -1):
                yield n, {name: a[..., n - lo, :, :, :] for name, a in block.items()}


def _cell_block(pack, x, h_in, c_in, c_out, U, tally, relaxed, tape_rows, cells):
    """The one body of a block of L cells (n, t), on [L, B, .] stacks: the
    gate projections as [4, L, B, H] (slot 3 the analog gate's), the
    f/o/spiking-i|g LIF bank in slots 0-2, the cell combine and the c
    neuron in slot 3. U, the membranes entering the block, and tally, the
    spike counts, are slot-major [4, L, B, H] (U may broadcast). Writes the
    cell values into c_out, adds each neuron's spike components into tally
    and, when taping, writes rows `cells` of tape.rows(). Returns the
    hidden spikes and the post-reset membranes, written over P."""
    P = pack.w_x(x)
    P += pack.w_h(h_in)
    P += pack.b
    # the bank's V = leak * U + P + beta, summed in place into P: addition
    # commutes exactly. At large B each temporary saved is one pass over
    # 3*B*H elements.
    leak, th_pos, beta, gamma = pack.bank
    V = P[:3]
    V += leak * U[:3]
    V += beta
    s_pos = spike(V, th_pos, gamma, relaxed)
    tally[:3] += s_pos
    s_ig = s_pos[2]
    if pack.ig_neg is not None:
        s_neg = spike(V[2], pack.ig_neg, gamma[2], relaxed)
        tally[2] += s_neg
        s_ig = s_ig - s_neg
    analog = (hard_sigmoid if pack.analog_i else hard_tanh)(P[3], pack.act)
    i_val, g_val = (analog, s_ig) if pack.analog_i else (s_ig, analog)
    drive = s_pos[0] * c_in + i_val * g_val  # the cell combine drives the c neuron
    c_out[...] = drive
    leak, th_c, beta, gamma = pack.c
    V_c = leak * U[3] + drive + beta
    c_pos, c_neg = s_c = spike(V_c, th_c, gamma, relaxed)
    tally[3] += c_pos
    tally[3] += c_neg
    if tape_rows is not None:  # the rest replays from these (_SnnLayerTape.replay)
        V_rows = tape_rows["V"]
        V_rows[:3, cells], V_rows[3, cells] = V, V_c
        tape_rows["P_analog"][cells] = P[3]
    V -= th_pos * s_pos  # P becomes the post-reset membranes
    if pack.ig_neg is not None:
        V[2] -= pack.ig_neg * s_neg
    c_reset = th_c * s_c
    np.subtract(V_c, c_reset[0], out=P[3])
    P[3] -= c_reset[1]
    return s_pos[1] * (c_pos - c_neg), P


def _diagonal_rows(start, count, step):
    """Rows start, start - step, ... (count of them) as one basic slice."""
    if count == 1:
        return slice(start, start + 1)
    stop = start - count * step
    return slice(start, stop if stop >= 0 else None, -step)


def _layer_forward(cell: SpikingLSTMCell, x_feed: np.ndarray, relaxed: bool,
                   want_tape: bool, stats: LayerSpikeStats, rows: slice):
    """Run one spiking layer over x_feed [b, N, T, F], the batch rows `rows`
    of the layer's batch-wide stats, and write its spike counts there (the
    input's unless stats.input_analog); returns its hidden spikes
    [N, T, b, H] and its tape (or None). Untaped hard spikes walked cell by
    cell are int8, each block's stored exactly (a multi-bit value raises
    MultiplierAuditError); the rest keep the dtype.

    Walks the (n, t) lattice in blocks of cells that share one body: whole
    anti-diagonals n + t = k in ascending t when T*B*H fits
    WAVEFRONT_BUDGET, else single cells in element order. Cell (n, t) reads
    (n - 1, t) through h and c and (n, t - 1) through the membranes, so
    either way a block reads only what earlier blocks wrote, and both walks
    give the same bits. The membranes, spike counts and taped membranes
    are slot-major [4, ...] arrays in plan.bank_gates order whose axis -3 is
    the step (or the lattice row).
    """
    batch, n_elements, T, n_in = x_feed.shape
    dtype = cell.weights.dtype
    hidden = cell.hidden_dim
    wavefront = T * batch * hidden <= WAVEFRONT_BUDGET
    # untaped hard spikes as int8, where the state is large enough to walk
    # cell by cell; a block's exact-store check (~4 us) would cost the small
    # blocks of a B=1 stream ~4% for no memory to speak of
    narrow = not (relaxed or want_tape or wavefront)
    pack = _GatePack(cell)
    tape = _SnnLayerTape(pack, relaxed, batch, n_elements, T) if want_tape else None
    # spike components summed over (n, t): the nonzero count of hard
    # spikes, at the cost of one add per component and block
    spikes = np.zeros((4, batch, hidden), dtype=dtype)
    # x, the taped lattices, and H and C behind their zero element, as views
    # whose row n*T + t is cell (n, t): a block is one basic slice of each
    x_rows = x_feed.reshape(batch, n_elements * T, n_in)
    if tape is not None:
        tape_rows = tape.rows()
        Hp, Cp = (a.reshape(-1, batch, hidden) for a in (tape.Hp, tape.Cp))
    else:
        tape_rows = None
        Hp = np.zeros(((n_elements + 1) * T, batch, hidden), dtype=np.int8 if narrow else dtype)
        c_step = np.zeros((T, batch, hidden), dtype=dtype)  # c of the last element at each t
    if wavefront:
        # membranes entering step t, at row t; row 0 is mem_init
        M = np.empty((4, T + 1, batch, hidden), dtype=dtype)
        M[:, 0] = pack.mem_init[:, 0]
        tally = np.zeros((4, T, batch, hidden), dtype=dtype)
        blocks = ((k, max(0, k - n_elements + 1), min(T - 1, k))
                  for k in range(n_elements + T - 1))
    else:  # one membrane array, rebound at each step: a store would spill the L2
        tally = spikes[:, None]
        blocks = ((n + t, t, t) for n in range(n_elements) for t in range(T))
    for k, t0, t1 in blocks:
        count, steps = t1 - t0 + 1, slice(t0, t1 + 1)
        cells = _diagonal_rows(k * T - t0 * (T - 1), count, T - 1)
        ahead = _diagonal_rows((k + 1) * T - t0 * (T - 1), count, T - 1)  # the same cells in Hp
        c_in, c_out = (Cp[cells], Cp[ahead]) if tape is not None else (c_step[steps],) * 2
        if wavefront:
            U = M[:, steps]
        elif t0 == 0:
            U = pack.mem_init
        h, U = _cell_block(pack, x_rows[:, cells].swapaxes(0, 1), Hp[cells], c_in, c_out, U,
                           tally[:, steps] if wavefront else tally, relaxed, tape_rows, cells)
        Hp[ahead] = h
        if narrow and np.count_nonzero(Hp[ahead] != h):  # int8 truncated a multi-bit value
            _assert_spikes("hidden output", h, ternary=True)
        if wavefront:
            M[:, t0 + 1:t1 + 2] = U
        if t1 == T - 1:  # element k - T + 1 ends: a non-finite membrane stays so until then
            _check_finite(U[:, -1], pack.bank_gates)
    if wavefront:
        spikes += tally.sum(axis=-3)
    H = Hp[T:].reshape(n_elements, T, batch, hidden)
    if not relaxed:
        _assert_spikes("hidden output", H, ternary=True)
    span = _span(H)  # count_nonzero's bool copies are one pass's, not the lattice's
    for n in range(0, n_elements, span):
        elements = slice(n, n + span)
        stats.hidden_nnz[rows, elements] = np.moveaxis(
            np.count_nonzero(H[elements], axis=-1), -1, 0)
        if not stats.input_analog:
            stats.input_nnz[rows, elements] = np.count_nonzero(x_feed[:, elements], axis=-1)
    per_gate = dict(zip(pack.bank_gates, spikes))
    for g, counts in stats.gate_spikes.items():
        counts[rows] = per_gate[g].sum(axis=-1)  # the cast truncates, as astype does
    return H, tape


def snn_batch_forward(model: SpikingLSTM, X: np.ndarray, T: int, encoding: str,
                      seed: int, relaxed: bool = False, want_tapes: bool = False,
                      first_index: int = 0):
    """Batched spiking forward over [B, N, F]: the one SNN forward that
    streaming inference, training, evaluation and the conversion report
    share.

    X is cast to the model's dtype, at which every array of the run is
    made but an untaped run's int8 hard spikes (_layer_forward), and
    encoded by encode_sequence, sample b as sample first_index + b of the
    evaluated set. relaxed=True replaces every hard spike by its
    triangle-ramp relaxation (same code path otherwise). With want_tapes
    every layer records, over the whole batch, what snn_backward cannot
    replay (_SnnLayerTape). Without, the batch runs through every layer in
    tiles of rows (LATTICE_BUDGET), each tile encoded on its own and
    writing its rows of the batch-wide readout and spike counts, and the
    head runs once: at its peak such a run holds one tile's encoded input,
    a layer's input lattice and its own (int8 on hard spikes in a large
    tile), so only the readout and spike counts grow with the batch. A
    poisson batch's value range is checked once, before the first tile.
    Returns (logits, tapes_or_none, aux); aux holds the head cache and the
    SpikeStats (per-sample, per-(n, t) counts of the batch) and, of a taped
    run only, the encoded input that snn_backward reads.

    Raises NumericalFault on a non-finite membrane and, on hard spikes,
    MultiplierAuditError when a tensor that must carry spikes is not
    ternary.
    """
    X = np.asarray(X, dtype=model.dtype)
    if X.ndim != 3 or 0 in X.shape[:2]:
        raise ValidationError(f"input must be non-empty [B, N, F], got shape {X.shape}")
    if X.shape[2] != model.input_dim:
        raise DimensionMismatch(f"input has {X.shape[2]} features, model wants {model.input_dim}")
    if encoding == "poisson":  # a malformed batch fails before any tile runs
        check_poisson_range(X)
    batch, n_elements, _ = X.shape
    # the backward reads the whole tape, so a taped run is one tile
    tile = batch if want_tapes else max(
        1, LATTICE_BUDGET // (n_elements * T * max(model.hidden_dims)))
    stats = SpikeStats([LayerSpikeStats.zeros(cell.hidden_dim, cell.input_dim,
                                              li == 0 and encoding == "direct",
                                              (batch, n_elements, T), cell.plan.spiking_gates)
                        for li, cell in enumerate(model.cells)], encoding)
    hbar = np.empty((batch, model.cells[-1].hidden_dim), model.dtype)  # the readout
    for lo in range(0, batch, tile):
        rows, tapes = slice(lo, lo + tile), []
        # sample lo + b's encoding depends only on its index, so a tile moves no bit
        x_feed = encoded = encode_sequence(X[rows], T, encoding, seed, first_index + lo)
        if encoding != "direct":
            _assert_spikes("encoded input", encoded, ternary=True)
        for cell, layer_stats in zip(model.cells, stats.layers):
            H, tape = _layer_forward(cell, x_feed, relaxed, want_tapes, layer_stats, rows)
            tapes.append(tape)
            x_feed = np.moveaxis(H, 2, 0)  # [b, N, T, H]
        # the mean over T at the model's dtype (int8's would be f64). Its sum
        # starts at add's identity, +0.0, so the -0.0 that a taped lattice
        # holds where o is silent and c fires negative reads out as the 0
        # of an int8 one: taped and untaped readouts are one bit pattern.
        H[n_elements - 1].mean(axis=0, dtype=model.dtype, out=hbar[rows])
        del H, x_feed  # else alive while the next tile's first layer allocates its own
    logits, head_cache = model.head.forward_cached(hbar)
    aux = {"head_cache": head_cache, "stats": stats}
    if want_tapes:
        aux["encoded"] = encoded
    return logits, (tapes if want_tapes else None), aux


def snn_forward(model: SpikingLSTM, sequence, T: int | None = None, rng_seed: int = 0,
                first_index: int = 0):
    """Streaming evaluation of an [N, F] sequence: the batched engine at
    B=1, the sequence being sample first_index of its set under rng_seed.

    Returns (logits, spike_stats, op_counts), the op counts as plain ints.
    The readout is the head applied to the time-averaged ternary hidden
    spikes of the final element.
    """
    T = model.time_steps if T is None else T
    sequence = np.asarray(sequence)
    if sequence.ndim != 2 or sequence.shape[0] < 1:
        raise ValidationError(f"sequence must be non-empty [N, F], got shape {sequence.shape}")
    logits, _, aux = snn_batch_forward(model, sequence[None], T, model.encoding, rng_seed,
                                       first_index=first_index)
    stats = aux["stats"]
    ops = count_ops_snn(stats, model)
    for part in (ops, *ops.layers):  # the one sample's [1] counts as ints
        vars(part).update({k: v.item() for k, v in vars(part).items() if isinstance(v, np.ndarray)})
    return logits[0], stats, ops


def default_gate_params(plan: ConversionPlan, act: HardActConfig, hidden: int,
                        shift: bool = True, surrogate_gamma: float = 0.3,
                        dtype=np.float64) -> dict:
    """Converted-default LIF parameters for every spiking gate.

    Sigmoid gates carry the intrinsic half-offset as a per-step bias of
    v_sig/2 and (with shift on) a one-time membrane init of v_sig/2; tanh
    gates keep zero step bias and init at v_tanh_pos/2. All leaks start
    at 1 (IF) so fine-tuning, not conversion, discovers leak values. Every
    field is an array of shape [hidden] at `dtype`.
    """
    def full(value):
        return np.full(hidden, value, dtype)

    params = {}
    for gate in plan.spiking_gates:
        if gate in ("g", "c"):
            params[gate] = LIFGateParams(
                leak=full(1.0),
                threshold_pos=full(act.v_tanh_pos),
                threshold_neg=full(act.v_tanh_neg),
                step_bias=full(0.0),
                mem_init=full(act.v_tanh_pos / 2.0 if shift else 0.0),
                surrogate_gamma=surrogate_gamma,
            )
        else:
            params[gate] = LIFGateParams(
                leak=full(1.0),
                threshold_pos=full(act.v_sig),
                step_bias=full(act.v_sig / 2.0),
                mem_init=full(act.v_sig / 2.0 if shift else 0.0),
                surrogate_gamma=surrogate_gamma,
            )
    return params
