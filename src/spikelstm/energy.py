"""Operation accounting and energy estimation.

Counting conventions (fixed, asserted by tests):

* a MAC is one fused multiply-accumulate op; gate bias adds ride along free
* spiking accumulates are strictly event-driven: one signed add per
  nonzero input spike per fan-out target
* membrane threshold compares cost units x steps per spiking gate, twice
  for ternary neurons; the three mask/sign selects of the cell datapath
  (f o c_in, i o g, o o s_c) are counted in the same comparison class
* the direct-encoding input projection is computed once per sequence
  element and reused across the T internal steps (it is constant), so its
  MAC count matches the non-spiking input projection
* leak scaling when leak != 1 costs one multiply per affected unit per
  step, bucketed separately from the datapath multiplier audit
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MultiplierAuditError, ValidationError


@dataclass(eq=False)
class LayerSpikeStats:
    """Spike tallies of one spiking layer over one batched run: nonzero
    inputs consumed (zero for an analog input) and hidden spikes emitted
    per sample, element and step ([B, N, T], summed over units), and
    gate -> [B] spikes of each spiking gate (its summed spike components,
    the nonzero count for hard spikes)."""

    units: int
    fan_in: int
    input_analog: bool
    input_nnz: np.ndarray
    hidden_nnz: np.ndarray
    gate_spikes: dict

    @classmethod
    def zeros(cls, units, fan_in, input_analog, shape, gates) -> "LayerSpikeStats":
        """Zero tallies of a run over shape (B, N, T) for the spiking gates."""
        return cls(units, fan_in, input_analog, np.zeros(shape, np.int64),
                   np.zeros(shape, np.int64), {g: np.zeros(shape[0], np.int64) for g in gates})

    @property
    def hidden_nnz_total(self) -> int:
        return int(self.hidden_nnz.sum())

    def __eq__(self, other) -> bool:
        def key(s):
            return (s.units, s.fan_in, s.input_analog, s.input_nnz.tolist(),
                    s.hidden_nnz.tolist(), {g: v.tolist() for g, v in s.gate_spikes.items()})
        return isinstance(other, LayerSpikeStats) and key(self) == key(other)


@dataclass
class SpikeStats:
    """Per-layer spike tallies of a batched run and the encoding it used."""

    layers: list
    encoding: str

    @property
    def shape(self) -> tuple:
        """(B, N, T): the samples, elements and steps the counts cover."""
        return self.layers[0].hidden_nnz.shape

    def mean_hidden_rate(self) -> float:
        total = sum(s.hidden_nnz_total for s in self.layers)
        possible = sum(s.units * s.hidden_nnz.size for s in self.layers)
        return total / possible if possible else 0.0

    def gate_rates(self) -> list:
        """Per layer: gate -> [B] fractions of each sample's unit-steps with
        a nonzero spike."""
        return [{g: v / (s.units * s.hidden_nnz[0].size) for g, v in s.gate_spikes.items()}
                for s in self.layers]


@dataclass
class LayerOps:
    """Op tallies for one layer (totals are sums of parts): ints, but a
    batched spiking count holds the accumulates per sample, [B] int64."""

    hidden: int
    fan_in: int
    macs: int = 0              # input-projection MACs (direct first layer / ANN gates)
    multiplies: int = 0        # datapath multiplies; must be 0 in spiking layers
    accumulates: int = 0
    recurrent_accumulates: int = 0  # subset of accumulates driven by hidden spikes
    comparisons: int = 0
    activations: int = 0
    leak_multiplies: int = 0


@dataclass
class OpCountReport:
    """Exact operation tallies per evaluated sequence. A batched count holds
    the event-driven ones (head_accumulates, the layers' accumulates, hence
    accumulates and total_flops) as [B] arrays, one entry per sample."""

    layers: list
    n_elements: int
    time_steps: int
    encoding: str
    head_macs: int = 0
    head_accumulates: int = 0

    @property
    def macs(self) -> int:
        return sum(l.macs for l in self.layers) + self.head_macs

    @property
    def multiplies(self) -> int:
        return sum(l.multiplies for l in self.layers)

    @property
    def accumulates(self) -> int:
        return sum(l.accumulates for l in self.layers) + self.head_accumulates

    @property
    def comparisons(self) -> int:
        return sum(l.comparisons for l in self.layers)

    @property
    def activations(self) -> int:
        return sum(l.activations for l in self.layers)

    @property
    def leak_multiplies(self) -> int:
        return sum(l.leak_multiplies for l in self.layers)

    @property
    def total_flops(self) -> int:
        return (self.macs + self.multiplies + self.accumulates + self.comparisons
                + self.activations + self.leak_multiplies)


# Per-op energies (arbitrary units, the usual 45 nm 32-bit float accounting)
# and the normalized neuromorphic (compute, static) pairs.
E_MAC, E_AC, E_COMPARE, E_ACT = 4.6, 0.9, 0.1, 0.9
NEUROMORPHIC = {"truenorth": (0.4, 0.6), "spinnaker": (0.64, 0.36)}


def count_ops_ann(model, n_elements: int) -> OpCountReport:
    """Dense op tallies of the hard-activation LSTM over N elements.

    Per element and layer: 4 gate matvecs as MACs, 3 elementwise multiplies
    (f o c, i o g, o o tanh_c), 1 accumulate per unit for the cell sum, and
    5 activation evaluations per unit.
    """
    layers = []
    for w in model.layers:
        h, f = w.hidden_dim, w.input_dim
        layers.append(LayerOps(
            hidden=h, fan_in=f,
            macs=4 * h * (f + h) * n_elements,
            multiplies=3 * h * n_elements,
            accumulates=h * n_elements,
            activations=5 * h * n_elements,
        ))
    head_macs = sum(W.size for W, _ in model.head.weights)
    return OpCountReport(layers=layers, n_elements=n_elements, time_steps=1,
                         encoding="analog", head_macs=head_macs)


def step_comparisons(cell) -> int:
    """Comparisons of one spiking-cell step: a threshold compare per unit
    and spiking neuron (two for ternary ones) plus the three mask/sign
    selects of the cell datapath."""
    h = cell.hidden_dim
    return sum((2 if p.is_ternary else 1) * h for p in cell.gate_params.values()) + 3 * h


def direct_input_macs(cell) -> int:
    """MACs of a cell's direct-encoding input projection for one element
    (computed once and reused across its T steps)."""
    return 4 * cell.hidden_dim * cell.input_dim


def count_ops_snn(stats: SpikeStats, model) -> OpCountReport:
    """Event-driven op tallies of every sample of a spiking run from its
    recorded stats (N, T and encoding are the stats'), in one pass: the
    accumulates are [B] int64 arrays, the sample-independent counts ints."""
    _, n_elements, time_steps = stats.shape
    if len(stats.layers) != len(model.cells):
        raise ValidationError("spike stats layer count != model layer count")
    steps = n_elements * time_steps
    layers = []
    for s, cell in zip(stats.layers, model.cells):
        if s.units != cell.weights.hidden_dim:
            raise ValidationError("spike stats unit count != model hidden dim")
        h = s.units
        fanout = 4 * h
        recurrent_nnz = s.hidden_nnz[:, :-1].sum(axis=(1, 2))  # the last element's feed the head
        leak_units = 0
        for params in cell.gate_params.values():
            leak_units += int(np.count_nonzero(np.broadcast_to(params.leak, (h,)) != 1.0))
        layers.append(LayerOps(
            hidden=h, fan_in=s.fan_in,
            macs=direct_input_macs(cell) * n_elements if s.input_analog else 0,
            multiplies=0,
            accumulates=fanout * (s.input_nnz.sum(axis=(1, 2)) + recurrent_nnz),
            recurrent_accumulates=fanout * recurrent_nnz,
            comparisons=step_comparisons(cell) * steps,
            activations=h * steps,  # the one analog gate's hard-activation evals
            leak_multiplies=leak_units * steps,
        ))
    head_macs = sum(W.size for W, _ in model.head.weights)
    head_acc = stats.layers[-1].hidden_nnz[:, -1].sum(axis=1)  # readout rate accumulation
    return OpCountReport(layers=layers, n_elements=n_elements, time_steps=time_steps,
                         encoding=stats.encoding, head_macs=head_macs,
                         head_accumulates=head_acc)


def audit_multiplier_free(report: OpCountReport) -> None:
    """Assert the spiking datapath needs no multiplies outside the allowed
    buckets (direct-encoding input projection, head, separately bucketed
    leak scaling). Raises MultiplierAuditError otherwise, naming the layer
    and, for a count held per sample, the first offending sample."""
    for idx, layer in enumerate(report.layers):
        macs = layer.macs if idx > 0 or report.encoding == "poisson" else 0
        for count, what in ((layer.multiplies, "datapath multiplies"),
                            (macs, "MACs, allowed only in a direct-encoded first layer")):
            bad = np.flatnonzero(count)
            if bad.size:
                where = f", sample {bad[0]}," if np.ndim(count) else ""
                raise MultiplierAuditError(
                    f"layer {idx}{where} reports {np.ravel(count)[bad[0]]} {what}")


def estimate_energy(report: OpCountReport) -> dict:
    """Digital per-op-weighted energy plus the neuromorphic FLOPs *
    E_compute + T * E_static estimate per platform, [B] where the counts are."""
    digital = {
        "mac": report.macs * E_MAC,
        "multiply": report.multiplies * E_MAC,
        "accumulate": report.accumulates * E_AC,
        "compare": report.comparisons * E_COMPARE,
        "activation": report.activations * E_ACT,
        "leak_multiply": report.leak_multiplies * E_MAC,
    }
    digital["total"] = sum(digital.values())
    neuromorphic = {
        name: report.total_flops * e_compute + report.time_steps * e_static
        for name, (e_compute, e_static) in NEUROMORPHIC.items()
    }
    return {"digital": digital, "neuromorphic": neuromorphic,
            "total_flops": report.total_flops, "time_steps": report.time_steps}
