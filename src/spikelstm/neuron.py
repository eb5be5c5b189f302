"""Time-stepped IF/LIF neuron primitives and their closed-form averages.

Conventions, fixed across the toolkit:

* membrane update: U <- leak * U + pre_act + step_bias
* spiking is strict (U > threshold_pos, U < threshold_neg); the engines'
  spike rule `spike` (V/theta > 1) decides the same for either sign
* reset is always by subtraction of the crossed threshold (soft reset),
  so residual charge survives a spike
* sigmoid-type neurons realize the intrinsic half-offset of the hard
  sigmoid as a per-step bias of v/2 with the full v as threshold; the
  optimal staircase shift v/(2T) is realized as a one-time membrane
  initialization of v/2 at the start of each sequence element
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault, ValidationError

#: Sentinel returned by first-spike-time queries when the drive can never
#: push the membrane over threshold.
NEVER = "never"

# Guard band for excluding exact floor/ceil boundaries: floating-point
# floor at representable integers is representation-dependent.
TIE_EPS = 1e-9

#: LIFGateParams's trainable fields, in checkpoint and parameter-name order
LIF_FIELDS = ("leak", "threshold_pos", "threshold_neg", "step_bias", "mem_init")
#: the sign each bounded field must keep (threshold_neg when present)
LIF_SIGNS = {"leak": 1, "threshold_pos": 1, "threshold_neg": -1}


@dataclass
class LIFGateParams:
    """Trainable spiking parameters of one gate (scalars or per-unit vectors).

    threshold_neg is present only for tanh-type (ternary) neurons.
    """

    leak: np.ndarray | float = 1.0
    threshold_pos: np.ndarray | float = 1.0
    threshold_neg: np.ndarray | float | None = None
    step_bias: np.ndarray | float = 0.0
    mem_init: np.ndarray | float = 0.0
    surrogate_gamma: float = 0.3

    def __post_init__(self):
        values = {name: np.ravel(v) for name, v in vars(self).items() if v is not None}
        # NaN passes every comparison below; one isfinite call checks all fields
        if not np.isfinite(np.concatenate(list(values.values()))).all():
            name = next(name for name, v in values.items() if not np.isfinite(v).all())
            raise ValidationError(f"{name} must be finite")
        for name, sign in LIF_SIGNS.items():
            if name in values and (sign * values[name] <= 0).any():
                raise ValidationError(f"{name} must be {'>' if sign > 0 else '<'} 0"
                                      + (" when present" if sign < 0 else ""))
        # gamma 0 is allowed (it collapses the surrogate support, a useful
        # training diagnostic)
        if self.surrogate_gamma < 0:
            raise ValidationError("surrogate_gamma must be >= 0")

    @property
    def is_ternary(self) -> bool:
        return self.threshold_neg is not None


@dataclass
class NeuronState:
    """Mutable membrane potentials of a bank of neurons."""

    membrane: np.ndarray

    @classmethod
    def initialized(cls, params: LIFGateParams, shape, dtype=np.float64) -> "NeuronState":
        """A bank of the given shape ([units] or [batch, units]) at mem_init."""
        mem = np.broadcast_to(np.asarray(params.mem_init, dtype=dtype), shape)
        return cls(membrane=mem.copy())


def _check_finite(membrane: np.ndarray, gates: tuple = ()) -> None:
    """Raise NumericalFault at the first non-finite entry of a membrane
    bank [units], [batch, units] or, with `gates` naming its leading axis,
    [gate, batch, units]; the message names the gate, sample and unit."""
    if not np.isfinite(membrane).all():
        finite = np.isfinite(np.atleast_1d(membrane))
        *lead, unit = np.unravel_index(int(np.flatnonzero(~finite)[0]), finite.shape)
        place = [f"gate {gates[lead.pop(0)]}"] if gates else []
        place += [f"sample {b}" for b in lead] + [f"unit {unit}"]
        raise NumericalFault(f"non-finite membrane potential at {', '.join(place)}")


def step_sigmoid_neuron(state: NeuronState, pre_act, params: LIFGateParams) -> np.ndarray:
    """Advance binary (sigmoid-type) neurons one step; returns 0/1 spikes.

    Mutates state.membrane in place (leak, integrate, threshold, soft reset).
    """
    pre_act = np.asarray(pre_act, dtype=state.membrane.dtype)
    if pre_act.shape != state.membrane.shape:
        raise ValidationError(
            f"pre_act shape {pre_act.shape} != state shape {state.membrane.shape}"
        )
    u = params.leak * state.membrane + pre_act + params.step_bias
    _check_finite(u)
    spikes = (u > params.threshold_pos).astype(state.membrane.dtype)
    state.membrane = u - params.threshold_pos * spikes
    return spikes


def step_tanh_neuron(state: NeuronState, pre_act, params: LIFGateParams) -> np.ndarray:
    """Advance ternary (tanh-type) neurons one step; returns -1/0/+1 spikes.

    A +1 spike subtracts threshold_pos from the membrane; a -1 spike
    subtracts threshold_neg (i.e. adds its magnitude back).
    """
    if params.threshold_neg is None:
        raise ValidationError("tanh-type neuron requires threshold_neg")
    pre_act = np.asarray(pre_act, dtype=state.membrane.dtype)
    if pre_act.shape != state.membrane.shape:
        raise ValidationError(
            f"pre_act shape {pre_act.shape} != state shape {state.membrane.shape}"
        )
    u = params.leak * state.membrane + pre_act + params.step_bias
    _check_finite(u)
    pos = (u > params.threshold_pos).astype(state.membrane.dtype)
    neg = (u < params.threshold_neg).astype(state.membrane.dtype)
    state.membrane = u - params.threshold_pos * pos - params.threshold_neg * neg
    return pos - neg


def if_avg_sigmoid(z_bar, T: int, v: float, shift: float = 0.0):
    """Closed-form T-step average output of the IF sigmoid neuron:
    (1/T) * clip(floor((T/v) * (z_bar + shift + v/2)), 0, T).
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    z_bar = np.asarray(z_bar, dtype=np.float64)
    counts = np.clip(np.floor((T / v) * (z_bar + shift + v / 2.0)), 0, T)
    return counts / T


def if_avg_tanh(z_bar, T: int, cfg, shift_pos: float = 0.0, shift_neg: float = 0.0):
    """Closed-form T-step average output of the IF tanh neuron.

    The negative branch's printed form has an ambiguous sign convention;
    here it is pinned so the output sign matches time-stepped simulation:
    magnitudes accumulate against |v_tanh_neg| and the result is negated.
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    z_bar = np.asarray(z_bar, dtype=np.float64)
    pos = np.clip(np.floor((T / cfg.v_tanh_pos) * (z_bar + shift_pos)), 0, T) / T
    neg = -np.clip(np.floor((T / abs(cfg.v_tanh_neg)) * (np.abs(z_bar) + abs(shift_neg))), 0, T) / T
    return np.where(z_bar > 0.0, pos, np.where(z_bar == 0.0, 0.0, neg))


def lif_first_spike_time(z_bar: float, v: float, leak: float):
    """First-spike step of a LIF neuron under constant drive, or NEVER.

    leak == 1 degenerates to ceil(v / z_bar). Otherwise
    t = ceil(log(1 - v*(1-leak)/z_bar) / log(leak)), with the never-spike
    condition z_bar <= v*(1-leak) (and z_bar <= 0 for leak > 1, where the
    geometric sum changes sign).
    """
    if leak <= 0:
        raise ValidationError(f"leak must be > 0, got {leak}")
    if v <= 0:
        raise ValidationError(f"threshold must be > 0, got {v}")
    if z_bar <= 0 or z_bar <= v * (1.0 - leak):
        return NEVER
    if leak == 1.0:
        q = v / z_bar
    else:
        q = np.log1p(-v * (1.0 - leak) / z_bar) / np.log(leak)
    # Snap to the nearest integer when within the tie guard so the result
    # is deterministic at exact-boundary drives.
    nearest = round(q)
    t = int(nearest) if abs(q - nearest) < TIE_EPS else int(np.ceil(q))
    return max(t, 1)


def lif_avg_sigmoid(z_bar: float, T: int, v: float, leak: float) -> float:
    """Estimated T-step average LIF output: (1/T) * floor(T / first_spike_time),
    0 when the neuron never spikes. The floor(T/t) periodicity is an
    estimate; soft-reset residuals perturb it by up to one spike.
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    t = lif_first_spike_time(z_bar, v, leak)
    if t == NEVER:
        return 0.0
    return float(np.floor(T / t)) / T


def spike(V, theta, gamma, relaxed):
    """Monotone spike component of membrane V against one threshold: the
    indicator of V/theta > 1 (covers both threshold signs) or, relaxed,
    its triangle-ramp relaxation gamma * ramp(V/theta), which rises from 0
    at V/theta <= 0 to gamma at V/theta >= 2. A ternary neuron emits
    spike(V, theta_pos) - spike(V, theta_neg)."""
    x = V / theta
    if relaxed:
        x = np.clip(x, 0.0, 2.0)
        return gamma * np.where(x <= 1.0, 0.5 * x * x, 1.0 - 0.5 * (2.0 - x) ** 2)
    return (x > 1.0).astype(V.dtype)


def _triangle(V, theta):
    """max(0, 1 - |V/theta - 1|), which integrates to |theta| in V."""
    return np.maximum(0.0, 1.0 - np.abs(V / theta - 1.0))


def spike_slope(V, theta, gamma):
    """The V-partial of spike(V, theta, gamma, relaxed) in either mode:
    (gamma/theta) * tri on the triangle, the surrogate when hard."""
    return (gamma / theta) * _triangle(V, theta)


def spike_partials(V, theta, gamma, relaxed):
    """V- and theta-partials of spike(V, theta, gamma, relaxed).

    The V-partial is spike_slope. Hard, the theta-partial is its exact
    negation, the conventional -(gamma/theta) * tri. Relaxed: the exact
    partials of gamma * ramp(V/theta).
    """
    if not relaxed:
        dsdv = spike_slope(V, theta, gamma)
        return dsdv, -dsdv
    tri = _triangle(V, theta)
    return (gamma / theta) * tri, -(gamma * V / (theta * theta)) * tri


def optimal_shift(v_th: float, T: int) -> float:
    """Sign-preserving optimal staircase shift v_th / (2T)."""
    if T < 1:
        raise ValidationError("T must be >= 1")
    return v_th / (2.0 * T)


def run_constant_drive(
    params: LIFGateParams, z_bar, T: int, units: int | None = None, ternary: bool = False
) -> np.ndarray:
    """Simulate T steps at constant pre-activation; returns [T, units] spikes.

    Convenience wrapper used by the closed-form oracles and tests.
    """
    z_bar = np.atleast_1d(np.asarray(z_bar, dtype=np.float64))
    if units is None:
        units = z_bar.shape[0]
    state = NeuronState.initialized(params, (units,))
    step = step_tanh_neuron if ternary else step_sigmoid_neuron
    out = np.empty((T, units))
    for t in range(T):
        out[t] = step(state, np.broadcast_to(z_bar, (units,)), params)
    return out
