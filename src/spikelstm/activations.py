"""Hard (clipped piecewise-linear) activations and their subgradients.

The hard sigmoid is a single ramp of width ``v_sig`` centred on zero; the
hard tanh is decoupled into two ramps with independent positive and
negative scales so each half can later be realized by a thresholded
spiking neuron. Each function keeps its input's float dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class HardActConfig:
    """Scales of the clipped activations.

    v_sig: width of the hard-sigmoid ramp (output 0 at -v_sig/2, 1 at +v_sig/2).
    v_tanh_pos: input at which the positive tanh ramp saturates at +1.
    v_tanh_neg: (negative) input at which the negative ramp saturates at -1.
    """

    v_sig: float = 4.0
    v_tanh_pos: float = 3.0
    v_tanh_neg: float = -2.0

    def __post_init__(self):
        if not self.v_sig > 0:
            raise ValidationError(f"v_sig must be > 0, got {self.v_sig}")
        if not self.v_tanh_pos > 0:
            raise ValidationError(f"v_tanh_pos must be > 0, got {self.v_tanh_pos}")
        if not self.v_tanh_neg < 0:
            raise ValidationError(f"v_tanh_neg must be < 0, got {self.v_tanh_neg}")


def hard_sigmoid(z, cfg: HardActConfig):
    """clip(z / v_sig + 1/2, 0, 1). Total function, symmetric about (0, 1/2)."""
    out = np.asarray(z / cfg.v_sig)  # in place; ndarray.clip skips np.clip's wrappers
    out += 0.5
    return out.clip(0.0, 1.0, out=out)


def hard_sigmoid_grad(z, cfg: HardActConfig):
    """Subgradient of hard_sigmoid; 1/v_sig on the closed linear region."""
    half = cfg.v_sig / 2.0
    return ((z >= -half) & (z <= half)) * _slope(z, cfg.v_sig)


def hard_tanh(z, cfg: HardActConfig):
    """Two-ramp hard tanh: z/v_tanh_pos clipped to [0,1] for z >= 0,
    z/|v_tanh_neg| clipped to [-1,0] for z < 0. Continuous with value 0 at 0.
    The sum of both ramps, the positive one clipped below at -0.0: the pick
    by the sign of z, bit for bit (README: Hard activations)."""
    out = np.asarray(z / cfg.v_tanh_pos)
    out.clip(-0.0, 1.0, out=out)
    neg = np.asarray(z / abs(cfg.v_tanh_neg))
    out += neg.clip(-1.0, 0.0, out=neg)
    return out


def hard_tanh_grad(z, cfg: HardActConfig):
    """Subgradient of hard_tanh; the z >= 0 branch owns the origin."""
    g_pos = ((z >= 0.0) & (z <= cfg.v_tanh_pos)) * _slope(z, cfg.v_tanh_pos)
    return g_pos + ((z < 0.0) & (z >= cfg.v_tanh_neg)) * _slope(z, abs(cfg.v_tanh_neg))


def _slope(z, scale):
    """1 / scale at the float dtype of z; mask * it is where(mask, it, 0.0)."""
    return np.asarray(1.0 / scale, np.result_type(z, 1.0))
