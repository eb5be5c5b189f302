"""Hard-activation LSTM: weights, cell recurrence, stacked model, FC head.

ann_batch_forward is the one ANN forward; ann_cell_step is the per-step
reference cell the tests hold it to.

Gate order everywhere (including checkpoints) is f, i, g, o but in
ann_batch_forward's z, f, i, o, g. The cell output shares g's hard tanh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import HardActConfig, hard_sigmoid, hard_tanh
from .errors import DimensionMismatch, ValidationError

GATES = ("f", "i", "g", "o")


class GateProjection:
    """x @ m.T for G matrices m [H, K], the gates or a head layer, from one
    C-contiguous, gate-major pack [G, K, H'], H zero-padded to a multiple of
    16: one GEMM per gate over x's rows flattened to [M, K], a lone row beside
    a copy of itself, so a row's bits do not depend on the batch (README).
    A result is a view into the [G, M, H'] product, which it keeps alive."""

    def __init__(self, mats):
        self.width, fan_in = mats[0].shape
        self.pack = np.zeros((len(mats), fan_in, -(-self.width // 16) * 16), mats[0].dtype)
        for slot, m in zip(self.pack, mats):  # 5x faster at 128x128 than one 3-D transpose
            slot[:, :self.width] = m.T

    def __call__(self, x):
        """x [..., K] -> [G, ..., H]."""
        rows = np.ascontiguousarray(x).reshape(-1, x.shape[-1])
        out = (rows if len(rows) > 1 else rows.repeat(2, axis=0)) @ self.pack
        return out[:, :len(rows), :self.width].reshape(len(out), *x.shape[:-1], self.width)


@dataclass
class LSTMWeights:
    """Per-gate weights: w_x [hidden, input], w_h [hidden, hidden], b [hidden]."""

    w_x: dict
    w_h: dict
    b: dict

    def __post_init__(self):
        h = self.hidden_dim
        f = self.input_dim
        for a in GATES:
            if self.w_x[a].shape != (h, f) or self.w_h[a].shape != (h, h) or self.b[a].shape != (h,):
                raise DimensionMismatch(f"inconsistent gate weight shapes for gate {a!r}")
            for arr in (self.w_x[a], self.w_h[a], self.b[a]):
                if not np.all(np.isfinite(arr)):
                    raise ValidationError(f"non-finite weight in gate {a!r}")

    @property
    def hidden_dim(self) -> int:
        return self.w_x["f"].shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_x["f"].shape[1]

    @property
    def dtype(self) -> np.dtype:
        """The dtype the layer, and a model of such layers, computes at."""
        return self.w_x["f"].dtype

    def projections(self, order=GATES):
        """GateProjections of x and of h, the gates in `order`."""
        return tuple(GateProjection([m[a] for a in order]) for m in (self.w_x, self.w_h))

    def copy(self) -> "LSTMWeights":
        return LSTMWeights(
            w_x={a: self.w_x[a].copy() for a in GATES},
            w_h={a: self.w_h[a].copy() for a in GATES},
            b={a: self.b[a].copy() for a in GATES},
        )

    @classmethod
    def random(cls, input_dim: int, hidden_dim: int, rng, scale: float = 0.1,
               forget_bias: float = 0.0) -> "LSTMWeights":
        _check_scale(scale)
        b = {a: np.zeros(hidden_dim) for a in GATES}
        b["f"] += forget_bias  # positive init eases long-range recall tasks
        return cls(
            w_x={a: rng.uniform(-scale, scale, (hidden_dim, input_dim)) for a in GATES},
            w_h={a: rng.uniform(-scale, scale, (hidden_dim, hidden_dim)) for a in GATES},
            b=b,
        )


def _check_scale(scale) -> None:
    """uniform(-scale, scale) draws from a range of width 2 * scale, which
    must be finite."""
    if not math.isfinite(2 * scale):
        raise ValidationError(f"init scale {scale} is too large to sample: 2 * scale "
                              f"must be finite")


@dataclass
class ClassifierHead:
    """One or two dense layers (ReLU between), non-spiking multi-bit weights."""

    weights: list  # [[W [out, in], b [out]], ...]

    def __post_init__(self):
        if not 1 <= len(self.weights) <= 2:
            raise ValidationError("head must have one or two dense layers")
        for W, b in self.weights:
            if W.shape[0] != b.shape[0]:
                raise DimensionMismatch("head weight/bias shapes disagree")

    @property
    def input_dim(self) -> int:
        return self.weights[0][0].shape[1]

    @property
    def n_classes(self) -> int:
        return self.weights[-1][0].shape[0]

    def copy(self) -> "ClassifierHead":
        return ClassifierHead([[W.copy(), b.copy()] for W, b in self.weights])

    @classmethod
    def random(cls, dims: list, rng, scale: float = 0.1) -> "ClassifierHead":
        """dims = [in, out] or [in, hidden, out]."""
        _check_scale(scale)
        pairs = []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            pairs.append([rng.uniform(-scale, scale, (d_out, d_in)), np.zeros(d_out)])
        return cls(pairs)

    def forward(self, v: np.ndarray) -> np.ndarray:
        """v: [units] or [batch, units] -> logits."""
        return self.forward_cached(v)[0]

    def forward_cached(self, v: np.ndarray):
        """Logits plus the layer inputs (pre-ReLU after the first) that the
        backward pass needs."""
        out = np.asarray(v)
        caches = [out]
        for k, (W, b) in enumerate(self.weights):
            out = GateProjection([W])(out)[0] + b
            if k < len(self.weights) - 1:
                caches.append(out)
                out = np.maximum(out, 0.0)
        return out, caches


@dataclass
class AnnLSTM:
    """Stacked hard-activation LSTM plus classifier head."""

    layers: list  # [LSTMWeights]
    head: ClassifierHead
    act: HardActConfig = field(default_factory=HardActConfig)

    def __post_init__(self):
        for lower, upper in zip(self.layers[:-1], self.layers[1:]):
            if lower.hidden_dim != upper.input_dim:
                raise DimensionMismatch(
                    f"layer stack mismatch: hidden {lower.hidden_dim} feeds input {upper.input_dim}"
                )
        if self.head.input_dim != self.layers[-1].hidden_dim:
            raise DimensionMismatch("head input dim != top layer hidden dim")

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def hidden_dims(self) -> list:
        return [w.hidden_dim for w in self.layers]

    @property
    def dtype(self) -> np.dtype:
        return self.layers[0].dtype

    @classmethod
    def random(cls, input_dim, hidden_dims, head_dims, rng, act=None, scale=0.1,
               forget_bias=0.0) -> "AnnLSTM":
        layers = []
        d = input_dim
        for h in hidden_dims:
            layers.append(LSTMWeights.random(d, h, rng, scale, forget_bias))
            d = h
        head = ClassifierHead.random([d] + list(head_dims), rng, scale)
        return cls(layers=layers, head=head, act=act or HardActConfig())


def ann_cell_step(weights: LSTMWeights, h_prev, c_prev, x, cfg: HardActConfig):
    """One hard-activation LSTM step; returns (h, c).

    f,i,o use the hard sigmoid; g and the cell output use the hard tanh.
    Accepts [units] vectors or [batch, units] arrays, and computes at the
    weights' dtype.
    """
    x, h_prev, c_prev = (np.asarray(a, dtype=weights.dtype) for a in (x, h_prev, c_prev))
    if x.shape[-1] != weights.input_dim or h_prev.shape[-1] != weights.hidden_dim:
        raise DimensionMismatch(
            f"cell step got x dim {x.shape[-1]} (want {weights.input_dim}), "
            f"h dim {h_prev.shape[-1]} (want {weights.hidden_dim})"
        )
    proj_x, proj_h = weights.projections()
    z = {a: zx + zh + weights.b[a] for a, zx, zh in zip(GATES, proj_x(x), proj_h(h_prev))}
    f = hard_sigmoid(z["f"], cfg)
    i = hard_sigmoid(z["i"], cfg)
    o = hard_sigmoid(z["o"], cfg)
    g = hard_tanh(z["g"], cfg)
    c = f * c_prev + i * g
    h = o * hard_tanh(c, cfg)
    return h, c


def ann_batch_forward(model: AnnLSTM, X: np.ndarray, want_caches: bool = False):
    """Batched forward over [B, N, F]; returns logits (+caches).

    X is cast to the model's dtype, at which every array of the run is
    made. h and c start at zero; logits come from the head on the final
    hidden state of the top layer. The caches hold every gate value the
    backward pass and the conversion-error report read, z per step as
    [4, B, H] of gates f, i, o, g and the gates as (f, i, g, o, tc).
    """
    X = np.asarray(X, dtype=model.dtype)
    if X.ndim != 3 or 0 in X.shape[:2]:
        raise ValidationError(f"input must be non-empty [B, N, F], got shape {X.shape}")
    if X.shape[2] != model.input_dim:
        raise DimensionMismatch(f"input has {X.shape[2]} features, model wants {model.input_dim}")
    batch, n_elements, _ = X.shape
    x_seq = X
    layer_caches = []
    for w in model.layers:
        h = np.zeros((batch, w.hidden_dim), dtype=X.dtype)
        c = np.zeros_like(h)
        cache = {"z": [], "gates": [], "c": [c], "h": [h], "x": x_seq}
        outs = np.empty((batch, n_elements, w.hidden_dim), dtype=X.dtype)
        order = ("f", "i", "o", "g")  # the sigmoid gates first, for one hard_sigmoid call
        proj_x, proj_h = w.projections(order)
        b = np.array([w.b[a] for a in order])[:, None]
        for n in range(n_elements):
            z = proj_x(x_seq[:, n])  # in place, as [4, B, H] temporaries cost
            z += proj_h(h)
            z += b
            f, i, o = hard_sigmoid(z[:3], model.act)
            g = hard_tanh(z[3], model.act)
            c = f * c + i * g
            tc = hard_tanh(c, model.act)
            h = o * tc
            outs[:, n] = h
            if want_caches:
                cache["z"].append(z)
                cache["gates"].append((f, i, g, o, tc))
                cache["c"].append(c)
                cache["h"].append(h)
        x_seq = outs
        layer_caches.append(cache)
    logits, head_cache = model.head.forward_cached(x_seq[:, -1])
    if want_caches:
        return logits, {"layers": layer_caches, "head": head_cache}
    return logits
