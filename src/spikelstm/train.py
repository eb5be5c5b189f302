"""Reverse-mode training engines.

Both run BPTT over the tapes of the one batched forward per model kind:
`ann_batch_forward` (lstm) and `snn_batch_forward` (snn), re-exported here.

ann_backward: exact BPTT through the hard-activation LSTM (subgradients
from the linear side at clip kinks).

snn_backward: surrogate-gradient BPTT unrolled over (element, step),
jointly over weights, thresholds, leaks, per-step biases and membrane
initializations. The spike Heaviside's derivative is replaced by the
triangular surrogate (neuron.spike_partials); ternary neurons use the sum
of the two triangles centred at the two thresholds. The soft-reset path
carries gradient by default. The tape holds the membranes, the analog
pre-activation, H and C; the backward replays each element's spikes,
entering membranes and analog activation from it (tape.replay_backwards),
in passes small enough that the temporaries stay in cache, and reads them
in the forward's layout: per cell, one LIF backward for the [3, B, H] bank
and one for the c neuron, in descending (n, t).

The hard and relaxed SNN modes share one backward; `relaxed=True` switches
the forward to the triangle-ramp relaxation of every spike (whose exact
derivative IS the surrogate), which makes the engine the exact gradient
of a differentiable function and therefore checkable against central
finite differences. The hard mode runs the identical code on hard spike
values.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .activations import hard_sigmoid_grad, hard_tanh_grad
from .errors import NumericalFault, TrainingDiverged, ValidationError
from .lstm import GATES, AnnLSTM, ann_batch_forward
from .neuron import LIF_FIELDS, LIF_SIGNS, spike_partials, spike_slope
from .snn import SpikingLSTM, snn_batch_forward

# A GradientBundle is a dict param-name -> gradient array, shapes matching
# model_parameters(model).
GradientBundle = dict

EVAL_CHUNK = 256  # samples per batched forward when evaluating a set


@dataclass
class TrainMask:
    """Which parameter groups train. Head weights follow `weights`."""

    weights: bool = True
    threshold: bool = False
    leak: bool = False
    mem_init: bool = False
    step_bias: bool = False

    def allows(self, name: str) -> bool:
        if ".lif." in name:
            fieldname = name.rsplit(".", 1)[1]
            return {
                "leak": self.leak,
                "threshold_pos": self.threshold,
                "threshold_neg": self.threshold,
                "step_bias": self.step_bias,
                "mem_init": self.mem_init,
            }[fieldname]
        return self.weights


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    lr: float = 1e-3
    grad_clip: float = 5.0
    seed: int = 0
    precision: str = "f64"
    mask: TrainMask = field(default_factory=TrainMask)
    lr_decay_epochs: tuple = ()
    lr_decay_factor: float = 0.1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        if self.precision not in ("f64", "f32"):
            raise ValidationError(f"precision must be f64 or f32, got {self.precision!r}")
        for name in ("lr", "grad_clip", "lr_decay_factor"):  # a sign flip or a silent no-op
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# parameter access

def _parameter_table(model) -> dict:
    """Ordered name -> (holder, key) of every trainable tensor, the tensor
    being holder[key]: an LSTMWeights dict, a head [W, b] pair or the vars()
    of a LIFGateParams (its fields that are set)."""
    if isinstance(model, AnnLSTM):
        prefix, layers, cells = "layers", model.layers, []
    elif isinstance(model, SpikingLSTM):
        prefix, cells = "cells", model.cells
        layers = [c.weights for c in cells]
    else:
        raise ValidationError(f"unknown model type {type(model).__name__}")
    table = {f"{prefix}.{li}.{kind}.{a}": (getattr(w, kind), a)
             for li, w in enumerate(layers) for a in GATES for kind in ("w_x", "w_h", "b")}
    table.update((f"cells.{li}.lif.{gate}.{name}", (vars(lif), name))
                 for li, cell in enumerate(cells) for gate, lif in sorted(cell.gate_params.items())
                 for name in LIF_FIELDS if getattr(lif, name) is not None)
    table.update((f"head.{k}.{name}", (pair, j))
                 for k, pair in enumerate(model.head.weights) for j, name in enumerate("Wb"))
    return table


def model_parameters(model) -> dict:
    """Ordered name -> array view of every trainable tensor."""
    return {name: holder[key] for name, (holder, key) in _parameter_table(model).items()}


def set_parameters(model, new_values: dict) -> None:
    """Rebind parameter arrays (used for dtype switches and snapshots). Each
    name must be one of model_parameters(model) and each value of its
    shape, else ValidationError before anything is rebound."""
    table = _parameter_table(model)
    for name, value in new_values.items():
        if name not in table:
            raise ValidationError(f"unknown parameter name {name!r}")
        holder, key = table[name]
        if np.shape(value) != np.shape(holder[key]):
            raise ValidationError(f"parameter {name} has shape {np.shape(holder[key])}, "
                                  f"got {np.shape(value)}")
    for name, value in new_values.items():
        holder, key = table[name]
        holder[key] = value


def snapshot_parameters(model) -> dict:
    return {k: v.copy() for k, v in model_parameters(model).items()}


def cast_parameters(model, dtype) -> None:
    set_parameters(model, {k: np.asarray(v, dtype=dtype)
                           for k, v in model_parameters(model).items()})


# ---------------------------------------------------------------------------
# loss

def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and d loss / d logits; numerically stable."""
    batch, n_classes = logits.shape
    labels = np.asarray(labels)
    if labels.size and not (labels.min() >= 0 and labels.max() < n_classes):
        raise ValidationError(f"labels must lie in [0, {n_classes}) for a head of {n_classes} "
                              f"classes, got {labels.min()}..{labels.max()}")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -logp[np.arange(batch), labels].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(batch), labels] -= 1.0
    return loss, dlogits / batch


def _head_backward(head, caches, dlogits, grads):
    d = dlogits
    for k in range(len(head.weights) - 1, -1, -1):
        W, _ = head.weights[k]
        inp = caches[k]
        if k > 0:
            inp = np.maximum(inp, 0.0)
        grads[f"head.{k}.W"] += d.T @ inp
        grads[f"head.{k}.b"] += d.sum(axis=0)
        d = d @ W
        if k > 0:
            d = d * (caches[k] > 0.0)
    return d  # gradient wrt the head input


def _projection_backward(w, dz, x, h, grads, prefix, dh=None, dx=None):
    """Backward of one step's projections z_a = x @ w_x[a].T + h @ w_h[a].T + b[a]:
    accumulates the parameter gradients, and the input ones into dh and dx."""
    for a in GATES:
        grads[f"{prefix}.w_x.{a}"] += dz[a].T @ x
        grads[f"{prefix}.w_h.{a}"] += dz[a].T @ h
        grads[f"{prefix}.b.{a}"] += dz[a].sum(axis=0)
        if dh is not None:
            dh += dz[a] @ w.w_h[a]
        if dx is not None:
            dx += dz[a] @ w.w_x[a]


# ---------------------------------------------------------------------------
# ANN engine

def ann_loss(model: AnnLSTM, batch) -> float:
    X, y = batch
    return float(softmax_cross_entropy(ann_batch_forward(model, X), y)[0])


def ann_backward(model: AnnLSTM, batch):
    """Cross-entropy loss and exact BPTT gradients for a (X [B,N,F], y) batch."""
    X, y = batch
    logits, caches = ann_batch_forward(model, X, want_caches=True)
    loss, dlogits = softmax_cross_entropy(logits, y)
    if not np.isfinite(loss):
        bad = int(np.flatnonzero(~np.isfinite(logits).all(axis=1))[0])
        raise NumericalFault(f"non-finite loss (first bad batch index {bad})")
    grads = {k: np.zeros_like(v) for k, v in model_parameters(model).items()}

    dh_seed_top = _head_backward(model.head, caches["head"], dlogits, grads)
    # process layers top-down; dX of a layer seeds dh of the one below
    dX_above = None
    for li in range(len(model.layers) - 1, -1, -1):
        w = model.layers[li]
        cache = caches["layers"][li]
        n_elements = len(cache["gates"])
        dh = np.zeros_like(cache["h"][0])
        dc = np.zeros_like(dh)
        dX_out = np.zeros_like(cache["x"]) if li > 0 else None
        for n in range(n_elements - 1, -1, -1):
            f, i, g, o, tc = cache["gates"][n]
            z = cache["z"][n]  # gates f, i, g, o
            dh_n = dh.copy()
            if li == len(model.layers) - 1 and n == n_elements - 1:
                dh_n += dh_seed_top
            if dX_above is not None:
                dh_n += dX_above[:, n]
            do = dh_n * tc
            dc = dc + dh_n * o * hard_tanh_grad(cache["c"][n + 1], model.act)
            df = dc * cache["c"][n]
            di = dc * g
            dg = dc * i
            dc = dc * f
            dz = {
                "f": df * hard_sigmoid_grad(z[0], model.act),
                "i": di * hard_sigmoid_grad(z[1], model.act),
                "o": do * hard_sigmoid_grad(z[3], model.act),
                "g": dg * hard_tanh_grad(z[2], model.act),
            }
            dh = np.zeros_like(dh)
            _projection_backward(w, dz, cache["x"][:, n], cache["h"][n], grads, f"layers.{li}",
                                 dh, None if dX_out is None else dX_out[:, n])
        dX_above = dX_out
    return float(loss), grads


# ---------------------------------------------------------------------------
# SNN engine

def _spike_backward(V, theta, gamma, ds, reset, grad, relaxed):
    """Backward of one spike component against threshold theta: adds the
    theta-gradient, ds * dspike/dtheta less `reset` (the soft reset's
    D * spikes), summed over the batch axis -2, into grad and returns
    ds * dspike/dV, dL/dV's share. Hard, the theta-partial is exactly minus
    the V-partial (spike_partials), so one product serves both."""
    if relaxed:
        dsdv, dsdth = spike_partials(V, theta, gamma, relaxed)
        grad += (ds * dsdth - reset).sum(axis=-2)
        return ds * dsdv
    p = ds * spike_slope(V, theta, gamma)
    grad -= (p + reset).sum(axis=-2)
    return p


def _lif_backward(params, V, s_pos, s_neg, upre, ds, D, grads, first, relaxed):
    """Backward of one step of a [slots, B, H] LIF bank: f/o/spiking-i|g,
    or the c neuron as one slot. params are the forward's (leak, th_pos,
    th_neg, gamma); th_neg, when set, and s_neg [B, H] are the last slot's
    ternary component. ds and D are the gradients into the emitted spikes
    and the post-reset membranes. Adds into grads, a [len(LIF_FIELDS),
    slots, H] buffer (mem_init at the `first` step only), and returns dL/dV,
    also the gradient into the drive, and the previous step's D."""
    leak, th_p, th_n, gamma = params
    ds_pos = ds - D * th_p
    dV = D + _spike_backward(V, th_p, gamma, ds_pos, D * s_pos, grads[1], relaxed)
    if th_n is not None:
        ds_neg = -ds[-1] - D[-1] * th_n
        dV[-1] += _spike_backward(V[-1], th_n, gamma[-1], ds_neg, D[-1] * s_neg, grads[2, -1],
                                  relaxed)
    grads[0] += (dV * upre).sum(axis=-2)
    grads[3] += dV.sum(axis=-2)
    D = leak * dV
    if first:
        grads[4] += D.sum(axis=-2)
    return dV, D


def snn_relaxed_loss(model: SpikingLSTM, batch, seed: int) -> float:
    """Scalar loss of the relaxed forward; the FD oracle differentiates this."""
    X, y = batch
    logits, _, _ = snn_batch_forward(model, X, model.time_steps, model.encoding, seed,
                                     relaxed=True)
    return float(softmax_cross_entropy(logits, y)[0])


def snn_backward(model: SpikingLSTM, batch, seed: int = 0, relaxed: bool = False):
    """Loss and surrogate-BPTT gradients over every trainable parameter.

    relaxed=True differentiates the triangle-ramp relaxed forward exactly
    (oracle mode); relaxed=False is the production SGL engine on hard
    spikes.
    """
    T = model.time_steps
    X, y = batch
    logits, tapes, aux = snn_batch_forward(model, X, T, model.encoding, seed,
                                           relaxed=relaxed, want_tapes=True)
    loss, dlogits = softmax_cross_entropy(logits, y)
    if not np.isfinite(loss):
        bad = int(np.flatnonzero(~np.isfinite(logits).all(axis=1))[0])
        raise NumericalFault(f"non-finite loss (first bad batch index {bad})")
    grads = {k: np.zeros_like(v) for k, v in model_parameters(model).items()}

    dhbar = _head_backward(model.head, aux["head_cache"], dlogits, grads)
    # seeds: gradient into H[n, t] of the top layer
    top = len(model.cells) - 1
    n_elements = tapes[top].H.shape[0]
    dH_seed = np.zeros_like(tapes[top].H)
    dH_seed[n_elements - 1, :] = dhbar / T

    for li in range(top, -1, -1):
        cell, tape = model.cells[li], tapes[li]
        pack = tape.pack
        analog_grad = hard_sigmoid_grad if pack.analog_i else hard_tanh_grad
        gp = f"cells.{li}"
        want_dx = li > 0
        dX_out = np.zeros_like(tapes[li - 1].H) if want_dx else None
        x_feed = aux["encoded"] if li == 0 else np.moveaxis(tapes[li - 1].H, 2, 0)
        # the bank's and the c neuron's (leak, th_pos, th_neg, gamma) as
        # [slots, 1, H] stacks; th_neg and gamma[-1] act on the last slot
        leak_c, th_c, _, gamma_c = pack.c
        bank = (pack.leak[:, 0], pack.th_pos[:, 0],
                None if pack.th_neg is None else pack.th_neg[0], pack.gamma[:, 0])
        c = (leak_c, th_c[0], th_c[1, 0], np.full((1, 1, 1), gamma_c, pack.dtype))
        # the LIF gradients, [field, slot, H]: the bank's slots, then c's
        lif = np.zeros((len(LIF_FIELDS), 4, pack.hidden), pack.dtype)

        dH_next, dC_next = np.zeros_like(tape.H[0]), np.zeros_like(tape.H[0])  # [T, B, H]
        ds = np.empty((3,) + dH_next.shape[1:], pack.dtype)  # into the bank's emitted spikes
        for n, r in tape.replay_backwards():  # element n's spikes, Upre, A_analog
            dH_prev, dC_prev = np.zeros_like(dH_next), np.zeros_like(dC_next)
            D, D_c = np.zeros_like(ds), np.zeros_like(ds[:1])  # into post-reset membranes
            S_pos, S_neg, S_c = r["S_pos"], r.get("S_neg"), r["S_c"]
            for t in range(T - 1, -1, -1):
                dh = dH_seed[n, t] + dH_next[t]
                np.multiply(dh, S_c[0, t] - S_c[1, t], out=ds[1])  # o
                dV_c, D_c = _lif_backward(c, tape.V_c[n, t, None], S_c[:1, t], S_c[1, t],
                                          r["Upre_c"][t, None], dh * S_pos[1:2, t], D_c,
                                          lif[:, 3:], t == 0, relaxed)
                # --- cell combine ---
                dc_total = dC_next[t] + dV_c[0]
                np.multiply(dc_total, tape.Cp[n, t], out=ds[0])  # f, by c of element n - 1
                dC_prev[t] += dc_total * S_pos[0, t]
                np.multiply(dc_total, r["A_analog"][t], out=ds[2])  # the spiking one of i/g
                dA = dc_total * (S_pos[2, t] if S_neg is None else S_pos[2, t] - S_neg[t])
                # --- the spiking bank, then the analog gate ---
                dV, D = _lif_backward(bank, tape.V[:, n, t], S_pos[:, t],
                                      None if S_neg is None else S_neg[t], r["Upre"][:, t], ds,
                                      D, lif[:, :3], t == 0, relaxed)
                dP = dict(zip(pack.bank_gates, dV))
                dP[cell.plan.analog_gate] = dA * analog_grad(tape.P_analog[n, t], cell.act)
                # --- projections ---
                _projection_backward(cell.weights, dP, x_feed[:, n, t], tape.Hp[n, t], grads, gp,
                                     dH_prev[t] if n > 0 else None,
                                     dX_out[n, t] if want_dx else None)
            dH_next, dC_next = dH_prev, dC_prev
        for gate, by_field in zip(pack.bank_gates + ("c",), lif.swapaxes(0, 1)):
            for name, value in zip(LIF_FIELDS, by_field):  # threshold_neg: ternary ones only
                if f"{gp}.lif.{gate}.{name}" in grads:
                    grads[f"{gp}.lif.{gate}.{name}"] += value
        if want_dx:
            dH_seed = dX_out
    return float(loss), grads


# ---------------------------------------------------------------------------
# optimization

def clip_global_norm(grads: GradientBundle, max_norm: float) -> float:
    """Scale grads in place so the global L2 norm is at most max_norm.

    Returns the pre-clip norm. Raises on non-finite gradients.
    """
    sq = 0.0
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise NumericalFault("non-finite gradient before clipping")
        sq += float((g * g).sum())
    norm = float(np.sqrt(sq))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class Adam:
    """Plain Adam on a name->array parameter dict; masked names are never
    touched, so they stay bit-identical across steps."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m: dict = {}
        self.v: dict = {}

    def step(self, params: dict, grads: GradientBundle, trainable) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name in trainable:
            p, g = params[name], grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            p -= self.lr * (self.m[name] / bias1) / (np.sqrt(self.v[name] / bias2) + self.EPS)


def evaluate(model, X, y, seed=0):
    """(loss, accuracy, mean hidden spike rate) on a labeled set, in chunks
    of EVAL_CHUNK samples.

    Sample k is encoded as sample k of the set and, at fan-ins up to 384
    on OpenBLAS 0.3.31 (README: Batch invariance), every projection is
    batch-invariant, so only the loss sum's order depends on EVAL_CHUNK.
    """
    if X.shape[0] == 0:
        raise ValidationError("evaluate needs a non-empty set")
    losses = []
    correct = 0
    hidden_spikes = hidden_slots = 0
    for lo in range(0, X.shape[0], EVAL_CHUNK):
        xb = X[lo:lo + EVAL_CHUNK]
        yb = np.asarray(y[lo:lo + EVAL_CHUNK])
        if isinstance(model, AnnLSTM):
            logits = ann_batch_forward(model, xb)
        else:
            logits, _, aux = snn_batch_forward(
                model, xb, model.time_steps, model.encoding, seed, first_index=lo)
            stats = aux["stats"]
            hidden_spikes += sum(layer.hidden_nnz_total for layer in stats.layers)
            hidden_slots += sum(layer.units * layer.hidden_nnz.size for layer in stats.layers)
        loss, _ = softmax_cross_entropy(logits, yb)
        losses.append(float(loss) * len(yb))
        correct += int((logits.argmax(axis=1) == yb).sum())
    n = X.shape[0]
    rate = hidden_spikes / hidden_slots if hidden_slots else float("nan")
    return sum(losses) / n, correct / n, rate


def data_content_hash(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def fit(model, train_set, val_set, config: TrainConfig, out_dir=None):
    """Mini-batch training loop for either model kind.

    train_set / val_set: (X [count, N, F], y [count]) pairs. Writes
    metrics.csv, manifest.json and a best-validation checkpoint under
    out_dir when given. A non-finite loss, or an optimizer step that leaves
    a leak or threshold outside the domain LIFGateParams accepts, restores
    the best parameters (the caller's own before a first epoch ends) and
    raises TrainingDiverged, so every checkpoint written loads. Either way
    the model ends at f64. Fully seed-deterministic.
    """
    X_train, y_train = train_set
    X_val, y_val = val_set
    if 0 in (X_train.shape[0], X_val.shape[0]):
        raise ValidationError("training and validation sets must be non-empty")
    initial = snapshot_parameters(model)  # the caller's values, before the cast
    cast_parameters(model, np.float32 if config.precision == "f32" else np.float64)

    params = model_parameters(model)
    trainable = [k for k in params if config.mask.allows(k)]
    signs = {k: LIF_SIGNS[k.rsplit(".", 1)[1]] for k in trainable
             if k.rsplit(".", 1)[1] in LIF_SIGNS}  # trained leaks and thresholds
    opt = Adam(config.lr)
    rng = np.random.default_rng(config.seed)
    is_snn = isinstance(model, SpikingLSTM)

    history = []
    best = {"val_accuracy": -1.0, "params": initial, "epoch": -1}
    start = time.time()
    try:
        for epoch in range(config.epochs):
            if epoch in set(config.lr_decay_epochs):
                opt.lr *= config.lr_decay_factor
            order = rng.permutation(X_train.shape[0])
            epoch_loss = 0.0
            seen = 0
            for b0 in range(0, len(order), config.batch_size):
                idx = order[b0:b0 + config.batch_size]
                batch = (X_train[idx], y_train[idx])
                if is_snn:
                    seed = int(np.random.SeedSequence(
                        [config.seed, epoch, b0]).generate_state(1)[0])
                    loss, grads = snn_backward(model, batch, seed=seed)
                else:
                    loss, grads = ann_backward(model, batch)
                clip_global_norm(grads, config.grad_clip)
                opt.step(params, grads, trainable)
                _check_lif_domain(params, signs)
                epoch_loss += loss * len(idx)
                seen += len(idx)
            k = min(X_train.shape[0], 2048)  # fixed subsample keeps epoch cost bounded
            train_loss, train_acc, train_rate = evaluate(
                model, X_train[:k], y_train[:k], seed=config.seed)
            val_loss, val_acc, val_rate = evaluate(model, X_val, y_val, seed=config.seed)
            now = time.time() - start
            history.append({"epoch": epoch, "split": "train", "loss": train_loss,
                            "accuracy": train_acc, "spike_rate_mean": train_rate,
                            "wall_time": now})
            history.append({"epoch": epoch, "split": "val", "loss": val_loss,
                            "accuracy": val_acc, "spike_rate_mean": val_rate,
                            "wall_time": now})
            if val_acc > best["val_accuracy"]:
                best = {"val_accuracy": val_acc, "params": snapshot_parameters(model),
                        "epoch": epoch}
    except NumericalFault as fault:
        set_parameters(model, best["params"])
        cast_parameters(model, np.float64)
        _write_artifacts(model, config, history, best, out_dir,
                         (X_train, y_train), diverged=str(fault))
        raise TrainingDiverged(
            f"training diverged ({fault}); restored the "
            + (f"epoch-{best['epoch']}" if best["epoch"] >= 0 else "initial") + " parameters",
            history=history) from fault

    set_parameters(model, best["params"])
    cast_parameters(model, np.float64)
    _write_artifacts(model, config, history, best, out_dir, (X_train, y_train))
    return model, history


def _check_lif_domain(params: dict, signs: dict) -> None:
    """Raise NumericalFault naming the first parameter of signs (name ->
    the sign it must keep) that an optimizer step moved out of its domain
    (or to NaN)."""
    for name, sign in signs.items():
        ok = sign * params[name] > 0
        if not ok.all():
            raise NumericalFault(f"an optimizer step left {name} at {params[name][~ok].flat[0]}; "
                                 f"it must be {'>' if sign > 0 else '<'} 0")


def _write_artifacts(model, config, history, best, out_dir, train_data, diverged=None):
    if out_dir is None:
        return
    import os

    from . import checkpoint as ckpt
    from . import __version__

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "loss", "accuracy", "spike_rate_mean", "wall_time"])
        for row in history:
            rate = row["spike_rate_mean"]
            writer.writerow([row["epoch"], row["split"], f"{row['loss']:.6f}",
                             f"{row['accuracy']:.6f}",
                             "" if np.isnan(rate) else f"{rate:.6f}",
                             f"{row['wall_time']:.3f}"])
    manifest = {
        "config": asdict(config),
        "seed": config.seed,
        "best_epoch": best["epoch"],
        "best_val_accuracy": best["val_accuracy"],
        "data_hash": data_content_hash(*train_data),
        "package_version": __version__,
        "model_kind": "snn" if isinstance(model, SpikingLSTM) else "ann",
    }
    if diverged:
        manifest["diverged"] = diverged
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    ckpt.save_model(model, os.path.join(out_dir, "model.ckpt"))
