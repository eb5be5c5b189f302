"""Input encoders: direct (analog replication) and Poisson rate coding."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .neuron import SpikeTrain


def encode_direct(x, T: int) -> np.ndarray:
    """Replicate the analog input at each of T steps.

    Shape contract: input [...] -> output [T, ...]. The input-layer
    projection of these values is the one place MACs are allowed.
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    return np.broadcast_to(x, (T,) + x.shape).copy()


def encode_poisson(x, T: int, rng_seed: int) -> SpikeTrain:
    """Bernoulli spikes with per-step probability x, reproducible by seed.

    Entries must be normalized to [0, 1].
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0) or np.any(x > 1.0):
        bad = x[(x < 0.0) | (x > 1.0)].flat[0]
        raise ValidationError(f"poisson encoding requires values in [0, 1], got {bad}")
    rng = np.random.default_rng(rng_seed)
    draws = rng.random((T,) + x.shape)
    return SpikeTrain(values=(draws < x).astype(np.float64), kind="binary")


def encode_sequence(sequence: np.ndarray, T: int, encoding: str, rng_seed: int = 0,
                    first_index: int = 0) -> np.ndarray:
    """Encode an [N, F] sequence to [N, T, F] step inputs, or a [B, N, F]
    batch to [B, N, T, F].

    Poisson spikes of sample b come from one [N, T, F] draw of
    SeedSequence([rng_seed, first_index + b]); a single sequence is sample
    first_index. A sample's spikes thus depend only on the seed and its
    index in the evaluated set, not on how that set is batched or chunked.
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    x = np.asarray(sequence, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValidationError(f"sequence must be [N, F] or [B, N, F], got shape {x.shape}")
    batch = x if x.ndim == 3 else x[None]
    steps = batch[:, :, None, :]
    if encoding == "direct":
        out = np.broadcast_to(steps, batch.shape[:2] + (T,) + batch.shape[2:]).copy()
    elif encoding == "poisson":
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValidationError("poisson encoding requires values in [0, 1]")
        out = np.empty(batch.shape[:2] + (T,) + batch.shape[2:])
        for b in range(batch.shape[0]):
            rng = np.random.default_rng(np.random.SeedSequence([rng_seed, first_index + b]))
            out[b] = rng.random(out.shape[1:]) < steps[b]
    else:
        raise ValidationError(f"unknown encoding {encoding!r}")
    return out if x.ndim == 3 else out[0]
