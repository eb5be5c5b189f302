"""The input encoder: direct (analog replication) and Poisson rate coding."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def check_poisson_range(x: np.ndarray) -> None:
    """Raise ValidationError unless every value of x is in [0, 1], the
    spike probabilities poisson encoding draws with."""
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValidationError("poisson encoding requires values in [0, 1]")


def encode_sequence(sequence: np.ndarray, T: int, encoding: str, rng_seed: int = 0,
                    first_index: int = 0) -> np.ndarray:
    """Encode an [N, F] sequence to [N, T, F] step inputs, or a [B, N, F]
    batch to [B, N, T, F].

    The output keeps a float input's dtype (f64 otherwise). Poisson spikes
    of sample b come from one [N, T, F] draw of f64 uniforms under
    SeedSequence([rng_seed, first_index + b]), compared with the input; a
    single sequence is sample first_index. A sample's spikes thus depend
    only on the seed and its index in the evaluated set, not on how that
    set is batched or chunked, nor on the input's float dtype.
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    x = np.asarray(sequence)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    if x.ndim not in (2, 3):
        raise ValidationError(f"sequence must be [N, F] or [B, N, F], got shape {x.shape}")
    batch = x if x.ndim == 3 else x[None]
    steps = batch[:, :, None, :]
    if encoding == "direct":
        out = np.broadcast_to(steps, batch.shape[:2] + (T,) + batch.shape[2:]).copy()
    elif encoding == "poisson":
        check_poisson_range(x)
        out = np.empty(batch.shape[:2] + (T,) + batch.shape[2:], dtype=x.dtype)
        for b in range(batch.shape[0]):
            rng = np.random.default_rng(np.random.SeedSequence([rng_seed, first_index + b]))
            out[b] = rng.random(out.shape[1:]) < steps[b]
    else:
        raise ValidationError(f"unknown encoding {encoding!r}")
    return out if x.ndim == 3 else out[0]
