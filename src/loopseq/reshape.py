"""Input reshaping: trade sequence length against input width.

A series of shape (T, w) is flattened time-major to length T*w, zero
padded up to the next multiple of the concentration factor c, and
re-chunked into rows of width c:

    rows = ceil(T * w / c),    pad_count = rows * c - T * w  in [0, c).

c alone decides the computation: c = 1 returns the input unchanged, so
rows = T and pad_count = 0; every other c runs the arithmetic above.
`reshape_law` states the resulting shape and `reshape_forward` computes
it, both from (T, w, c) alone.  The `regime` label only names the case:
`identity` for c = 1, `low_dim_concat` when c is a multiple of w (each
row is then exactly c/w consecutive time steps), and `high_dim_flatten`
otherwise (rows may end inside a time step).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError


def reshape_law(T: int, w: int, c: int) -> tuple[str, int, int]:
    """(regime, rows, pad_count) of reshaping a (T, w) series at concentration c."""
    if c < 1:
        raise ConfigError(f"concentration must be >= 1, got {c}")
    if T < 1 or w < 1:
        raise ConfigError(f"original shape must be positive, got {(T, w)}")
    if c == 1:
        return "identity", T, 0
    rows = -(-T * w // c)
    return ("low_dim_concat" if c % w == 0 else "high_dim_flatten"), rows, rows * c - T * w


def reshape_forward(x: np.ndarray, c: int) -> np.ndarray:
    """[..., T, w] -> [..., rows, c]; leading batch axes pass through unchanged."""
    x = np.asarray(x)
    if x.ndim < 2:
        raise ShapeError(f"reshape needs a [..., T, w] array, got shape {x.shape}")
    *lead, T, w = x.shape
    _, rows, pad_count = reshape_law(T, w, c)
    if c == 1:
        return x
    flat = x.reshape(*lead, T * w)
    if pad_count:
        flat = np.concatenate([flat, np.zeros((*lead, pad_count), dtype=x.dtype)], axis=-1)
    return flat.reshape(*lead, rows, c)
