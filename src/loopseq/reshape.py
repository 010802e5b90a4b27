"""Input reshaping: trade sequence length against input width.

A series of shape (T, w) is flattened time-major to length T*w, zero
padded up to the next multiple of the concentration factor c, and
re-chunked into rows of width c:

    rows = ceil(T * w / c),    pad_count = rows * c - T * w  in [0, c).

c alone decides the computation: c = 1 returns the input unchanged,
every other c runs the arithmetic above.  The `regime` label only names
the case: `identity` for c = 1, `low_dim_concat` when c is a multiple
of w (each row is then exactly c/w consecutive time steps), and
`high_dim_flatten` otherwise (rows may end inside a time step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class ReshapeSpec:
    """Frozen description of one reshape; enough to invert it exactly."""

    concentration: int
    original_shape: tuple[int, int]  # (T, w)

    def __post_init__(self):
        T, w = self.original_shape
        if self.concentration < 1:
            raise ConfigError(f"concentration must be >= 1, got {self.concentration}")
        if T < 1 or w < 1:
            raise ConfigError(f"original shape must be positive, got {self.original_shape}")

    @property
    def regime(self) -> str:
        c, w = self.concentration, self.original_shape[1]
        if c == 1:
            return "identity"
        return "low_dim_concat" if c % w == 0 else "high_dim_flatten"

    @property
    def rows(self) -> int:
        T, w = self.original_shape
        return -(-T * w // self.concentration)

    @property
    def pad_count(self) -> int:
        T, w = self.original_shape
        return self.rows * self.concentration - T * w

    @property
    def out_shape(self) -> tuple[int, int]:
        return (self.rows, self.concentration) if self.concentration != 1 else self.original_shape


def make_spec(T: int, width: int, concentration: int) -> ReshapeSpec:
    return ReshapeSpec(concentration, (T, width))


def reshape_forward(x: np.ndarray, spec: ReshapeSpec) -> np.ndarray:
    """(T, w) -> (rows, c); leading batch axes pass through unchanged."""
    x = np.asarray(x)
    if x.shape[-2:] != spec.original_shape:
        raise ShapeError(f"input trailing shape {x.shape[-2:]} != spec {spec.original_shape}")
    if spec.concentration == 1:
        return x
    lead = x.shape[:-2]
    T, w = spec.original_shape
    flat = x.reshape(lead + (T * w,))
    if spec.pad_count:
        pad = np.zeros(lead + (spec.pad_count,), dtype=x.dtype)
        flat = np.concatenate([flat, pad], axis=-1)
    return flat.reshape(lead + (spec.rows, spec.concentration))
