"""The exact inverse of `loopseq.reshape.reshape_forward`: the round-trip oracle
of the reshape tests and acceptance criterion 5."""

import numpy as np

from loopseq.errors import ContractError, ShapeError
from loopseq.reshape import ReshapeSpec


def reshape_inverse(y: np.ndarray, spec: ReshapeSpec) -> np.ndarray:
    """(rows, c) -> (T, w); rejects modified padding, so tampering is detected."""
    y = np.asarray(y)
    if spec.concentration == 1:
        if y.shape[-2:] != spec.original_shape:
            raise ShapeError(f"input trailing shape {y.shape[-2:]} != spec {spec.original_shape}")
        return y
    if y.shape[-2:] != (spec.rows, spec.concentration):
        raise ShapeError(f"input trailing shape {y.shape[-2:]} != spec output {spec.out_shape}")
    lead = y.shape[:-2]
    T, w = spec.original_shape
    flat = y.reshape(lead + (spec.rows * spec.concentration,))
    if spec.pad_count:
        tail = flat[..., T * w :]
        if np.any(tail != 0):
            raise ContractError(
                f"padding region is no longer zero ({np.count_nonzero(tail)} cells); "
                "refusing to invert"
            )
    return flat[..., : T * w].reshape(lead + (T, w))
