"""The exact inverse of `loopseq.reshape.reshape_forward`: the round-trip oracle
of the reshape tests and acceptance criterion 5."""

import numpy as np

from loopseq.errors import ContractError, ShapeError
from loopseq.reshape import reshape_law


def reshape_inverse(y: np.ndarray, T: int, w: int, c: int) -> np.ndarray:
    """[..., rows, c] -> [..., T, w]; rejects modified padding, so tampering is detected."""
    y = np.asarray(y)
    _, rows, pad_count = reshape_law(T, w, c)
    want = (T, w) if c == 1 else (rows, c)
    if y.shape[-2:] != want:
        raise ShapeError(f"input trailing shape {y.shape[-2:]} != reshaped shape {want}")
    if c == 1:
        return y
    lead = y.shape[:-2]
    flat = y.reshape(lead + (rows * c,))
    if pad_count:
        tail = flat[..., T * w :]
        if np.any(tail != 0):
            raise ContractError(
                f"padding region is no longer zero ({np.count_nonzero(tail)} cells); "
                "refusing to invert"
            )
    return flat[..., : T * w].reshape(lead + (T, w))
