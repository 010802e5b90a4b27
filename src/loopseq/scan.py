"""Linear-recurrence scan kernels.

A length-T linear recurrence

    x_t = a_t * x_{t-1} + b_t,    x_0 = 0,

is evaluated by one loop over t, vectorised over every batch and channel
axis (`scan_linear`).  Its adjoint is the same loop run in
reverse on the adjoint factor (`scan_backward`).  `scan_sequential` is
the independent, pair-based oracle the kernel is audited against.

On a CPU-only NumPy substrate the plain loop beats a parallel-prefix
(Blelloch) formulation by an order of magnitude: the prefix tree needs
about 2 log2 T strided passes, power-of-two padding and a factor
materialised over time, while the loop touches each element once.

Time is axis 0, so each step reads and writes one contiguous row of
every lead (batch) element.  Three element kinds share the kernel:

    "diag"   a, b: [T, ..., n]          real diagonal transition
    "cdiag"  a, b: [T, ..., n, 2]       complex diagonal, (re, im) pairs
    "mat2"   a: [T, ..., n, 2, 2]       per-channel 2x2 transition
             b: [T, ..., n, 2]

Complex values everywhere in this package are (re, im) pairs in a
trailing axis of length 2 over a float64 substrate; inside the kernel a
"cdiag" pair array is viewed in place as complex128, without a copy.

`a` comes in one of two layouts, and any other raises `ShapeError`:

    shared    its channel tail alone, (n,), (n, 2) or (n, 2, 2): one
              time-invariant factor per channel, applied at every step
              and never expanded over batch or time (LRU, S5, LinOSS);
    per-step  b's own shape, plus the 2x2 for "mat2" (LrcSSM's gate).

A sequence can also be scanned in chunks: `fold_carry` starts a chunk's
recurrence from the last state of the chunk before, by one step of the
kernel, and `scan_joint` runs independent recurrences over the same rows
as one `scan_linear` call on their channels side by side; either way the
states keep the bits of one scan over the whole sequence.

`scan_backward` returns each adjoint in its input's shape: a shared
factor's `da` is summed over the time and batch axes.  That sum is built a
fixed number of bytes of rows at a time, each chunk's `np.add.reduce`
starting from the running total, so the [T, ..., n] products are never
held at once and the sum keeps the bits of the materialised one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySequenceError, ShapeError

KINDS = ("diag", "cdiag", "mat2")

# trailing dims of b after its time and lead axes, per kind
_B_TRAIL = {"diag": 1, "cdiag": 2, "mat2": 2}

# a shared factor's da is summed this many bytes of products at a time: one
# chunk holds a synth-shaped "cdiag" da (T = 100, B = 32, P = 16; two for
# "mat2") and an 18th of a Worms-length LRU one (T = 17984, B = 1, P = 64)
_DA_CHUNK_BYTES = 1 << 20


def pair_mul(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Complex multiply on (re, im) pair arrays."""
    zr, zi = z[..., 0], z[..., 1]
    wr, wi = w[..., 0], w[..., 1]
    return np.stack([zr * wr - zi * wi, zr * wi + zi * wr], axis=-1)


def _apply(kind: str, a, x):
    """Apply one transition factor to a state (oracle arithmetic)."""
    if kind == "diag":
        return a * x
    if kind == "cdiag":
        return pair_mul(a, x)
    return np.einsum("...ij,...j->...i", a, x)


@dataclass
class ScanElement:
    """A batch of recurrence elements (a_t, b_t), time along axis 0.

    a is the multiplicative factor (diagonal vector, complex pair vector,
    or per-channel 2x2 matrix), b the additive term.
    """

    a: np.ndarray
    b: np.ndarray
    kind: str = "diag"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown scan element kind {self.kind!r}; expected one of {KINDS}")


def _check_elements(kind: str, a: np.ndarray, b: np.ndarray):
    """Validate b's trailing dims and a's layout against b.

    Returns (a, b, full, shared): `full` is a per-step factor's shape;
    nothing is copied.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    bt = _B_TRAIL[kind]
    if b.ndim < bt + 1:
        raise ShapeError(f"b must have at least {bt + 1} dims for kind {kind!r}, got shape {b.shape}")
    if kind != "diag" and b.shape[-1] != 2:
        raise ShapeError(f"kind {kind!r} expects b with trailing pair axis of 2, got shape {b.shape}")
    if b.shape[0] == 0:
        raise EmptySequenceError("scan over zero time steps")
    full = b.shape + (2,) * (kind == "mat2")
    tail = full[b.ndim - bt :]
    if a.shape not in (tail, full):
        raise ShapeError(
            f"a shape {a.shape} is neither shared {tail} nor per-step {full} "
            f"(kind {kind!r}, b shape {b.shape})"
        )
    return a, b, full, a.shape == tail


def _complex(kind: str, z: np.ndarray) -> np.ndarray:
    """z itself, or for "cdiag" its pairs viewed as complex128."""
    if kind != "cdiag":
        return z
    if z.strides[-1] != z.itemsize:
        z = np.ascontiguousarray(z)
    return z.view(np.complex128)[..., 0]


def _recur(kind: str, f: np.ndarray, shared: bool, src: np.ndarray, out: np.ndarray) -> None:
    """The production kernel: out_0 = src_0, out_s = f_s . out_{s-1} + src_s.

    `src` and `out` run along axis 0, time possibly reversed.  `f` holds
    the factor of each step s = 1..T-1, or with `shared` one channel-tail
    factor, copied to one contiguous row.
    """
    row = out.shape[1:]

    def per_step(c):
        return itertools.repeat(np.broadcast_to(c, row).copy()) if shared else c

    tmp = np.empty(row, out.dtype)
    mul, add = np.multiply, np.add  # positional `out`: the cheapest ufunc call
    out[0] = src[0]
    prev = out[0]
    if kind != "mat2":
        for fs, b, cur in zip(per_step(f), src[1:], out[1:]):
            mul(fs, prev, tmp)
            add(tmp, b, cur)
            prev = cur
        return
    # x'_i = a_i0 x_0 + a_i1 x_1, one matrix column at a time
    tmp1 = np.empty_like(tmp)
    for f0, f1, b, cur in zip(per_step(f[..., 0]), per_step(f[..., 1]), src[1:], out[1:]):
        mul(f0, prev[..., :1], tmp)
        mul(f1, prev[..., 1:], tmp1)
        add(tmp, tmp1, tmp)
        add(tmp, b, cur)
        prev = cur


def scan_sequential(elem: ScanElement) -> np.ndarray:
    """Step-by-step evaluation of the recurrence on pairs; the reference route."""
    a, b, full, _ = _check_elements(elem.kind, elem.a, elem.b)
    a = np.broadcast_to(a, full)
    out = np.empty_like(b)
    x = np.zeros_like(b[0])
    for t in range(b.shape[0]):
        x = _apply(elem.kind, a[t], x) + b[t]
        out[t] = x
    return out


def scan_linear(elem: ScanElement) -> np.ndarray:
    """Inclusive states x_1..x_T, in b's shape."""
    kind = elem.kind
    a, b, _, shared = _check_elements(kind, elem.a, elem.b)
    f = _complex(kind, a)
    out = np.empty(b.shape)
    _recur(kind, f if shared else f[1:], shared, _complex(kind, b), _complex(kind, out))
    return out


def fold_carry(elem: ScanElement, carry: np.ndarray) -> None:
    """Start elem's recurrence from the state `carry` instead of zero, in place.

    b_0 becomes a_0 . carry + b_0 by one step of the kernel itself, so a
    sequence scanned in chunks, each from the last state of the chunk
    before, keeps the bits of one scan over all its steps.
    """
    kind = elem.kind
    a, b, _, shared = _check_elements(kind, elem.a, elem.b)
    rows = np.stack([carry, b[0]])
    f = _complex(kind, a)
    step = _complex(kind, rows)
    _recur(kind, f if shared else f[:1], shared, step, step)
    b[0] = rows[1]


def scan_joint(elems: list[ScanElement]) -> list[np.ndarray]:
    """The states of independent recurrences over the same time and lead axes,
    from one `scan_linear` call over their channels side by side.

    The elements share a kind and a layout.  The kernel acts on each channel
    on its own, so each element's states, returned in its b's shape as a view
    of the joint states, are its own scan's bits.  The list is emptied, so
    each forcing is freed once copied; a lone element is scanned as it is.
    """
    if len(elems) == 1:
        return [scan_linear(elems.pop())]
    kind = elems[0].kind
    shared = _check_elements(kind, elems[0].a, elems[0].b)[3]
    axis = elems[0].b.ndim - _B_TRAIL[kind]  # b's channel axis
    widths = [e.b.shape[axis] for e in elems]
    a = np.concatenate([e.a for e in elems], axis=0 if shared else axis)
    b = np.concatenate([e.b for e in elems], axis=axis)
    elems.clear()
    return np.split(scan_linear(ScanElement(a, b, kind)), np.cumsum(widths[:-1]), axis=axis)


def scan_backward(
    elem: ScanElement, states: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoints (da, db) of the recurrence given output cotangents g, in a's and b's shapes.

    The state adjoint lam_t = g_t + a_{t+1}^T lam_{t+1} (conjugate for
    "cdiag") is the forward kernel run in reverse time on the adjoint
    factor, shifted one step.  Then db_t = lam_t and da_t = lam_t (x) x_{t-1}
    (with the kind-appropriate product); a shared factor's da is that
    product summed over the time and batch axes, a chunk of rows at a time.
    """
    kind = elem.kind
    a, b, full, shared = _check_elements(kind, elem.a, elem.b)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != b.shape:
        raise ShapeError(f"cotangent shape {g.shape} does not match b shape {b.shape}")

    f = _complex(kind, a)
    if kind == "cdiag":
        f = np.conj(f)
    elif kind == "mat2":
        f = np.swapaxes(f, -1, -2)
    db = np.empty(b.shape)
    lam = _complex(kind, db)
    # reversed time: step s multiplies by the adjoint of a_{T-s}
    _recur(kind, f if shared else f[:0:-1], shared, _complex(kind, g)[::-1], lam[::-1])

    x = _complex(kind, np.asarray(states, dtype=np.float64))
    if shared and a.size > 1:  # NumPy sums a one-element tail pairwise, so that one stays whole
        return _reduce_shared_da(kind, a.shape, b.ndim - _B_TRAIL[kind], lam, x), db
    da = np.empty(full)
    wda = _complex(kind, da)
    wda[0] = 0.0
    _outer(kind, lam[1:], x[:-1], wda[1:])
    if shared:
        da = da.sum(axis=tuple(range(b.ndim - _B_TRAIL[kind])))
    return da, db


def _outer(kind: str, lam: np.ndarray, x_prev: np.ndarray, out: np.ndarray) -> None:
    """out = lam (x) x_prev, the kind's product of a state adjoint and the state before it."""
    if kind == "diag":
        np.multiply(lam, x_prev, out=out)
    elif kind == "cdiag":
        np.conjugate(x_prev, out=out)
        out *= lam
    else:
        np.multiply(lam[..., :, None], x_prev[..., None, :], out=out)


def _reduce_shared_da(kind: str, shape: tuple, k: int, lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A shared factor's da in its `shape`: lam_t (x) x_{t-1} summed over the k time and lead axes.

    The products are made _DA_CHUNK_BYTES of rows at a time, never over the
    whole [T, ..., n] shape, and each chunk's `np.add.reduce` over axis 0
    starts from the running total as its first row.  That is NumPy's own
    sequential order for `.sum` over the leading axes of a C-contiguous
    array whose tail holds more than one element, so the result equals the
    materialised sum bit for bit; the zero rows at t = 0 add nothing to a
    total that starts at +0.0.
    """
    lam = lam[1:].reshape((-1,) + lam.shape[k:])
    x = x[:-1].reshape(lam.shape)
    rows = max(1, _DA_CHUNK_BYTES // (8 * math.prod(shape)))
    buf = np.zeros((min(rows, len(lam)) + 1,) + shape)  # row 0 carries the running total
    out = _complex(kind, buf)[1:]
    total = buf[0]
    for s in range(0, len(lam), rows):
        n = min(rows, len(lam) - s)
        buf[0] = total
        _outer(kind, lam[s : s + n], x[s : s + n], out[:n])
        total = np.add.reduce(buf[: n + 1], axis=0)
    return total
