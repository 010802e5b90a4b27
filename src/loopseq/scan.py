"""Linear-recurrence scan kernels.

A length-T linear recurrence

    x_t = a_t * x_{t-1} + b_t,    x_0 = 0,

is evaluated by one time-major loop over t, vectorised over every batch
and channel axis (`scan_linear`).  Its adjoint is the same loop run in
reverse on the adjoint factor (`scan_backward`).  `scan_sequential` is
the independent, pair-based oracle the kernel is audited against.

On a CPU-only NumPy substrate the plain loop beats a parallel-prefix
(Blelloch) formulation by an order of magnitude: the prefix tree needs
about 2 log2 T strided passes, power-of-two padding and a factor
materialised over time, while the loop touches each element once.

Three element kinds share the kernel:

    "diag"   a, b: [..., T, n]          real diagonal transition
    "cdiag"  a, b: [..., T, n, 2]       complex diagonal, (re, im) pairs
    "mat2"   a: [..., T, n, 2, 2]       per-channel 2x2 transition
             b: [..., T, n, 2]

Complex values everywhere in this package are (re, im) pairs in a
trailing axis of length 2 over a float64 substrate; inside the kernel a
"cdiag" pair array is viewed in place as complex128, without a copy.

`a` comes in one of two layouts, and any other raises `ShapeError`:

    shared    its channel tail alone, (n,), (n, 2) or (n, 2, 2): one
              time-invariant factor per channel, applied at every step
              and never expanded over batch or time (LRU, S5, LinOSS);
    per-step  b's own shape, plus the 2x2 for "mat2" (LrcSSM's gate).

`scan_backward` returns each adjoint in its input's shape: a shared
factor's `da` is summed over the batch and time axes.

Each step's product goes to a contiguous temporary.  A ufunc over a short
strided row costs several times one over a contiguous row, so rows of at
most `_ROW_COPY_MAX` bytes run in a C-contiguous time-major buffer, with
`b` copied in and the states copied back in one transposing pass each.
At B = 1 `b` is read in place, and longer rows are written in b's layout.
Every bit is the same on each path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptySequenceError, ShapeError

KINDS = ("diag", "cdiag", "mat2")

# trailing dims of b after the time axis, per kind
_B_TRAIL = {"diag": 1, "cdiag": 2, "mat2": 2}


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
    """A batch of recurrence elements (a_t, b_t), time along the standard axis.

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
    if b.shape[-(bt + 1)] == 0:
        raise EmptySequenceError("scan over zero time steps")
    full = b.shape + (2,) * (kind == "mat2")
    tail = full[b.ndim - bt :]
    if a.shape not in (tail, full):
        raise ShapeError(
            f"a shape {a.shape} is neither shared {tail} nor per-step {full} "
            f"(kind {kind!r}, b shape {b.shape})"
        )
    return a, b, full, a.shape == tail


def _time_major(kind: str, z: np.ndarray, t_axis: int) -> np.ndarray:
    """View z [*lead, T, ...] as [T, *lead, ...]; "cdiag" pairs become complex128."""
    if kind == "cdiag":
        if z.strides[-1] != z.itemsize:
            z = np.ascontiguousarray(z)
        z = z.view(np.complex128)[..., 0]
    return z.transpose(t_axis, *range(t_axis), *range(t_axis + 1, z.ndim))


# bytes: a scan loop with rows of up to 8 KB (synth-grid's) ran faster through
# the buffer for every kind, and Heartbeat-shape training steps (16-32 KB rows)
# ran their scans faster in place
_ROW_COPY_MAX = 8192


def _buffers(kind: str, z: np.ndarray, t_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Time-major (src, out) for z [*lead, T, ...]: z and a fresh array in z's
    layout, or for short strided rows one C-contiguous buffer holding z."""
    src = _time_major(kind, z, t_axis)
    if src[0].flags.c_contiguous or src[0].nbytes > _ROW_COPY_MAX:
        return src, _time_major(kind, np.empty(z.shape), t_axis)
    out = src.copy()  # C order
    return out, out


def _lead_major(buf: np.ndarray, t_axis: int, shape: tuple) -> np.ndarray:
    """buf [T, *lead, ...] as a float array of `shape`: a copy only for a time-major buffer."""
    order = (*range(1, t_axis + 1), 0, *range(t_axis + 1, buf.ndim))
    return np.ascontiguousarray(buf.transpose(order)).view(np.float64).reshape(shape)


def _recur(kind: str, f: np.ndarray, shared: bool, src: np.ndarray, out: np.ndarray) -> None:
    """The production kernel: out_0 = src_0, out_s = f_s . out_{s-1} + src_s.

    `src` (possibly `out`) and `out` are time-major, time possibly reversed.
    `f` holds the factor of each step s = 1..T-1, or with `shared` one
    channel-tail factor, copied to one contiguous row when rows are contiguous.
    """
    row = out.shape[1:]

    def per_step(c):
        if shared and out[0].flags.c_contiguous:
            c = np.broadcast_to(c, row).copy()
        return itertools.repeat(c) if shared else c

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
    t_axis = b.ndim - 1 - _B_TRAIL[elem.kind]
    ta = np.moveaxis(np.broadcast_to(a, full), t_axis, 0)
    tb = np.moveaxis(b, t_axis, 0)
    out = np.empty_like(tb)
    x = np.zeros_like(tb[0])
    for t in range(tb.shape[0]):
        x = _apply(elem.kind, ta[t], x) + tb[t]
        out[t] = x
    return np.moveaxis(out, 0, t_axis)


def scan_linear(elem: ScanElement) -> np.ndarray:
    """Inclusive states x_1..x_T, in b's shape and layout."""
    kind = elem.kind
    a, b, _, shared = _check_elements(kind, elem.a, elem.b)
    t_axis = b.ndim - 1 - _B_TRAIL[kind]
    # a shared factor has no time axis, and "moving" its axis 0 leaves it as it is
    f = _time_major(kind, a, 0 if shared else t_axis)
    src, out = _buffers(kind, b, t_axis)
    _recur(kind, f if shared else f[1:], shared, src, out)
    return _lead_major(out, t_axis, b.shape)


def scan_backward(
    elem: ScanElement, states: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoints (da, db) of the recurrence given output cotangents g, in a's and b's shapes.

    The state adjoint lam_t = g_t + a_{t+1}^T lam_{t+1} (conjugate for
    "cdiag") is the forward kernel run in reverse time on the adjoint
    factor, shifted one step.  Then db_t = lam_t and da_t = lam_t (x) x_{t-1}
    (with the kind-appropriate product); a shared factor's da is that
    product summed over the batch and time axes.
    """
    kind = elem.kind
    a, b, full, shared = _check_elements(kind, elem.a, elem.b)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != b.shape:
        raise ShapeError(f"cotangent shape {g.shape} does not match b shape {b.shape}")
    t_axis = b.ndim - 1 - _B_TRAIL[kind]

    f = _time_major(kind, a, 0 if shared else t_axis)
    if kind == "cdiag":
        f = np.conj(f)
    elif kind == "mat2":
        f = np.swapaxes(f, -1, -2)
    src, lam = _buffers(kind, g, t_axis)
    # reversed time: step s multiplies by the adjoint of a_{T-s}
    _recur(kind, f if shared else f[:0:-1], shared, src[::-1], lam[::-1])

    # filled and summed in b's layout, so a shared da keeps its summation order
    da = np.empty(full)
    wda = _time_major(kind, da, t_axis)
    x_prev = _time_major(kind, np.asarray(states, dtype=np.float64), t_axis)[:-1]
    wda[0] = 0.0
    if kind == "diag":
        np.multiply(lam[1:], x_prev, out=wda[1:])
    elif kind == "cdiag":
        np.conjugate(x_prev, out=wda[1:])
        wda[1:] *= lam[1:]
    else:
        np.multiply(lam[1:, ..., :, None], x_prev[..., None, :], out=wda[1:])
    if shared:
        da = da.sum(axis=tuple(range(t_axis + 1)))
    return da, _lead_major(lam, t_axis, b.shape)
