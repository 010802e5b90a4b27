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

    Returns (a, b, full, shared): `full` is a per-step factor's shape, and
    a shared factor comes back as a view with unit batch and time axes in
    front, so both layouts go time-major the same way; nothing is copied.
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
    return a.reshape((1,) * (len(full) - a.ndim) + a.shape), b, full, a.shape == tail


def _time_major(kind: str, z: np.ndarray, t_axis: int) -> np.ndarray:
    """View z [*lead, T, ...] as [T, *lead, ...]; "cdiag" pairs become complex128."""
    if kind == "cdiag":
        if z.strides[-1] != z.itemsize:
            z = np.ascontiguousarray(z)
        z = z.view(np.complex128)[..., 0]
    return np.moveaxis(z, t_axis, 0)


def _recur(kind: str, steps, src: np.ndarray, out: np.ndarray) -> None:
    """The production kernel: out_0 = src_0, out_s = steps_s . out_{s-1} + src_s.

    `src` and `out` are time-major.  `steps` yields the factor of each
    step s = 1..T-1: slices of a time-major array, or one shared factor
    repeated (never copied), which broadcasts against each state.
    """
    tmp = np.empty_like(out[0]) if kind == "mat2" else None
    out[0] = src[0]
    prev = out[0]
    for f, cur, b in zip(steps, out[1:], src[1:]):
        if kind != "mat2":
            np.multiply(f, prev, out=cur)
        else:  # x'_i = a_i0 x_0 + a_i1 x_1, one matrix column at a time
            np.multiply(f[..., 0], prev[..., :1], out=cur)
            np.multiply(f[..., 1], prev[..., 1:], out=tmp)
            cur += tmp
        cur += b
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
    wa = _time_major(kind, a, t_axis)
    out = np.empty(b.shape)
    steps = itertools.repeat(wa[0]) if shared else wa[1:]
    _recur(kind, steps, _time_major(kind, b, t_axis), _time_major(kind, out, t_axis))
    return out


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

    wa = _time_major(kind, a, t_axis)
    if kind == "cdiag":
        wa = np.conj(wa)
    elif kind == "mat2":
        wa = np.swapaxes(wa, -1, -2)
    db = np.empty(b.shape)
    lam = _time_major(kind, db, t_axis)
    # reversed time: step s multiplies by the adjoint of a_{T-s}
    steps = itertools.repeat(wa[0]) if shared else wa[:0:-1]
    _recur(kind, steps, _time_major(kind, g, t_axis)[::-1], lam[::-1])

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
    return da, db
