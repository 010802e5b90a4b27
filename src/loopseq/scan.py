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

A sequence can also be scanned in chunks, and independent recurrences
side by side.  An element's `prev` is the state before its first step: a
chunk's scan starts from the last state of the chunk before, by one step of
the kernel, and its adjoint adds da's first product, which needs that state.
In reverse, `carry_back` gives the state adjoint a chunk hands the chunk
before it, which that chunk adds into its cotangent's last row.  `Joint`
lays independent recurrences over the same rows side by side on the channel
axis of one element, which their owners write into, so that one
`scan_linear` call scans them all.  Either way the states and state
adjoints keep the bits of one scan over the whole sequence.

`scan_backward` returns each adjoint in its input's shape: a shared
factor's `da` is summed over the time and batch axes.  That sum is built a
fixed number of bytes of rows at a time, each chunk's `np.add.reduce`
starting from the running total, so the [T, ..., n] products are never
held at once and the sum keeps the bits of the materialised one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

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
    or per-channel 2x2 matrix), b the additive term, and prev the state
    before the first step, in b[0]'s shape (None: zero).
    """

    a: np.ndarray
    b: np.ndarray
    kind: str = "diag"
    prev: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown scan element kind {self.kind!r}; expected one of {KINDS}")


def _check_elements(elem: ScanElement):
    """Validate b's trailing dims, a's layout and prev's shape against b.

    Returns (a, b, full, shared, prev): `full` is a per-step factor's shape;
    nothing is copied.
    """
    kind = elem.kind
    a = np.asarray(elem.a, dtype=np.float64)
    b = np.asarray(elem.b, dtype=np.float64)
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
    prev = elem.prev
    if prev is not None:
        prev = np.asarray(prev, dtype=np.float64)
        if prev.shape != b.shape[1:]:
            raise ShapeError(f"prev shape {prev.shape} is not one step of b, {b.shape[1:]}")
    return a, b, full, a.shape == tail, prev


def _complex(kind: str, z: np.ndarray) -> np.ndarray:
    """z itself, or for "cdiag" its pairs viewed as complex128."""
    if kind != "cdiag":
        return z
    if z.strides[-1] != z.itemsize:
        z = np.ascontiguousarray(z)
    return z.view(np.complex128)[..., 0]


def _recur(kind: str, f: np.ndarray, shared: bool, src: np.ndarray, out: np.ndarray, prev=None) -> None:
    """The production kernel: out_s = f_s . out_{s-1} + src_s from out_{-1} = prev,
    or out_0 = src_0 when prev is None.

    `src` and `out` run along axis 0, time possibly reversed.  `f` holds
    the factor of each step with a state before it (s = 0..T-1 from `prev`,
    else s = 1..T-1), or with `shared` one channel-tail factor, copied to
    one contiguous row.
    """
    row = out.shape[1:]

    def per_step(c):
        return itertools.repeat(np.broadcast_to(c, row).copy()) if shared else c

    tmp = np.empty(row, out.dtype)
    mul, add = np.multiply, np.add  # positional `out`: the cheapest ufunc call
    if prev is None:
        out[0] = src[0]
        prev, src, out = out[0], src[1:], out[1:]
    if kind != "mat2":
        for fs, b, cur in zip(per_step(f), src, out):
            mul(fs, prev, tmp)
            add(tmp, b, cur)
            prev = cur
        return
    # x'_i = a_i0 x_0 + a_i1 x_1, one matrix column at a time
    tmp1 = np.empty_like(tmp)
    for f0, f1, b, cur in zip(per_step(f[..., 0]), per_step(f[..., 1]), src, out):
        mul(f0, prev[..., :1], tmp)
        mul(f1, prev[..., 1:], tmp1)
        add(tmp, tmp1, tmp)
        add(tmp, b, cur)
        prev = cur


def scan_sequential(elem: ScanElement) -> np.ndarray:
    """Step-by-step evaluation of the recurrence on pairs; the reference route."""
    a, b, full, _, prev = _check_elements(elem)
    a = np.broadcast_to(a, full)
    out = np.empty_like(b)
    x = np.zeros_like(b[0]) if prev is None else prev
    for t in range(b.shape[0]):
        x = _apply(elem.kind, a[t], x) + b[t]
        out[t] = x
    return out


def scan_linear(elem: ScanElement) -> np.ndarray:
    """Inclusive states x_1..x_T, in b's shape."""
    kind = elem.kind
    a, b, _, shared, prev = _check_elements(elem)
    f = _complex(kind, a)
    out = np.empty(b.shape)
    if prev is None:
        _recur(kind, f if shared else f[1:], shared, _complex(kind, b), _complex(kind, out))
    else:
        _recur(kind, f, shared, _complex(kind, b), _complex(kind, out), _complex(kind, prev))
    return out


class Joint:
    """Independent recurrences of one kind over the same time and lead axes, with
    their channels side by side in one element, so one kernel call scans them all.

    `lead` is b's shape before its channel axis and `widths` each part's
    channel count.  `factors` holds each part's shared factor, or is None
    for per-step factors, which the parts write as they write their
    forcings.  `elem` starts with empty forcings (and per-step factors);
    `columns(elem.b)[i]` is part i's forcing as a [rows, columns] view, the
    layout a product can write.  The kernel acts on each channel on its own,
    so each part's states, `split` from the joint ones, are its own scan's
    bits, and nothing is copied to join the parts.
    """

    def __init__(self, kind: str, lead: tuple, widths: list[int], factors: list | None = None):
        pair = 1 if kind == "diag" else 2
        width = sum(widths)
        b = np.empty(lead + (width, 2) if pair == 2 else lead + (width,))
        if factors is None:
            a = np.empty(b.shape + (2,) * (kind == "mat2"))
        else:
            a = factors[0] if len(factors) == 1 else np.concatenate(factors)
        self.elem = ScanElement(a, b, kind)
        self._axis, self._pair = len(lead), pair
        self._flat = (math.prod(lead), width * pair)
        self._cuts = list(itertools.accumulate(widths[:-1]))

    def split(self, z: np.ndarray, axis: int | None = None) -> list[np.ndarray]:
        """Each part's view of a joint array, cut along its channel axis (`axis`: 0
        for a shared factor or its da)."""
        return np.split(z, self._cuts, axis=self._axis if axis is None else axis)

    def columns(self, z: np.ndarray) -> list[np.ndarray]:
        """Each part's view of a joint array of b's shape (or a per-step a's, for
        "diag"), as the [rows, columns] slice of its rows and channels."""
        flat = z.reshape(self._flat)  # contiguous, so a view
        return np.split(flat, [c * self._pair for c in self._cuts], axis=1)

    def start_from(self, carries: list) -> None:
        """Start each part's scan from its carry, the last state its chunk before
        left (None: no chunk before), written into the element's one `prev`.

        A part with no carry beside one with a carry starts from zero rows, so
        its first state is a_0 . (+0) + b_0: b_0 itself wherever a_0 is finite
        and b_0 is not -0.0, which comes out +0.0 where a_0 . (+0) is +0.0.
        With no carry at all, `prev` stays None and the first state is b_0.
        """
        if all(carry is None for carry in carries):
            return
        prev = np.zeros(self.elem.b.shape[1:])
        for part, carry in zip(self.split(prev[None]), carries):
            if carry is not None:
                part[0] = carry
        self.elem.prev = prev

    def drop_forcing(self) -> None:
        """Free the forcing once the states are made: b becomes a zero-stride
        stand-in of its shape, all that `scan_backward` and `carry_back` read of
        it."""
        self.elem = replace(self.elem, b=np.broadcast_to(0.0, self.elem.b.shape))


def scan_backward(
    elem: ScanElement, states: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoints (da, db) of the recurrence given output cotangents g, in a's and b's shapes.

    The state adjoint lam_t = g_t + a_{t+1}^T lam_{t+1} (conjugate for
    "cdiag") is the forward kernel run in reverse time on the adjoint
    factor, shifted one step.  Then db_t = lam_t and da_t = lam_t (x) x_{t-1}
    (with the kind-appropriate product); a shared factor's da is that
    product summed over the time and batch axes, a chunk of rows at a time.

    For a chunk of a longer sequence, g's last row holds the state adjoint
    the chunk after it handed back (`carry_back`), added in, and da's first
    product, lam_0 (x) prev, takes the state before the chunk: a shared
    factor's da adds it summed over the lead axes, after its other rows.
    """
    kind = elem.kind
    a, b, full, shared, prev = _check_elements(elem)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != b.shape:
        raise ShapeError(f"cotangent shape {g.shape} does not match b shape {b.shape}")

    f = _adjoint_factor(kind, a)
    db = np.empty(b.shape)
    lam = _complex(kind, db)
    # reversed time: step s multiplies by the adjoint of a_{T-s}
    _recur(kind, f if shared else f[:0:-1], shared, _complex(kind, g)[::-1], lam[::-1])

    x = _complex(kind, np.asarray(states, dtype=np.float64))
    if shared and a.size > 1:  # NumPy sums a one-element tail pairwise, so that one stays whole
        da = _reduce_shared_da(kind, a.shape, b.ndim - _B_TRAIL[kind], lam, x)
    else:
        da = np.empty(full)
        wda = _complex(kind, da)
        wda[0] = 0.0
        _outer(kind, lam[1:], x[:-1], wda[1:])
        if shared:
            da = da.sum(axis=tuple(range(b.ndim - _B_TRAIL[kind])))
    if prev is not None:
        first = np.empty(full[1:]) if shared else da[0]
        _outer(kind, lam[0], _complex(kind, prev), _complex(kind, first))
        if shared:
            da += np.add.reduce(first.reshape((-1,) + da.shape), axis=0)
    return da, db


def carry_back(elem: ScanElement, db: np.ndarray) -> np.ndarray:
    """a_0^T lam_0: the state adjoint a chunk hands the chunk before it, from its
    own `scan_backward` db, by one step of the reverse kernel from lam_0.

    The chunk before adds it into its cotangent's last row, where one scan
    over the whole sequence adds g to the same product, so the state
    adjoints keep that scan's bits.  The kernel's step adds -0.0, which
    moves no bit.
    """
    kind = elem.kind
    a, _, _, shared, _ = _check_elements(elem)
    f = _adjoint_factor(kind, a)
    out = np.full(db[:1].shape, -0.0)
    step = _complex(kind, out)
    _recur(kind, f if shared else f[:1], shared, step, step, _complex(kind, db[0]))
    return out[0]


def _adjoint_factor(kind: str, a: np.ndarray) -> np.ndarray:
    """The factor of the reverse recurrence: a, conjugated for "cdiag" and
    transposed for "mat2"."""
    f = _complex(kind, a)
    if kind == "cdiag":
        return np.conj(f)
    if kind == "mat2":
        return np.swapaxes(f, -1, -2)
    return f


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
