"""Reverse-mode automatic differentiation on a recorded tape.

A `Tensor` wraps one float64 numpy array.  While a `Tape` is active,
every primitive appends a node (parent references, vjp closure) to it;
`backward` replays the node list once in reverse, which is a reverse
topological order because nodes are appended in construction order.

Everything is real float64.  Complex quantities are (re, im) pairs in a
trailing axis of length 2, so complex arithmetic decomposes into real
primitives and every adjoint is derived exactly once, for the real case.

A few fused primitives carry hand-derived adjoints so the model records
a handful of nodes instead of dozens: `affine` (x @ w + b) and `reshape`.
A block application's arithmetic is `BlockRows`, untaped: its forward
(layer norm, forcing, scan, readout, GLU and residual add) and its
adjoint split at the scan, whose reverse recurrence is the forward
kernel run backwards in time (see scan.scan_backward).  The stack runs
those steps over chunks of time rows, evaluation forward only and
training both ways, inside one tape node for the whole block stack.
Every adjoint is checked against central finite differences in the test
suite.

The tape keeps only the arrays some adjoint reads.  A node holds no
output and refers to a parent recorded on the same tape by its index,
and each vjp closure binds the shapes, operands or outputs it reads,
never a whole Tensor.  An intermediate no adjoint reads (an `add` fed
only to a `sum_`, say) is freed during the forward, as soon as the code
that built it drops it.  Across nodes one more rule holds:
a cotangent may be a read-only view (`sum_` returns its incoming
cotangent broadcast, not copied), may be shared between parents (`add`
hands its cotangent to both), and no vjp writes into its incoming `g`.
`backward` copies a leaf gradient that is read-only or whose memory it
already handed out, so every gradient it returns can be scaled in place.

`backward` releases the tape as it goes: once a node's vjp has run (or
no cotangent reached it) the node drops its parents and vjp, so the
saved arrays are freed during the reverse sweep and a finished tape
holds no reference cycle; reference counting alone frees it.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np

from . import scan as _scan
from .errors import ContractError, DtypeError, NumericError, ShapeError

_FLOAT64 = np.dtype(np.float64)


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse mode."""

    __slots__ = ("data", "requires_grad", "_tape", "_node_id")

    def __init__(self, data, requires_grad: bool = False):
        # a float64 ndarray, which every primitive makes, is stored as it is
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data)
            if np.iscomplexobj(data):
                raise DtypeError(
                    "complex arrays are not stored directly; use (re, im) pairs in a trailing axis"
                )
            if data.dtype != np.float64:
                data = data.astype(np.float64)
        self.data = data
        self.requires_grad = requires_grad
        self._tape: "Tape | None" = None
        self._node_id: int | None = None

    # -- introspection ------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operators ------------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)


class _Node:
    """One primitive application.

    `parents` has one reference per input: its node index when it was
    recorded on the same tape, the Tensor itself when it is a leaf that
    requires a gradient, and None otherwise.
    """

    __slots__ = ("parents", "vjp")

    def __init__(self, parents, vjp):
        self.parents = parents
        self.vjp = vjp


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False

    def __len__(self):
        return len(self.nodes)


_ACTIVE: list[Tape] = []


def param(data) -> Tensor:
    """A leaf tensor that accumulates gradients."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _lift(x) -> Tensor:
    if type(x) is Tensor:
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _record(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    tape = _ACTIVE[-1] if _ACTIVE else None
    if tape is None:
        return out
    refs = tuple(
        [None if not p.requires_grad else p._node_id if p._tape is tape else p for p in parents]
    )
    if refs.count(None) == len(refs):  # no input needs a gradient
        return out
    out.requires_grad = True
    out._tape = tape
    out._node_id = len(tape.nodes)
    tape.nodes.append(_Node(refs, vjp))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape its source was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --- elementwise primitives ---------------------------------------------------


# A vjp closure binds only what its adjoint reads: naming `x.data` inside
# a lambda would keep the whole Tensor `x`, and with it its array, alive.


def add(x, y) -> Tensor:
    x, y = _lift(x), _lift(y)
    xs, ys = x.data.shape, y.data.shape
    return _record(
        x.data + y.data, (x, y), lambda g: (_unbroadcast(g, xs), _unbroadcast(g, ys))
    )


def sub(x, y) -> Tensor:
    x, y = _lift(x), _lift(y)
    xs, ys = x.data.shape, y.data.shape
    return _record(
        x.data - y.data, (x, y), lambda g: (_unbroadcast(g, xs), _unbroadcast(-g, ys))
    )


def mul(x, y) -> Tensor:
    x, y = _lift(x), _lift(y)
    xd, yd = x.data, y.data
    return _record(
        xd * yd,
        (x, y),
        lambda g: (_unbroadcast(g * yd, xd.shape), _unbroadcast(g * xd, yd.shape)),
    )


def div(x, y) -> Tensor:
    x, y = _lift(x), _lift(y)
    xs, yd = x.data.shape, y.data
    out = x.data / yd
    return _record(
        out,
        (x, y),
        lambda g: (_unbroadcast(g / yd, xs), _unbroadcast(-g * out / yd, yd.shape)),
    )


def neg(x) -> Tensor:
    x = _lift(x)
    return _record(-x.data, (x,), lambda g: (-g,))


def exp(x) -> Tensor:
    x = _lift(x)
    out = np.exp(x.data)
    return _record(out, (x,), lambda g: (g * out,))


def sqrt(x) -> Tensor:
    x = _lift(x)
    out = np.sqrt(x.data)
    return _record(out, (x,), lambda g: (g * (0.5 / out),))


def _sigmoid(d: np.ndarray, overwrite: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid of an array, into `out` when given; `overwrite` lets it use
    d's buffer as scratch.

    Neither exponent is positive, so nothing overflows; for d >= 0 this is
    1 / (1 + exp(-d)) and for d < 0 it is exp(d) / (1 + exp(d)), bit for bit.
    """
    # out= arrays, so 0-d input updates in place too
    out = np.minimum(d, 0.0, out=np.empty_like(d) if out is None else out)
    np.exp(out, out=out)
    e = np.abs(d, out=d if overwrite else np.empty_like(d))
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    out /= e
    return out


def sigmoid(x) -> Tensor:
    x = _lift(x)
    out = _sigmoid(x.data)
    return _record(out, (x,), lambda g: (g * out * (1.0 - out),))


def relu(x) -> Tensor:
    x = _lift(x)
    xd = x.data
    return _record(np.maximum(xd, 0.0), (x,), lambda g: (g * (xd > 0),))


def sin(x) -> Tensor:
    x = _lift(x)
    xd = x.data
    return _record(np.sin(xd), (x,), lambda g: (g * np.cos(xd),))


def cos(x) -> Tensor:
    x = _lift(x)
    xd = x.data
    return _record(np.cos(xd), (x,), lambda g: (-g * np.sin(xd),))


# --- linear algebra -----------------------------------------------------------


def _check_matmul(x: Tensor, w: Tensor, op: str) -> None:
    if w.ndim != 2:
        raise ShapeError(f"{op} weight must be 2-D, got shape {w.shape}")
    if x.ndim < 2:
        raise ShapeError(f"{op} input must have at least 2 dims, got shape {x.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"{op} inner dims disagree: {x.shape} @ {w.shape}")


def _dot(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x [..., k] @ w [k, n] as one 2-D product over all leading axes; numpy
    would run [T, 1, k] @ w as T separate products, slower and in other bits.
    With `out`, a [rows, n] view, the product is written there instead."""
    if out is not None:
        return np.matmul(x.reshape(-1, x.shape[-1]), w, out=out)
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[1:])


def _matmul_vjp(x: np.ndarray, w: np.ndarray, g: np.ndarray, out: np.ndarray | None = None):
    gx = _dot(g, w.T, out)
    gw = x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, w.shape[1])
    return gx, gw


def _broadcasts_into(shape: tuple[int, ...], into: tuple[int, ...]) -> bool:
    return len(shape) <= len(into) and all(s in (1, o) for s, o in zip(shape[::-1], into[::-1]))


def _affine_data(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = _dot(x, w)
    out += b
    return out


def affine(x, w, b) -> Tensor:
    """x @ w + b as one node; `b` broadcasts into the product's shape."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    _check_matmul(x, w, "affine")
    xd, wd, bs = x.data, w.data, b.data.shape
    shape = x.shape[:-1] + wd.shape[1:]
    if not _broadcasts_into(bs, shape):
        raise ShapeError(f"affine bias {bs} does not broadcast into {shape}")
    out = _affine_data(xd, wd, b.data)

    def vjp(g):
        gx, gw = _matmul_vjp(xd, wd, g)
        return gx, gw, _unbroadcast(g, bs)

    return _record(out, (x, w, b), vjp)


# --- reductions and structure --------------------------------------------------


def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _lift(x)
    xs = x.data.shape
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):  # a read-only view, not a copy
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, xs),)

    return _record(out, (x,), vjp)


def mean_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _lift(x)
    n = x.size if axis is None else x.shape[axis]
    return mul(sum_(x, axis=axis, keepdims=keepdims), 1.0 / n)


def stack(xs: Sequence, axis: int = -1) -> Tensor:
    xs = tuple(_lift(x) for x in xs)
    shape, n = xs[0].shape, len(xs)
    if any(x.shape != shape for x in xs):
        raise ShapeError(f"stack needs tensors of one shape, got {[x.shape for x in xs]}")
    axis = range(len(shape) + 1)[axis]  # normalised; IndexError when out of range
    out = np.empty(shape[:axis] + (n,) + shape[axis:])
    for i, x in enumerate(xs):
        out[(slice(None),) * axis + (i,)] = x.data

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) for i in range(n))

    return _record(out, xs, vjp)


def unstack(x) -> list[Tensor]:
    """x's slices along axis 0, one node each: `stack`'s inverse over axis 0.

    Each slice's adjoint is x-shaped and -0.0 outside its slice: -0.0 is
    the exact additive identity, so `backward` adds the slices' cotangents
    into x's without moving a bit.
    """
    x = _lift(x)
    shape = x.shape

    def take(i):
        def vjp(g):
            out = np.full(shape, -0.0)
            out[i] = g
            return (out,)

        return vjp

    return [_record(x.data[i], (x,), take(i)) for i in range(shape[0])]


def reshape(x, shape) -> Tensor:
    """A view of x with a new shape (a copy only where numpy needs one)."""
    x = _lift(x)
    xs = x.data.shape
    return _record(x.data.reshape(shape), (x,), lambda g: (g.reshape(xs),))


# --- the block application -------------------------------------------------------


def _project_scan(kind: str, hidden: int, w: Tensor, a: Tensor):
    """The forcing u @ w [H, P, 2] scanned under the shared factor a, as `BlockRows`'
    (n, factor, build, adjoint): one product over interleaved columns, [..., H] @ [H, 2P]."""
    if w.ndim != 3 or w.shape[0] != hidden or w.shape[-1] != 2:
        raise ShapeError(f"BlockRows needs a forcing weight [{hidden}, P, 2], got {w.shape}")
    ws = w.shape
    wd = w.data.reshape(ws[0], -1)

    def build(ud, b, a=None):
        _dot(ud, wd, b)

    def adjoint(ud, held):
        _, _, da, db = held
        gu, gw = _matmul_vjp(ud, wd, db.reshape(db.shape[:-2] + wd.shape[1:]))
        return (gu,), (gw.reshape(ws), da)

    return 2 * ws[1], a.data, build, adjoint


def _gate_scan(kind: str, hidden: int, wb: Tensor, bb: Tensor, wa: Tensor, ba: Tensor):
    """LrcSSM's x_t = a_t * x_{t-1} + (1 - a_t) * tanh(u_t @ wb + bb) with the gate
    a_t = sigmoid(u_t @ wa + ba), a per-step "diag" scan, as `BlockRows`'
    (n, factor, build, adjoint).

    Forward and adjoint run the elementwise ops and products of the same
    recurrence composed from `affine`, `sigmoid`, `sub`, `mul`, a tanh node
    and a per-step scan node, in that composition's order, so every bit
    agrees with it.  u's cotangent comes back in two pieces, the drive's
    first, which add up in the composition's order.
    """
    if wa.ndim != 2 or wa.shape[0] != hidden or wb.shape != wa.shape:
        raise ShapeError(f"BlockRows needs gate and drive weights [{hidden}, P], got {wa.shape}, {wb.shape}")
    wad, bad, wbd, bbd = wa.data, ba.data, wb.data, bb.data

    def build(ud, b, a):
        ud = ud.reshape(-1, hidden)
        _sigmoid(_affine_data(ud, wad, bad), overwrite=True, out=a)
        tnh = _affine_data(ud, wbd, bbd)
        np.tanh(tnh, out=tnh)
        np.subtract(1.0, a, out=b)
        b *= tnh
        return tnh

    def adjoint(ud, held):
        gate, tnh, da, db = held
        held.clear()
        tnh = tnh.reshape(db.shape)
        one_minus = 1.0 - gate
        g_one_minus = db * tnh  # db is the drive's cotangent
        db *= one_minus  # now tanh's
        np.multiply(tnh, tnh, out=tnh)
        np.subtract(1.0, tnh, out=tnh)
        db *= tnh
        del tnh
        gu_b, gwb = _matmul_vjp(ud, wbd, db)
        gbb = _unbroadcast(db, bbd.shape)
        del db
        da -= g_one_minus  # the gate's cotangent, through the scan and through 1 - gate
        del g_one_minus
        da *= gate
        da *= one_minus
        del gate, one_minus
        gu_a, gwa = _matmul_vjp(ud, wad, da)
        return (gu_b, gu_a), (gwb, gbb, gwa, _unbroadcast(da, bad.shape))

    return wa.shape[1], None, build, adjoint


# the arch's part of a block application, by scan kind
_SCAN_PARTS = {"cdiag": _project_scan, "mat2": _project_scan, "diag": _gate_scan}


def _scale_shift(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """xhat * gain + bias: a layer norm's output, as its forward makes it."""
    out = xhat * gain
    out += bias
    return out


class BlockRows:
    """One block application's arithmetic with its operands bound, split at the scan,
    forward and adjoint: h + (r @ wv + bv) * sigmoid(r @ wg + bg) with
    r = x @ c + d * u, u = layer_norm(h) and x the states of the arch's scan of u.

    u is (h - mean) / sqrt(var + eps) * gain + bias over the last axis, with
    `hidden` = H and gain, bias, d, bv and bg [H].  `scan` is (kind, *tensors):
    ("cdiag" or "mat2", w, a), the forcing u @ w [H, P, 2] under the shared
    factor a (LRU, S5, LinOSS), whose states [..., P, 2] are read out as
    [..., 2P]; or ("diag", wb, bb, wa, ba), LrcSSM's gated scan.  c [n, H]
    reads the states out.  Every step but the scan acts on each time row on
    its own.  Forward: `layer_norm` makes u, `build` writes the scan's forcing
    (LrcSSM: its gate and drive) from u into a `scan.Joint`'s slice
    (`build_joint`), and `tail` makes the readout, feedthrough, GLU and
    residual add from the states.  Adjoint, after u and the states are
    rebuilt: `tail_adjoint`, then the scan's (`scan.scan_backward`), then
    `adjoint`, the forcing's, and `norm_adjoint`; together they return the
    gradients of `operands`, in that order.  Every elementwise op and product
    is that of the block composed from single-op nodes, in that composition's
    order, so every bit agrees with it.  `blocks.block_forward` runs the
    forward over all rows, and the stack's passes over chunks of rows, each
    chunk's scan started from the state the chunk before left.  Nothing here
    is taped.
    """

    def __init__(self, hidden: int, gain, bias, eps: float, scan: tuple, c, d, wv, bv, wg, bg):
        self.kind, *scan_tensors = scan
        self.scan_tensors = [_lift(t) for t in scan_tensors]
        self.n, self.factor, self.build, self.adjoint = _SCAN_PARTS[self.kind](self.kind, hidden, *self.scan_tensors)
        self.tensors = tuple(map(_lift, (gain, bias, c, d, wv, bv, wg, bg)))
        self.gd, self.bd, self.cd, self.dd, self.wvd, self.bvd, self.wgd, self.bgd = (t.data for t in self.tensors)
        want = ((hidden,),) * 2 + ((self.n, hidden), (hidden,)) + ((hidden, hidden), (hidden,)) * 2
        shapes = tuple(t.shape for t in self.tensors)
        if shapes != want:
            raise ShapeError(f"BlockRows needs gain, bias, c, d, wv, bv, wg, bg of shapes {want}, got {shapes}")
        self.operands = (*self.tensors[2:], *self.scan_tensors, *self.tensors[:2])
        self.eps = eps

    def layer_norm(self, hd: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """u = (h - mean) / std * gain + bias over the last axis, the normalised
        rows (h - mean) / std, written into `out` when given, and 1/std."""
        inv_n = 1.0 / hd.shape[-1]
        # np.add.reduce is ndarray.sum's own reduction, without its Python wrapper
        mean = np.add.reduce(hd, axis=-1, keepdims=True) * inv_n
        centered = np.subtract(hd, mean, out=out)
        std = np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) * inv_n + self.eps)
        xhat = np.divide(centered, std, out=centered)
        return self.rebuild_u(xhat), xhat, 1.0 / std

    def rebuild_u(self, xhat: np.ndarray) -> np.ndarray:
        """u from the normalised rows, as `layer_norm` makes it."""
        return _scale_shift(xhat, self.gd, self.bd)

    def tail(self, held: list, hd: np.ndarray) -> np.ndarray:
        """h + (r @ wv + bv) * sigmoid(r @ wg + bg) with r = x @ c + d * u, from
        held = [the states x, u]; it empties `held`, to free x once read out and
        u once fed through, before the GLU."""
        x, u = held
        held.clear()
        r = _dot(x.reshape(u.shape[:-1] + (self.n,)), self.cd)
        del x
        r += self.dd * u
        del u
        out = _affine_data(r, self.wvd, self.bvd)
        pre = _affine_data(r, self.wgd, self.bgd)
        del r
        gate = _sigmoid(pre, overwrite=True)
        del pre
        out *= gate
        del gate
        out += hd
        return out

    def tail_adjoint(self, g: np.ndarray, held: list, out: np.ndarray | None = None):
        """The tail's adjoint from its output's cotangent g (only read; one row of it
        may stand for every row) and held = [the states x, u], which it empties,
        to free u once read: x's cotangent in the readout's [..., n] layout
        (written into `out`, a [rows, n] view, when given), u's first piece, and
        the gradients of c, d, wv, bv, wg and bg.

        It recomputes the readout, the GLU value and the gate."""
        x, u = held
        held.clear()
        channels = u.shape[-1:]
        xf = x.reshape(u.shape[:-1] + (self.n,))
        del x
        r = _dot(xf, self.cd)
        r += self.dd * u
        gate = _sigmoid(_affine_data(r, self.wgd, self.bgd), overwrite=True)
        g_pre = _affine_data(r, self.wvd, self.bvd)  # the GLU value, overwritten by g * value
        np.multiply(g, g_pre, out=g_pre)
        g_value = g * gate
        g_pre *= gate
        np.subtract(1.0, gate, out=gate)
        g_pre *= gate
        del gate
        g_r, g_wg = _matmul_vjp(r, self.wgd, g_pre)
        g_bg = _unbroadcast(g_pre, channels)
        del g_pre
        g_rv, g_wv = _matmul_vjp(r, self.wvd, g_value)
        g_bv = _unbroadcast(g_value, channels)
        del r, g_value
        g_r += g_rv
        del g_rv
        g_d = _unbroadcast(g_r * u, channels)
        g_u = g_r * self.dd
        del u
        g_x, g_c = _matmul_vjp(xf, self.cd, g_r, out)
        return g_x, g_u, (g_c, g_d, g_wv, g_bv, g_wg, g_bg)

    def norm_adjoint(self, g_u: np.ndarray, xhat: np.ndarray, rstd: np.ndarray):
        """The layer norm's adjoint from u's whole cotangent: h's cotangent and the
        gradients of gain and bias."""
        channels, inv_n = xhat.shape[-1:], 1.0 / xhat.shape[-1]
        gy = g_u * self.gd
        gh = gy - np.add.reduce(gy, axis=-1, keepdims=True) * inv_n
        gh -= xhat * (np.add.reduce(gy * xhat, axis=-1, keepdims=True) * inv_n)
        del gy
        gh *= rstd
        return gh, _unbroadcast(g_u * xhat, channels), _unbroadcast(g_u, channels)


def build_joint(blocks: list[BlockRows], us: list[np.ndarray], carries: list | None = None) -> tuple:
    """The scans of blocks of one kind, each of its u over the same rows, as one
    `scan.Joint` whose parts each block's `build` wrote, each part started from
    its carry (`Joint.start_from`; None, or no `carries`, starts from zero),
    and what each build returned for its adjoint."""
    kind, lead = blocks[0].kind, us[0].shape[:-1]
    factors = None if blocks[0].factor is None else [blk.factor for blk in blocks]
    joint = _scan.Joint(kind, lead, [blk.n // (1 if kind == "diag" else 2) for blk in blocks], factors)
    b_cols = joint.columns(joint.elem.b)
    a_cols = b_cols if factors is not None else joint.columns(joint.elem.a)
    extras = [blk.build(u, b, a) for blk, u, b, a in zip(blocks, us, b_cols, a_cols)]
    joint.start_from(carries or [])
    return joint, extras


def softmax_cross_entropy(logits, labels: np.ndarray) -> Tensor:
    """Per-example cross entropy of integer labels under softmax logits.

    logits: [..., C]; labels: integer array of shape [...].
    Computed through a shifted log-sum-exp so large logits stay finite.
    """
    logits = _lift(logits)
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=-1)) + m[..., 0]
    picked = np.take_along_axis(z, labels[..., None], axis=-1)[..., 0]
    loss = lse - picked

    def vjp(g):
        soft = np.exp(shifted - (lse - m[..., 0])[..., None])
        soft_minus_onehot = soft.copy()
        np.put_along_axis(
            soft_minus_onehot,
            labels[..., None],
            np.take_along_axis(soft, labels[..., None], axis=-1) - 1.0,
            axis=-1,
        )
        return (soft_minus_onehot * g[..., None],)

    return _record(loss, (logits,), vjp)


# --- backward pass --------------------------------------------------------------


def backward(loss: Tensor, params: Sequence[Tensor] | None = None) -> dict[Tensor, Tensor]:
    """Reverse sweep from a scalar loss; returns a map parameter -> gradient.

    Every requested parameter appears in the map; parameters the loss
    never touched get exact zeros.  The map lists the gradients in the
    order the sweep first reaches each leaf, then the untouched ones; no
    training code reads that order (the clip sums in parameter order).  A
    loss that was built with no tape active yields all zeros plus a warning.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    params = list(params) if params is not None else []
    tape = loss._tape
    if tape is None:
        warnings.warn("loss is detached from any tape; gradients are zero", RuntimeWarning)
        return {p: Tensor(np.zeros_like(p.data)) for p in params}

    if tape.nodes[loss._node_id].vjp is None:
        raise ContractError("this tape has already been swept by backward and released")

    # cotangents of tape outputs, keyed by node index; each node is
    # released as the sweep passes it, whether or not a cotangent reached it
    need: dict[int, np.ndarray] = {loss._node_id: np.ones_like(loss.data)}
    leaf_grads: dict[Tensor, np.ndarray] = {}
    for i in range(len(tape.nodes) - 1, -1, -1):
        node = tape.nodes[i]
        parents, vjp = node.parents, node.vjp
        node.parents = node.vjp = None
        if i not in need:
            continue
        # the vjp owns its cotangent, so it can free it once read
        for p, pg in zip(parents, vjp(need.pop(i))):
            if pg is None or p is None:
                continue
            if isinstance(p, int):
                acc = need.get(p)
                need[p] = pg if acc is None else acc + pg
            else:
                acc = leaf_grads.get(p)
                leaf_grads[p] = pg if acc is None else acc + pg
        # unbound, so the last cotangent (or the sum it went into) is not held
        # through the next node's adjoint
        p = pg = acc = None

    # a cotangent may be a read-only view, or one array handed to two parents;
    # a gradient is the caller's to scale in place
    result, handed = {}, set()
    for p, g in leaf_grads.items():
        owner = id(g if g.base is None else g.base)
        if not g.flags.writeable or owner in handed:
            g = g.copy()
        handed.add(owner)
        result[p] = Tensor(g)
    for p in params:
        if p not in result:
            result[p] = Tensor(np.zeros_like(p.data))
    return result


_FD_STEP = 1e-5  # h, the finite-difference step


def finite_difference_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic gradients and central differences.

    f() must rebuild the scalar loss from the current parameter values.
    Without `rng`, each coordinate i is perturbed in place by +/- h and the
    error is |(f(p+h e_i) - f(p-h e_i)) / 2h - g_i| / (|g_i| + 1e-8).

    With `rng`, each parameter tensor instead gets one unit direction
    v = z / |z|, z ~ N(0, I), drawn in parameter order, and the error is
    |(f(p+hv) - f(p-hv)) / 2h - <g, v>| / (|<g, v>| + 1e-8): two loss
    evaluations per tensor rather than per coordinate, and every coordinate
    takes part.  The limit: v_i^2 averages 1/size(tensor), so one wrong
    coordinate carries a weight of about 1/size(tensor) in <g, v>, and a
    small defect in one entry of a large tensor can fall under a tolerance
    for some directions.
    """
    params, h = list(params), _FD_STEP
    with Tape():
        loss = f()
        if not np.isfinite(loss.data).all():
            raise NumericError("loss is non-finite at the evaluation point")
        grads = backward(loss, params)

    def rel_error(up, dn, g, where):
        if not (np.isfinite(up) and np.isfinite(dn)):
            raise NumericError(f"non-finite loss while perturbing {where}")
        fd = (up - dn) / (2.0 * h)
        return abs(fd - g) / (abs(g) + 1e-8)

    worst = 0.0
    for pi, p in enumerate(params):
        g = grads[p].data.reshape(-1)
        if rng is None:
            flat = p.data.flat  # writes through for any memory layout; reshape may copy
            for i in range(g.size):
                orig = flat[i]
                flat[i] = orig + h
                up = f().item()
                flat[i] = orig - h
                dn = f().item()
                flat[i] = orig
                worst = max(worst, rel_error(up, dn, g[i], f"param {pi} coordinate {i}"))
        else:
            v = rng.standard_normal(g.size)
            v /= np.linalg.norm(v)
            orig = p.data.copy()
            step = h * v.reshape(orig.shape)
            p.data[...] = orig + step
            up = f().item()
            p.data[...] = orig - step
            dn = f().item()
            p.data[...] = orig
            err = rel_error(up, dn, float(g @ v), f"param {pi} along a random direction")
            worst = max(worst, err)
    return worst
