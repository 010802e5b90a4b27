"""Reverse-mode automatic differentiation on a recorded tape.

A `Tensor` wraps one float64 numpy array.  While a `Tape` is active,
every primitive appends a node (parent references, vjp closure) to it;
`backward` replays the node list once in reverse, which is a reverse
topological order because nodes are appended in construction order.

Everything is real float64.  Complex quantities are (re, im) pairs in a
trailing axis of length 2, so complex arithmetic decomposes into real
primitives and every adjoint is derived exactly once, for the real case.

A few fused primitives carry hand-derived adjoints so a block records a
handful of nodes instead of dozens: `project_scan` and `gate_scan` (a
block's forcing and its scan, whose reverse recurrence is the forward
kernel run backwards in time, see scan.scan_backward), `affine`
(x @ w + b), `layer_norm` (which saves only the normalised input and
1/std), `reshape`, and `gated_residual`, a block's whole tail, which
saves no array of its own and recomputes its intermediates in the adjoint.
Every adjoint here is checked against central finite differences in the
test suite.

The tape keeps only the arrays some adjoint reads.  A node holds no
output and refers to a parent recorded on the same tape by its index,
and each vjp closure binds the shapes, operands or outputs it reads,
never a whole Tensor.  An intermediate no adjoint reads (an `add` fed
only to a `sum_`, say) is freed during the forward, as soon as the code
that built it drops it.  Two more rules hold the tape down:

- The tape keeps no array it can rebuild bit for bit from one it already
  keeps.  A taped output that can be rebuilt carries a recipe, a closure
  that remakes it with the forward's own operations, and `matmul`,
  `affine`, `gated_residual` and the two scans keep that recipe instead
  of the array.  A layer-norm output is rebuilt from (xhat, gain, bias),
  which its node keeps anyway, at the cost of two elementwise operations.
  A scan's states, with its forcing (and LrcSSM's gate and tanh), are
  rebuilt from u's recipe at the cost of the forcing products and one
  forward scan, once per backward: the first adjoint that reads them
  makes them, and the scan's own adjoint takes them over and drops them.
  A rebuild uses array operations only, so it records nothing on the
  tape that is active while `backward` runs (selective recomputation,
  Chen et al., arXiv:1604.06174).
- A cotangent may be a read-only view (`sum_` returns its incoming
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

    __slots__ = ("data", "requires_grad", "_tape", "_node_id", "_recipe")

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
        # a taped output's rebuild: a closure that remakes this array, bit for
        # bit, from arrays the tape keeps anyway; a vjp keeps it instead
        self._recipe: Callable[[], np.ndarray] | None = None

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

    def __matmul__(self, other):
        return matmul(self, other)

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


def _sigmoid(d: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Logistic sigmoid of an array; `overwrite` lets it use d's buffer as scratch.

    Neither exponent is positive, so nothing overflows; for d >= 0 this is
    1 / (1 + exp(-d)) and for d < 0 it is exp(d) / (1 + exp(d)), bit for bit.
    """
    # out= arrays, so 0-d input updates in place too
    out = np.minimum(d, 0.0, out=np.empty_like(d))
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


def _dot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x [..., k] @ w [k, n] as one 2-D product over all leading axes; numpy
    would run [T, 1, k] @ w as T separate products, slower and in other bits."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[1:])


def _matmul_vjp(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    gx = _dot(g, w.T)
    gw = x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, w.shape[1])
    return gx, gw


def _broadcasts_into(shape: tuple[int, ...], into: tuple[int, ...]) -> bool:
    return len(shape) <= len(into) and all(s in (1, o) for s, o in zip(shape[::-1], into[::-1]))


def _affine_data(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = _dot(x, w)
    out += b
    return out


def _scale_shift(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """xhat * gain + bias: a layer norm's output, as its forward makes it."""
    out = xhat * gain
    out += bias
    return out


def _keep(x: Tensor):
    """What a vjp binds to read x's array later: its rebuild recipe, or the array."""
    return x.data if x._recipe is None else x._recipe


def _kept(k) -> np.ndarray:
    """The array `_keep` stood for, rebuilt bit for bit from a recipe."""
    return k if type(k) is np.ndarray else k()


def matmul(x, w) -> Tensor:
    """x @ w with w strictly 2-D; leading axes of x are batch axes."""
    x, w = _lift(x), _lift(w)
    _check_matmul(x, w, "matmul")
    xk, wd = _keep(x), w.data
    return _record(_dot(x.data, wd), (x, w), lambda g: _matmul_vjp(_kept(xk), wd, g))


def affine(x, w, b) -> Tensor:
    """x @ w + b as one node; `b` broadcasts into the product's shape."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    _check_matmul(x, w, "affine")
    xk, wd, bs = _keep(x), w.data, b.data.shape
    shape = x.shape[:-1] + wd.shape[1:]
    if not _broadcasts_into(bs, shape):
        raise ShapeError(f"affine bias {bs} does not broadcast into {shape}")
    out = _affine_data(x.data, wd, b.data)

    def vjp(g):
        gx, gw = _matmul_vjp(_kept(xk), wd, g)
        return gx, gw, _unbroadcast(g, bs)

    return _record(out, (x, w, b), vjp)


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis.

    One node that saves only the normalised input and 1/std.  With
    xhat the normalised input and gy = g * gain, the input adjoint is
    (gy - mean(gy) - xhat * mean(gy * xhat)) / std.  A taped output
    carries a recipe that rebuilds it from (xhat, gain, bias) with the
    forward's own two operations, so its readers keep that instead.
    """
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    inv_n = 1.0 / x.shape[-1]
    # np.add.reduce is ndarray.sum's own reduction, without its Python wrapper
    centered = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) * inv_n
    std = np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) * inv_n + eps)
    xhat = np.divide(centered, std, out=centered)
    rstd = 1.0 / std
    gd, bd = gain.data, bias.data

    def vjp(g):
        gy = g * gd
        gx = gy - np.add.reduce(gy, axis=-1, keepdims=True) * inv_n
        gx -= xhat * (np.add.reduce(gy * xhat, axis=-1, keepdims=True) * inv_n)
        gx *= rstd
        return gx, _unbroadcast(g * xhat, gd.shape), _unbroadcast(g, bd.shape)

    out = _record(_scale_shift(xhat, gd, bd), (x, gain, bias), vjp)
    if out._tape is not None:
        out._recipe = lambda: _scale_shift(xhat, gd, bd)
    return out


def gated_residual(h, x, c, d, u, wv, bv, wg, bg) -> Tensor:
    """h + (r @ wv + bv) * sigmoid(r @ wg + bg) with r = x @ c + d * u, as one node.

    A block's tail: the readout of the scan states x [..., n] through
    c [n, H], the feedthrough d * u, the GLU and the residual add.  The
    node keeps only the weights and x and u, or their recipes: a block's
    states come from a scan node and u from a layer norm, so the tape keeps
    neither array.  Its adjoint rebuilds them, then recomputes r, the GLU
    value and the gate (one readout and two GLU products, one sigmoid)
    instead of taping three [..., H] arrays (selective recomputation, Chen
    et al., arXiv:1604.06174).  Forward and adjoint run the elementwise ops
    and products of the same tail composed from `matmul`, `mul`, `add`,
    `affine` and `sigmoid`, in that composition's order, so every bit
    agrees with it; the forward works in place where that changes no
    bit.  Without a tape the states are freed once r is made, if the
    caller holds no other reference to them.
    """
    h, x, c, d, u, wv, bv, wg, bg = map(_lift, (h, x, c, d, u, wv, bv, wg, bg))
    _check_matmul(x, c, "gated_residual")
    shape = x.shape[:-1] + c.shape[1:]
    square = (shape[-1], shape[-1])
    if h.shape != shape or u.shape != shape or wv.shape != square or wg.shape != square:
        raise ShapeError(
            f"gated_residual needs h and u of shape {shape} and GLU weights {square}, got "
            f"{h.shape}, {u.shape}, {wv.shape} and {wg.shape}"
        )
    if not all(_broadcasts_into(t.shape, shape) for t in (d, bv, bg)):
        raise ShapeError(f"gated_residual: {d.shape}, {bv.shape}, {bg.shape} do not broadcast into {shape}")
    cd, dd, uk = c.data, d.data, _keep(u)
    wvd, bvd, wgd, bgd = wv.data, bv.data, wg.data, bg.data
    r = _dot(x.data, cd)
    r += dd * u.data
    if _ACTIVE:
        xk = _keep(x)
    else:  # nothing reads the states again: let them go before the GLU
        x = xk = None
    out = _affine_data(r, wvd, bvd)
    pre = _affine_data(r, wgd, bgd)
    del r
    gate = _sigmoid(pre, overwrite=True)
    del pre
    out *= gate
    del gate
    out += h.data

    def vjp(g):
        xd, ud = _kept(xk), _kept(uk)
        r = _dot(xd, cd)
        r += dd * ud
        gate = _sigmoid(_affine_data(r, wgd, bgd), overwrite=True)
        g_pre = _affine_data(r, wvd, bvd)  # the GLU value, overwritten by g * value
        np.multiply(g, g_pre, out=g_pre)
        g_value = g * gate
        g_pre *= gate
        np.subtract(1.0, gate, out=gate)
        g_pre *= gate
        del gate
        g_r, g_wg = _matmul_vjp(r, wgd, g_pre)
        g_bg = _unbroadcast(g_pre, bgd.shape)
        del g_pre
        g_rv, g_wv = _matmul_vjp(r, wvd, g_value)
        g_bv = _unbroadcast(g_value, bvd.shape)
        del r, g_value
        g_r += g_rv
        del g_rv
        g_d = _unbroadcast(g_r * ud, dd.shape)
        g_u = g_r * dd
        g_x, g_c = _matmul_vjp(xd, cd, g_r)
        return g, g_x, g_c, g_d, g_u, g_wv, g_bv, g_wg, g_bg

    return _record(out, (h, x, c, d, u, wv, bv, wg, bg), vjp)


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


def reshape(x, shape) -> Tensor:
    """A view of x with a new shape (a copy only where numpy needs one)."""
    x = _lift(x)
    xs = x.data.shape
    return _record(x.data.reshape(shape), (x,), lambda g: (g.reshape(xs),))


# --- fused / structured primitives ---------------------------------------------


def _scan_node(u: Tensor, parents: tuple, build, adjoint) -> Tensor:
    """The states of the scan whose element `build` makes from u's array, as one
    node that keeps no array of the scan's own.

    `build(ud)` returns the scan element made from u's array and what
    `adjoint` reads besides it.  `adjoint(uk, held)` maps the scan's
    adjoints to the parents'; `held` is the list [a, extra, da, db], which
    the adjoint may empty to free each array once it is read.  The output
    has a pair axis flattened into the channels, [..., n] with n = P or 2P.
    A taped output's recipe rebuilds the states from u's recipe at most
    once per backward: the first adjoint that reads them makes them, and
    this node's vjp takes them over.
    """
    uk, ndim = _keep(u), u.ndim
    elem = build(u.data)[0]  # the forward drops what only the adjoint reads
    states = _scan.scan_linear(elem)
    del elem
    rebuilt = []  # (element, extra, states) of one rebuild, until the vjp takes them

    def flat(x):
        return x if x.ndim == ndim else x.reshape(x.shape[:-2] + (-1,))

    def rebuild():
        if not rebuilt:
            elem, extra = build(_kept(uk))
            x = _scan.scan_linear(elem)
            # the adjoint reads only b's shape, so a zero-stride stand-in replaces b
            zeros = np.broadcast_to(0.0, elem.b.shape)
            rebuilt.append((_scan.ScanElement(elem.a, zeros, elem.kind), extra, x))
        return flat(rebuilt[0][2])

    def vjp(g):
        rebuild()
        elem, extra, x = rebuilt.pop()
        da, db = _scan.scan_backward(elem, x, g.reshape(x.shape))
        held = [elem.a, extra, da, db]  # the adjoint takes these over, to free each once read
        del elem, extra, x, g, da, db
        return adjoint(uk, held)

    out = _record(flat(states), parents, vjp)
    if out._tape is not None:
        out._recipe = rebuild
    return out


def project_scan(u, w, a, kind: str) -> Tensor:
    """States of x_t = a * x_{t-1} + u_t @ w (x_0 = 0) under a shared factor a, as one node.

    w [H, P, 2] maps u [..., H] to the forcing [..., P, 2] as one product
    over interleaved columns, [..., H] @ [H, 2P]; `kind` is "cdiag" or
    "mat2" and a its shared factor (see `scan`).  The states [..., P, 2]
    come out as [..., 2P].
    """
    u, w, a = _lift(u), _lift(w), _lift(a)
    if w.ndim != 3 or w.shape[-1] != 2 or u.shape[-1] != w.shape[0]:
        raise ShapeError(f"project_scan needs u [..., H] and w [H, P, 2], got {u.shape} and {w.shape}")
    ws, a_data = w.shape, a.data
    wd = w.data.reshape(ws[0], -1)

    def build(ud):
        b = _dot(ud, wd)
        return _scan.ScanElement(a_data, b.reshape(b.shape[:-1] + ws[1:]), kind), None

    def adjoint(uk, held):
        _, _, da, db = held
        gu, gw = _matmul_vjp(_kept(uk), wd, db.reshape(db.shape[:-2] + wd.shape[1:]))
        return gu, gw.reshape(ws), da

    return _scan_node(u, (u, w, a), build, adjoint)


def gate_scan(u, wa, ba, wb, bb) -> Tensor:
    """States of x_t = a_t * x_{t-1} + (1 - a_t) * tanh(u_t @ wb + bb) (x_0 = 0)
    with the gate a_t = sigmoid(u_t @ wa + ba), as one node.

    Forward and adjoint run the elementwise ops and products of the same
    recurrence composed from `affine`, `sigmoid`, `sub`, `mul`, a tanh node
    and a per-step "diag" scan node, in that composition's order, so every
    bit agrees with it.  u is listed twice among the parents, the drive's
    use first, so its cotangents add up in the composition's order.
    """
    u, wa, ba, wb, bb = map(_lift, (u, wa, ba, wb, bb))
    _check_matmul(u, wa, "gate_scan")
    _check_matmul(u, wb, "gate_scan")
    wad, bad, wbd, bbd = wa.data, ba.data, wb.data, bb.data

    def build(ud):
        gate = _sigmoid(_affine_data(ud, wad, bad), overwrite=True)
        tnh = np.tanh(_affine_data(ud, wbd, bbd))
        drive = 1.0 - gate
        drive *= tnh
        return _scan.ScanElement(gate, drive, "diag"), tnh

    def adjoint(uk, held):
        gate, tnh, da, db = held
        held.clear()
        ud = _kept(uk)
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
        return gu_b, gwb, gbb, gu_a, gwa, _unbroadcast(da, bad.shape)

    return _scan_node(u, (u, wb, bb, u, wa, ba), build, adjoint)


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
    never touched get exact zeros.  A loss that was built with no tape
    active yields all zeros plus a warning.
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
