"""A block's forcing and scan as the unfused composition of autodiff primitives
around a scan node that keeps its states: the bitwise oracle of the forcing and
scan of `autodiff.BlockRows`, which the stack's training node rebuilds instead."""

import numpy as np

from loopseq import autodiff as ad
from loopseq import scan


def _matmul(x, w):
    """x @ w as one node with w strictly 2-D, one 2-D product over x's leading axes."""
    xd, wd = x.data, w.data
    return ad._record(ad._dot(xd, wd), (x, w), lambda g: ad._matmul_vjp(xd, wd, g))


def kept_scan(a, b, kind):
    """x_t = a_t * x_{t-1} + b_t as one node whose vjp keeps the states it returns."""
    a, b = ad._lift(a), ad._lift(b)
    a_data, b_shape = a.data, b.data.shape
    states = scan.scan_linear(scan.ScanElement(a_data, b.data, kind))

    def vjp(g):
        elem = scan.ScanElement(a_data, np.broadcast_to(0.0, b_shape), kind)
        return scan.scan_backward(elem, states, g)

    return ad._record(states, (a, b), vjp)


def kept_project_scan(u, w, a, kind):
    """The forcing u @ w [..., P, 2] as matmul and reshape nodes, then the kept scan,
    with its states reshaped to [..., 2P]."""
    hidden, state, _ = w.shape
    flat = _matmul(u, ad.reshape(w, (hidden, 2 * state)))
    x = kept_scan(a, ad.reshape(flat, flat.shape[:-1] + (state, 2)), kind)
    return ad.reshape(x, x.shape[:-2] + (2 * state,))


def _tanh(x):
    """tanh as one node whose adjoint reads its output: g * (1 - out * out)."""
    out = np.tanh(x.data)
    return ad._record(out, (x,), lambda g: (g * (1.0 - out * out),))


def kept_gate_scan(u, wa, ba, wb, bb):
    """LrcSSM's gate and drive as affine, sigmoid, sub, affine, tanh and mul nodes,
    then the kept per-step scan."""
    gate = ad.sigmoid(ad.affine(u, wa, ba))
    drive = (1.0 - gate) * _tanh(ad.affine(u, wb, bb))
    return kept_scan(gate, drive, "diag")
