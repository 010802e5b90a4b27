"""A block application as the unfused composition of autodiff primitives: a
layer-norm node, `scan_oracle`'s forcing and kept scan, and `tail_oracle`'s tail.
The bitwise oracle of `autodiff.ssm_block`, which records the whole application
as one node and keeps neither u nor the states."""

import numpy as np
from scan_oracle import kept_gate_scan, kept_project_scan
from tail_oracle import unfused_gated_residual

from loopseq import autodiff as ad


def _layer_norm(x, gain, bias, eps):
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis as one node that
    saves the normalised input and 1/std.

    With xhat the normalised input and gy = g * gain, the input adjoint is
    (gy - mean(gy) - xhat * mean(gy * xhat)) / std.
    """
    inv_n = 1.0 / x.shape[-1]
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
        return gx, ad._unbroadcast(g * xhat, gd.shape), ad._unbroadcast(g, bd.shape)

    return ad._record(ad._scale_shift(xhat, gd, bd), (x, gain, bias), vjp)


def kept_block(h, gain, bias, eps, scan, c, d, wv, bv, wg, bg):
    """`ssm_block`'s arguments, one tape node per operation, in the order a block
    recorded them before the fusion; the tape keeps u, the forcing and the states."""
    kind, *tensors = scan
    u = _layer_norm(h, gain, bias, eps)
    if kind == "diag":
        wb, bb, wa, ba = tensors
        x = kept_gate_scan(u, wa, ba, wb, bb)
    else:
        x = kept_project_scan(u, *tensors, kind)
    return unfused_gated_residual(h, x, c, d, u, wv, bv, wg, bg)
