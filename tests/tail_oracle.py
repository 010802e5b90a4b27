"""The block tail as the unfused composition of autodiff primitives: the bitwise
oracle of `autodiff.BlockRows`' tail, which the stack's training node runs fused."""

from scan_oracle import _matmul

from loopseq import autodiff as ad


def unfused_gated_residual(h, x, c, d, u, wv, bv, wg, bg):
    """h + (r @ wv + bv) * sigmoid(r @ wg + bg) with r = x @ c + d * u, one tape
    node per operation (matmul, mul, add, affine, affine, sigmoid, mul, add), each
    with its own adjoint, in the order the block tail recorded them before the fusion."""
    r = _matmul(x, c) + d * u
    value = ad.affine(r, wv, bv)
    gate = ad.sigmoid(ad.affine(r, wg, bg))
    return h + value * gate
