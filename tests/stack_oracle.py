"""A whole stack's loss as the unfused composition of autodiff primitives: each
unique block's operands built once, each application `block_oracle.kept_block`'s
nodes, each tap's head a `sum_` over time, `mean_`'s scaling and an `affine`.
The bitwise oracle of `stack.stack_loss`, which runs the encoder and every block
application as one node and keeps neither u, the forcings nor the states."""

import numpy as np
from block_oracle import kept_block

from loopseq import autodiff as ad
from loopseq.autodiff import Tensor
from loopseq.blocks import block_operands, encoder_forward


def kept_stack_loss(model, x, labels, period=None):
    """The loss at tap period `period` (the stack's own by default) and the logits
    of the last tap, with the tape keeping every node's arrays."""
    depth, m = model.config.depth, model.config.n_unique
    period = period or model.config.tap_period
    operands = [block_operands(p) for p in model.blocks]
    h = encoder_forward(model.encoder, Tensor(x))
    taps = []
    for j in range(depth):
        h = kept_block(h, *operands[j % m])
        if (j + 1) % period == 0:
            taps.append(h)
    steps = x.shape[1]
    logits = [ad.affine(ad.mul(ad.sum_(h, axis=0), 1.0 / steps), model.head.weight, model.head.bias) for h in taps]
    terms = [ad.softmax_cross_entropy(z, np.asarray(labels)).mean() for z in logits]
    loss = terms[0]
    for term in terms[1:]:
        loss = loss + term
    return (loss if len(terms) == 1 else loss * (1.0 / len(terms))), logits[-1]
