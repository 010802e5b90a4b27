"""Depth-recurrent stacks: L block applications drawn from m unique blocks.

A stack applies its unique blocks periodically: position j (0-based)
runs block j mod m, so m = 1 is AAAAAA (one block looped), m = L is
ABCDEF (plain depth), and intermediate divisors give ABABAB / ABCABC.
Only periodic patterns are representable, and any stack with m unique
blocks embeds exactly into one with m' unique blocks whenever m | m'
(copy block j mod m into slot j); the embedded model reproduces the
source bit for bit because it runs the same arithmetic on the same
values.  m = 2 and m = 3 do not divide one another, so neither embeds
in the other.

Supervision is a tap period: the forward pass taps the hidden state
after every `period` block applications, and the loss averages the
shared head's loss over the taps with uniform weights and no
stop-gradients.  `final` supervision taps once (period L), `block`
after every full pass through the unique sequence (period m, giving
r = L / m taps h^(1)..h^(r)).  The encoder and head are never shared
across patterns being compared; only block parameters participate in
tying.

Evaluation streams over time (`predict_logits`, `eval_loss`): untaped,
it runs chunks of K time steps, block application j on chunk c at
stage c + j, so the L applications advance through time together and
one scan loop serves all of them.  Its memory follows K, not T, and its
logits and loss are the whole sequence's, bit for bit.  Training and
the finite-difference checks run the whole sequence (`stack_loss`).
"""

from __future__ import annotations

import string
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import scan
from .autodiff import Tape, Tensor, backward
from .blocks import (
    BlockParams,
    EncoderParams,
    HeadParams,
    block_forward,
    block_operands,
    check_batch,
    clone_params,
    count_params,
    encoder_forward,
    head_forward,
    head_from_sum,
    init_block,
    init_encoder,
    init_head,
    named_tensors,
)
from .errors import ConfigError, EmptySequenceError


def pattern_string(depth: int, n_unique: int) -> str:
    """Canonical letter pattern, e.g. (6, 2) -> 'ABABAB'."""
    if n_unique > 26:
        raise ConfigError("patterns with more than 26 unique blocks have no letter form")
    return "".join(string.ascii_uppercase[j % n_unique] for j in range(depth))


def parse_pattern(value: str, supervision: str = "final") -> StackConfig:
    """The stack an 'ABABAB'-style string or an 'L,m' pair names, under `supervision`.

    Only canonical periodic strings are accepted; 'AABBCC' has no
    periodic reading and is rejected.  `StackConfig` checks the shape.
    """
    s = str(value).strip().upper()
    if "," in s:
        try:
            depth, n_unique = (int(v) for v in s.split(","))
        except ValueError:
            raise ConfigError(f"pattern pair must be two integers 'L,m', got {value!r}") from None
    else:
        depth, n_unique = len(s), len(set(s))
        if s != pattern_string(depth, n_unique):
            raise ConfigError(
                f"pattern {value!r} is not periodic; expected e.g. "
                f"{pattern_string(depth, max(1, n_unique))!r}"
            )
    return StackConfig(depth, n_unique, supervision)


SUPERVISIONS = ("final", "block")


@dataclass(frozen=True)
class StackConfig:
    depth: int = 6
    n_unique: int = 6
    supervision: str = "final"

    def __post_init__(self):
        if self.depth < 1 or self.n_unique < 1 or self.depth % self.n_unique != 0:
            raise ConfigError(
                f"pattern needs 1 <= m <= L with m dividing L, got L={self.depth}, m={self.n_unique}"
            )
        if self.supervision not in SUPERVISIONS:
            raise ConfigError(f"unknown supervision {self.supervision!r}; expected {list(SUPERVISIONS)}")

    @property
    def tap_period(self) -> int:
        """Block applications between supervised taps: L for `final`, m for `block`."""
        return self.depth if self.supervision == "final" else self.n_unique


@dataclass
class StackModel:
    config: StackConfig
    encoder: EncoderParams
    blocks: list[BlockParams]
    head: HeadParams

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = [(f"encoder.{n}", t) for n, t in named_tensors(self.encoder)]
        for i, blk in enumerate(self.blocks):
            out.extend((f"blocks.{i}.{n}", t) for n, t in named_tensors(blk))
        out.extend((f"head.{n}", t) for n, t in named_tensors(self.head))
        return out

    def param_tensors(self) -> list[Tensor]:
        return [t for _, t in self.parameters()]

    def n_params(self) -> int:
        return count_params(self.encoder, *self.blocks, self.head)


def build_stack(
    arch: str,
    config: StackConfig,
    width: int,
    n_classes: int,
    hidden: int = 64,
    state: int = 64,
    rng: np.random.Generator | int = 0,
) -> StackModel:
    """Fresh model; the RNG is consumed in a fixed order (encoder, blocks, head)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if width < 1 or n_classes < 2:
        raise ConfigError(f"need width >= 1 and n_classes >= 2, got {width}, {n_classes}")
    encoder = init_encoder(width, hidden, rng)
    blocks = [init_block(arch, hidden, state, rng) for _ in range(config.n_unique)]
    head = init_head(hidden, n_classes, rng)
    return StackModel(config, encoder, blocks, head)


def _check_period(depth: int, period: int) -> None:
    if period < 1 or depth % period != 0:
        raise ConfigError(f"tap period {period} must divide depth {depth}")


def stack_forward(model: StackModel, x, period: int) -> list[Tensor]:
    """Encoder then L periodic block applications; the hidden state after every `period`.

    x is an [N, T, w] batch and each tap a time-major [T, N, H] state.
    Verification passes a source model's period to an embedded (untied)
    model, so both are supervised at the source's repetition boundaries.
    """
    depth = model.config.depth
    _check_period(depth, period)
    h = encoder_forward(model.encoder, x if isinstance(x, Tensor) else Tensor(x))
    taps = []
    for j in range(depth):
        h = block_forward(model.blocks[j % model.config.n_unique], h)
        if (j + 1) % period == 0:
            taps.append(h)
    return taps


def tap_loss(model: StackModel, taps: list[Tensor], labels: np.ndarray) -> Tensor:
    """Uniform average of the shared head's cross entropy over the taps.

    No stop-gradients: every tap backpropagates into every earlier
    block application.
    """
    return _mean_loss((head_forward(model.head, h) for h in taps), labels)


def _mean_loss(logits, labels: np.ndarray) -> Tensor:
    """Uniform average of the cross entropy of each of the `logits`, made in turn.

    One term is returned unscaled: a factor of 1.0 would change no bit and
    only add a tape node.
    """
    total, count = None, 0
    for z in logits:
        term = ad.softmax_cross_entropy(z, labels).mean()
        total = term if total is None else total + term
        count += 1
    return total if count == 1 else total * (1.0 / count)


def stack_loss(model: StackModel, x, labels: np.ndarray) -> Tensor:
    return tap_loss(model, stack_forward(model, x, model.config.tap_period), labels)


def prefix_reuse_loss(model: StackModel, x, labels: np.ndarray) -> Callable[[], Tensor]:
    """`stack_loss(model, x, labels)` as a zero-argument callable, bit for bit,
    that re-runs only the block applications whose inputs have moved.

    The first call runs everything and keeps the encoder output, each
    position's output and the bytes of the encoder's and each unique
    block's tensors (the tensor objects the model holds when this is
    called, like the parameter list of `finite_difference_check`).  A
    later call restarts at the first position whose inputs differ from
    those bytes: position 0 with the encoder if the encoder moved, else
    position k, the first application of the first unique block k that
    moved, from its kept input; if only the head moved, only the head
    runs, on the kept taps.  Reuse rests on byte equality alone, so any
    sequence of changes gives `stack_loss`'s bits.  Kept positions enter
    a later call as constants, so only the first call's tape reaches
    every parameter: finite differences call it first at the unperturbed
    point, under a tape, and then only perturbed.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    depth, period = model.config.depth, model.config.tap_period
    # stage s = 0 is the encoder and s = k + 1 unique block k, whose first
    # application is position k: kept[:s] still holds for the first moved s
    stages = [[t for _, t in named_tensors(p)] for p in (model.encoder, *model.blocks)]
    kept: list[np.ndarray] = []  # encoder output, then each position's output
    seen: list[list[bytes]] = []  # each stage's tensor bytes at the first call

    def loss() -> Tensor:
        s = next((i for i, ts in enumerate(stages) if _tensor_bytes(ts) != seen[i]), depth + 1) if kept else 0
        outs = [Tensor(a) for a in kept[:s]] if s else [encoder_forward(model.encoder, x)]
        for j in range(len(outs) - 1, depth):
            outs.append(block_forward(model.blocks[j % model.config.n_unique], outs[-1]))
        if not kept:
            kept.extend(h.data for h in outs)
            seen.extend(_tensor_bytes(ts) for ts in stages)
        return tap_loss(model, outs[period::period], labels)

    return loss


def _tensor_bytes(tensors: list[Tensor]) -> list[bytes]:
    return [t.data.tobytes() for t in tensors]


# --- streamed evaluation ------------------------------------------------------------

# a streamed evaluation runs chunks of K time rows, K set so that one [K, N, H]
# array holds this many bytes: the fastest of 64 KiB-1 MiB at Worms length
_CHUNK_BYTES = 1 << 18


def _chunk_rows(T: int, N: int, H: int, n: int, depth: int) -> int:
    """K for an evaluation of N series of T steps through `depth` applications
    of blocks with hidden size H and n scan channels.

    All depth applications are in flight at once, each holding about six
    [K, N, H] arrays, so streaming starts at two chunks per application, where
    its peak is half the whole sequence's; below that K = T.  K = T as well
    unless H and n are multiples of 8: OpenBLAS computes a product 1-4 columns
    past a multiple of 8 wide with another kernel below some size, in other
    bits, and a product one column wide (B * H = 1 too) as a matrix-vector
    product.
    """
    if not N or H % 8 or n % 8:
        return T
    rows = max(2, _CHUNK_BYTES // (8 * N * H))
    return T if T < 2 * depth * rows else rows


def _stream_logits(model: StackModel, x, period: int) -> list[Tensor]:
    """The head's logits at every `period`-th block application, without a tape,
    streamed over chunks of K time rows; the bits of `stack_forward`'s taps
    through `head_forward`.

    Application j runs chunk c at stage c + j, and the active applications'
    scans run as one (`scan.scan_joint`), started from the last state each
    application's previous chunk left (`scan.fold_carry`).  Every other step
    acts on each time row on its own, and a product's rows do not depend on
    how many rows it has (a test pins this) unless it has one.  Each tap's
    time sum is built a chunk at a time by `np.add.reduce` starting from the
    running total, NumPy's own order for a sum over axis 0 (K = T when that
    sum's tail holds one element).  K comes from `_chunk_rows`.
    """
    depth, m = model.config.depth, model.config.n_unique
    _check_period(depth, period)
    x = x if isinstance(x, Tensor) else Tensor(x)
    check_batch(model.encoder, x)
    N, T, _ = x.shape
    if not T:
        raise EmptySequenceError("evaluation over zero time steps")
    H = model.encoder.weight.shape[1]
    rows = [ad.BlockRows(H, *block_operands(p)) for p in model.blocks]
    K = _chunk_rows(T, N, H, rows[0].n, depth)
    # a product of one row is a matrix-vector product, in other bits, so at
    # N = 1 a last chunk of one row joins the chunk before it
    starts = list(range(0, T, K))
    if len(starts) > 1 and N * (T - starts[-1]) == 1:
        starts.pop()
    chunks = [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [T])]
    last = len(chunks) - 1
    if last:
        # glibc serves a block above its mmap threshold (128 KiB at start) by
        # mmap, and hands free heap above twice that threshold back to the OS,
        # so every stage would fault its arrays' pages in afresh; freeing an
        # mmapped block raises the threshold to the block's size.  One untouched
        # block of 4 chunk arrays per application, under the stages' peak of
        # about 6, freed at once, keeps the stages on the heap: a Worms-length
        # full_loss at N = 2 took 165k page faults per call without it.
        np.empty(min(4 * depth * K * N * H, 1 << 21))
    h: list = [None] * depth  # each application's input chunk for this stage
    carry: list = [None] * depth  # each application's last state so far
    sums: list = [None] * (depth // period)
    for stage in range(last + depth):
        if stage <= last:
            h[0] = encoder_forward(model.encoder, Tensor(x.data[:, chunks[stage]])).data
        active = range(max(0, stage - last), min(depth, stage + 1))
        elems, held, groups = {}, {}, {}
        for j in active:
            blk = rows[j % m]
            u = blk.layer_norm(h[j])[0]
            elems[j] = blk.build(u)[0]
            if stage > j:
                scan.fold_carry(elems[j], carry[j])
            held[j] = [None, u]
            # only the application on the last chunk can have another length
            groups.setdefault(len(h[j]), []).append(j)
        for group in groups.values():
            for j, states in zip(group, scan.scan_joint([elems.pop(j) for j in group])):
                held[j][0] = states
        del u, states  # `tail` frees each application's u and states
        for j in reversed(active):  # the deepest first: h[j + 1] is read before it is replaced
            if stage - j < last:
                carry[j] = held[j][0][-1].copy()
            out = rows[j % m].tail(held.pop(j), h[j])
            if (j + 1) % period == 0:
                tap = (j + 1) // period - 1
                total = sums[tap]
                sums[tap] = np.add.reduce(out if total is None else np.concatenate([total[None], out]), axis=0)
            h[j] = None
            if j + 1 < depth:
                h[j + 1] = out
    return [head_from_sum(model.head, total, T) for total in sums]


def predict_logits(model: StackModel, x) -> np.ndarray:
    """Final logits, streamed without a tape (`_stream_logits`)."""
    return _stream_logits(model, x, model.config.depth)[0].data


def eval_loss(model: StackModel, x, labels: np.ndarray) -> float:
    """`stack_loss`'s value, streamed without a tape (`_stream_logits`)."""
    return _mean_loss(_stream_logits(model, x, model.config.tap_period), labels).item()


# --- periodic embedding ------------------------------------------------------------


def embed_periodic(model: StackModel, n_unique_target: int) -> StackModel:
    """Re-express the stack with more unique blocks, bit-identically.

    Requires n_unique | n_unique_target | depth.  Slot j of the new
    model holds a copy of source block j mod m; because j mod m' and j
    agree modulo m when m | m', the new model applies identical values
    in an identical order and its outputs match the source bitwise.
    """
    m = model.config.n_unique
    L = model.config.depth
    if n_unique_target % m != 0 or L % n_unique_target != 0:
        raise ConfigError(
            f"cannot embed {m} unique blocks into {n_unique_target}: "
            f"need {m} | {n_unique_target} | {L}"
        )
    cfg = StackConfig(L, n_unique_target, model.config.supervision)
    blocks = [clone_params(model.blocks[j % m]) for j in range(n_unique_target)]
    return StackModel(cfg, clone_params(model.encoder), blocks, clone_params(model.head))


@dataclass
class AggregationReport:
    """Tied-vs-untied gradient comparison for one model and supervision mode."""

    supervision: str
    max_rel_error: float
    loss_tied: float
    loss_untied: float
    all_zero: bool

    @property
    def loss_match(self) -> bool:
        return self.loss_tied == self.loss_untied


def verify_gradient_aggregation(model: StackModel, x: np.ndarray, labels: np.ndarray) -> AggregationReport:
    """Check d(tied loss)/d(theta) equals the sum over untied copies' gradients.

    The untied model is the full embedding (m' = L) of the source,
    supervised at the source's own repetition boundaries so both sides
    compute the same loss.
    """
    m = model.config.n_unique
    L = model.config.depth
    period = model.config.tap_period

    tied_params = model.param_tensors()
    with Tape():
        loss_t = tap_loss(model, stack_forward(model, x, period), labels)
        grads_t = backward(loss_t, tied_params)

    untied = embed_periodic(model, L)
    untied_params = untied.param_tensors()
    with Tape():
        loss_u = tap_loss(untied, stack_forward(untied, x, period), labels)
        grads_u = backward(loss_u, untied_params)

    worst = 0.0
    tied_scale = 0.0
    # block parameters: tied gradient vs sum over the r copies of each slot
    for j, blk in enumerate(model.blocks):
        for name, t in named_tensors(blk):
            tied_g = grads_t[t].data
            total = np.zeros_like(tied_g)
            for i in range(j, L, m):
                total += grads_u[getattr(untied.blocks[i], name)].data
            scale = np.abs(tied_g).max()
            tied_scale = max(tied_scale, scale)
            denom = scale if scale > 0 else 1.0
            worst = max(worst, float(np.abs(total - tied_g).max() / denom))
    # encoder and head are shared once on both sides: gradients must agree directly
    for (_, a), (_, b) in zip(
        list(named_tensors(model.encoder)) + list(named_tensors(model.head)),
        list(named_tensors(untied.encoder)) + list(named_tensors(untied.head)),
    ):
        ga, gb = grads_t[a].data, grads_u[b].data
        denom = max(np.abs(ga).max(), 1.0)
        worst = max(worst, float(np.abs(ga - gb).max() / denom))

    return AggregationReport(
        supervision=model.config.supervision,
        max_rel_error=worst,
        loss_tied=loss_t.item(),
        loss_untied=loss_u.item(),
        all_zero=tied_scale == 0.0,
    )
