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

Every pass runs one block schedule over chunks of K time steps
(`_chunk_rows` decides K; K = T, one chunk, below two chunks per
application): block application j runs chunk c at stage c + j, so the L
applications advance through time together and one joint scan serves
all of them.  Training (`stack_loss`) runs it as one tape node over the
encoder and the block stack, which keeps each application's normalised
input and chunk-end states and runs the chunks in reverse for the
backward; its loss is one chunk's bit for bit at any K, its gradients
agree to rounding.  Evaluation (`predict_logits`, `eval_loss`) runs the
same node without a tape, which keeps nothing: its memory follows K, not
T, and its logits and loss are the whole sequence's, bit for bit.
"""

from __future__ import annotations

import string
from collections.abc import Callable, Iterator
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
    detach_params,
    encoder_forward,
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
    """The loss at the stack's own tap period (`_taped_loss`)."""
    return _taped_loss(model, x, labels, model.config.tap_period)


def _taped_loss(model: StackModel, x, labels: np.ndarray, period: int) -> Tensor:
    """Uniform average of the shared head's cross entropy over the hidden state
    after every `period`-th block application, from the [N, T, w] batch x.

    No stop-gradients: every tap backpropagates into every earlier block
    application.  The encoder and the whole block stack run as one node
    (`_tap_logits`).  Verification passes a source model's period to an
    embedded (untied) model, so both are supervised at the source's
    repetition boundaries.
    """
    return _mean_loss(_tap_logits(model, x, period), labels)


def prefix_reuse_loss(model: StackModel, x, labels: np.ndarray) -> Callable[[], Tensor]:
    """`stack_loss(model, x, labels)` as a zero-argument callable, bit for bit,
    that re-runs only the block applications whose inputs have moved.

    The first call returns `stack_loss`'s taped loss, and keeps the encoder
    output, each position's output (`block_forward`, without a tape) and the
    bytes of the encoder's and each unique block's tensors (the tensor
    objects the model holds when this is called, like the parameter list of
    `finite_difference_check`).  A later call restarts at the first position
    whose inputs differ from those bytes: position 0 with the encoder if the
    encoder moved, else position k, the first application of the first
    unique block k that moved, from its kept input; if only the head moved,
    only the head runs, on the kept taps.  Reuse rests on byte equality
    alone, so any sequence of changes gives `stack_loss`'s bits.  A later
    call records nothing, so only the first call's tape reaches any
    parameter: finite differences call it first at the unperturbed point,
    under a tape, and then only perturbed.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    depth, period = model.config.depth, model.config.tap_period
    # stage s = 0 is the encoder and s = k + 1 unique block k, whose first
    # application is position k: kept[:s] still holds for the first moved s
    stages = [[t for _, t in named_tensors(p)] for p in (model.encoder, *model.blocks)]
    kept: list[np.ndarray] = []  # encoder output, then each position's output
    seen: list[list[bytes]] = []  # each stage's tensor bytes at the first call

    def loss() -> Tensor:
        first = not kept
        s = 0 if first else next((i for i, ts in enumerate(stages) if _tensor_bytes(ts) != seen[i]), depth + 1)
        outs = kept[:s] or [encoder_forward(detach_params(model.encoder), x).data]
        for j in range(len(outs) - 1, depth):
            outs.append(block_forward(model.blocks[j % model.config.n_unique], outs[-1]).data)
        if first:
            kept.extend(outs)
            seen.extend(_tensor_bytes(ts) for ts in stages)
            return stack_loss(model, x, labels)
        T = outs[0].shape[0]
        return _mean_loss((head_from_sum(model.head, np.add.reduce(h, axis=0), T) for h in outs[period::period]), labels)

    return loss


def _tensor_bytes(tensors: list[Tensor]) -> list[bytes]:
    return [t.data.tobytes() for t in tensors]


# --- streamed passes -----------------------------------------------------------------

# a streamed pass runs chunks of K time rows, K set so that one [K, N, H] array
# holds this many bytes: the fastest of 64 KiB-1 MiB at Worms length
_CHUNK_BYTES = 1 << 18


def _chunk_rows(T: int, N: int, H: int, n: int, depth: int) -> int:
    """K for a pass of N series of T steps through `depth` applications of blocks
    with hidden size H and n scan channels; the pass streams when K < T.

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


def _chunks(T: int, N: int, K: int) -> list[slice]:
    """The time chunks of K rows a streamed pass runs.  A product of one row is a
    matrix-vector product, in other bits, so at N = 1 a last chunk of one row
    joins the chunk before it."""
    starts = list(range(0, T, K))
    if len(starts) > 1 and N * (T - starts[-1]) == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [T])]


def _chunked(model: StackModel, x) -> tuple[Tensor, list, list[slice]]:
    """x as an [N, T, w] batch for the model's encoder, each unique block's
    `BlockRows` (under a tape, the nodes that make their operands are recorded),
    and the time chunks a pass over x runs, K rows each (`_chunk_rows`); a
    series too short to stream is one chunk."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    check_batch(model.encoder, x)
    N, T, _ = x.shape
    if not T:
        raise EmptySequenceError("a stack pass over zero time steps")
    H = model.encoder.weight.shape[1]
    rows = [ad.BlockRows(H, *block_operands(p)) for p in model.blocks]
    return x, rows, _chunks(T, N, _chunk_rows(T, N, H, rows[0].n, model.config.depth))


def _stage(chunks: list, depth: int, stage: int) -> list[range]:
    """The applications j that run chunk stage - j at `stage` of a streamed pass,
    as ranges of j, one per chunk length, j ascending.  Every chunk but the last
    has one length, so the application on the last chunk, the shallowest of its
    stage, runs apart when its chunk's length differs."""
    last = len(chunks) - 1
    lo, hi = max(0, stage - last), min(depth, stage + 1)
    if stage >= last and hi - lo > 1 and chunks[-1].stop - chunks[-1].start != chunks[0].stop:
        return [range(lo, lo + 1), range(lo + 1, hi)]
    return [range(lo, hi)]


@dataclass
class _Kept:
    """What a taped streamed forward keeps for its backward, per application: the
    normalised input [T, N, H] and 1/std [T, N, 1] its layer norm made, from
    which the backward rebuilds u and the states, and its scan state at the end
    of each chunk but the last.  The backward drops an application's entries
    once its first chunk has run."""

    xhat: list
    rstd: list
    carries: list

    @classmethod
    def empty(cls, depth: int, T: int, N: int, H: int) -> _Kept:
        return cls(
            [np.empty((T, N, H)) for _ in range(depth)],
            [np.empty((T, N, 1)) for _ in range(depth)],
            [[] for _ in range(depth)],
        )


def _stream(model: StackModel, rows: list, x: np.ndarray, period: int, chunks: list, kept=None) -> list:
    """The time sums of the hidden state after every `period`-th block application,
    untaped and streamed over the `chunks` of the [N, T, w] batch x; the bits of
    the whole series' applications (`block_forward`) summed over time.  With
    `kept` (a `_Kept`) it also keeps what `_stream_backward` reads.

    Application j runs chunk c at stage c + j, so the L applications advance
    through time together, and the active applications' scans run as one
    joint scan per chunk length, each started from the last state its
    previous chunk left (`scan.fold_carry`).  Every other step acts on each
    time row on its own, and a product's rows do not depend on how many rows
    it has (a test pins this) unless it has one.  Each tap's time sum is
    built a chunk at a time by `np.add.reduce` starting from the running
    total, NumPy's own order for a sum over axis 0 (K = T when that sum's
    tail holds one element).  `rows` holds each unique block's `BlockRows`.
    """
    depth, m = model.config.depth, model.config.n_unique
    N, H = x.shape[0], model.encoder.weight.shape[1]
    last = len(chunks) - 1
    if last:
        # glibc serves a block above its mmap threshold (128 KiB at start) by
        # mmap, and hands free heap above twice that threshold back to the OS,
        # so every stage would fault its arrays' pages in afresh; freeing an
        # mmapped block raises the threshold to the block's size.  One untouched
        # block of 4 chunk arrays per application, under the stages' peak of
        # about 6, freed at once, keeps the stages on the heap: a Worms-length
        # full_loss at N = 2 took 165k page faults per call without it.
        np.empty(min(4 * depth * chunks[0].stop * N * H, 1 << 21))
    enc = detach_params(model.encoder)  # the encoder records nothing on an active tape
    h: list = [None] * depth  # each application's input chunk for this stage
    carry: list = [None] * depth  # each application's last state so far
    sums: list = [None] * (depth // period)
    for stage in range(last + depth):
        if stage <= last:
            h[0] = encoder_forward(enc, Tensor(x[:, chunks[stage]])).data
        groups = _stage(chunks, depth, stage)
        at = range(groups[0].start, groups[-1].stop)
        us = {}
        for j in at:
            if kept is None:
                us[j] = rows[j % m].layer_norm(h[j])[0]
            else:
                sl = chunks[stage - j]
                us[j], _, rstd = rows[j % m].layer_norm(h[j], kept.xhat[j][sl])
                kept.rstd[j][sl] = rstd
        held = {}
        for group in groups:
            carries = [carry[j] if stage > j else None for j in group]
            joint = ad.build_joint([rows[j % m] for j in group], [us[j] for j in group], carries)[0]
            states = scan.scan_linear(joint.elem)
            for j, part in zip(group, joint.split(states)):
                held[j] = [part, us.pop(j)]
        del joint, states, part  # `tail` frees each application's u and states
        for j in reversed(at):  # the deepest first: h[j + 1] is read before it is replaced
            if stage - j < last:
                carry[j] = held[j][0][-1].copy()
                if kept is not None:
                    kept.carries[j].append(carry[j])
            out = rows[j % m].tail(held.pop(j), h[j])
            if (j + 1) % period == 0:
                tap = (j + 1) // period - 1
                total = sums[tap]
                sums[tap] = np.add.reduce(out if total is None else np.concatenate([total[None], out]), axis=0)
            h[j] = None
            if j + 1 < depth:
                h[j + 1] = out
    return sums


def _stage_adjoint(blocks: list, xhats: list, rstds: list, before: list, g_outs: list, handed: list) -> tuple:
    """The adjoint of block applications over time chunks of one length, side by side.

    Each application brings its block's `BlockRows`, its kept normalised input
    and 1/std over the chunk, its state before the chunk (None for the first),
    its output's cotangent, and the state adjoint its next chunk handed back
    (None for the last).  u and the states are rebuilt as one joint scan; then
    the tails' adjoints run, one joint adjoint scan, and the forcings' and
    layer norms' adjoints.  Returns each application's (layer-norm cotangent
    of its input, operand gradients) and the state adjoint it hands its chunk
    before (None for the first).

    Each time-sized array is freed once read, so a chunk of the whole series
    peaks no higher than one block application's adjoint on its own: the
    forcing once the states are rebuilt, u in the tail's adjoint (the
    forcing's adjoint rebuilds it once more rather than hold it across the
    scan's), and the scan's arrays in the forcing's adjoint.  One part's state
    cotangent is made by its tail's adjoint; several parts' are written into
    one joint array, which their joint adjoint scan reads.
    """
    us = [blk.rebuild_u(xhat) for blk, xhat in zip(blocks, xhats)]
    joint, extras = ad.build_joint(blocks, us, before)
    states = scan.scan_linear(joint.elem)
    joint.drop_forcing()
    one = len(blocks) == 1
    g_x = None if one else np.empty_like(states)
    g_us, tails = [], []
    for i, (blk, x, col) in enumerate(zip(blocks, joint.split(states), [None] if one else joint.columns(g_x))):
        held = [x, us[i]]
        us[i] = None  # the tail's adjoint frees u once read
        g_xi, g_u, tail = blk.tail_adjoint(g_outs[i], held, col)
        g_us.append(g_u)
        tails.append(tail)
    if one:
        g_x = g_xi.reshape(states.shape)
    for row, lam in zip(joint.split(g_x), handed):
        if lam is not None:
            row[-1] += lam
    da, db = scan.scan_backward(joint.elem, states, g_x)
    del states, g_x, g_xi, x, col, row  # the views too, so both are freed
    hands = [None] * len(blocks)
    if any(b is not None for b in before):  # the state before each chunk: zero before the first
        prev = np.zeros_like(db[:1])
        for part, b in zip(joint.split(prev), before):
            if b is not None:
                part[0] = b
        scan.add_prev_product(joint.elem, prev[0], db, da)
        lams = joint.split(scan.carry_back(joint.elem, db)[None])
        hands = [lam[0].copy() if b is not None else None for b, lam in zip(before, lams)]
    das = joint.split(da, 0 if blocks[0].factor is not None else None)
    helds = [[part.a, extra, da_j, db_j] for part, extra, da_j, db_j in zip(joint.parts, extras, das, joint.split(db))]
    del joint, extras, das, da, db  # each forcing's adjoint takes its arrays over, to free each once read
    out = []
    for blk, held, g_u, tail, xhat, rstd in zip(blocks, helds, g_us, tails, xhats, rstds):
        u_pieces, g_scan = blk.adjoint(blk.rebuild_u(xhat), held)
        for piece in u_pieces:
            g_u += piece
        del u_pieces, piece
        gh, g_gain, g_bias = blk.norm_adjoint(g_u, xhat, rstd)
        out.append((gh, (*tail, *g_scan, g_gain, g_bias)))
    return out, hands


def _added(sums, terms):
    """`terms` added to the running `sums` term by term; `terms` when there are none yet."""
    return terms if sums is None else [a + b for a, b in zip(sums, terms)]


def _stream_backward(
    config: StackConfig, rows: list, x: np.ndarray, period: int, chunks: list, kept: _Kept, g: np.ndarray
) -> tuple:
    """The cotangents of `_chunked_taps`' parents from its output's cotangent g
    [taps, N, H]: `_stream`'s stages in reverse, each stage's applications of
    one chunk length as one `_stage_adjoint`, the deepest first.

    The cotangent of each hidden state adds up its tap's, the next
    application's residual's, then its layer norm's.  Each application's
    operand gradients are added into parameter-sized sums in reverse
    application order.  A cotangent is dropped once read, and what an
    application kept once its first chunk has run.
    """
    depth, m = config.depth, config.n_unique
    x = x.transpose(1, 0, 2)  # time-major, as the encoder reads it
    grads: list = [None] * m  # each unique block's operand gradient sums
    enc = None
    down: list = [None] * depth  # the cotangent of each application's output chunk, from the one above
    back: list = [None] * depth  # the state adjoint each application's chunk after handed back

    for stage in reversed(range(len(chunks) + depth - 1)):
        groups = _stage(chunks, depth, stage)
        lo, hi = groups[0].start, groups[-1].stop
        # each output's cotangent, taken before any application of the stage hands one down
        g_outs = down[lo:hi]
        down[lo:hi] = [None] * (hi - lo)
        if hi == depth:  # the last application's output is the last tap, every row of it
            g_outs[-1] = g[-1:]
        for group in reversed(groups):
            group = group[::-1]
            sls = [chunks[stage - j] for j in group]
            out, hands = _stage_adjoint(
                [rows[j % m] for j in group],
                [kept.xhat[j][sl] for j, sl in zip(group, sls)],
                [kept.rstd[j][sl] for j, sl in zip(group, sls)],
                [kept.carries[j][stage - j - 1] if stage > j else None for j in group],
                [g_outs[j - lo] for j in group],
                [back[j] for j in group],
            )
            for j, hand, (cot, terms) in zip(group, hands, out):
                back[j] = hand
                g_out, g_outs[j - lo] = g_outs[j - lo], None
                if j and j % period == 0:  # the input is a tap
                    g_out = g_out + g[j // period - 1]
                cot += g_out
                if j:
                    down[j - 1] = cot
                else:
                    rows_x = x[sls[-1]].reshape(-1, x.shape[-1])
                    enc = _added(enc, (rows_x.T @ cot.reshape(-1, cot.shape[-1]), cot.sum(axis=(0, 1))))
                grads[j % m] = _added(grads[j % m], terms)
                if stage == j:  # its first chunk: nothing reads what it kept again
                    kept.xhat[j] = kept.rstd[j] = None
            del out, cot, g_out
    return (*enc, *(t for sums in grads for t in sums))


def _chunked_taps(model: StackModel, rows: list, x: Tensor, period: int, chunks: list) -> list[Tensor]:
    """The time sums of the hidden state after every `period`-th block application,
    streamed over `chunks` as one tape node over the encoder and the whole block
    stack, whose unique blocks' `BlockRows` are `rows`; `_stream`'s bits.

    Its forward is `_stream`, which keeps each application's normalised input,
    1/std and chunk-end states while a tape is active; its adjoint is
    `_stream_backward`, which rebuilds u and the states a chunk at a time with
    the forward's own operations (selective recomputation, Chen et al.,
    arXiv:1604.06174), with array operations only, so a rebuild records
    nothing on the tape that is active while `backward` runs.  Everything else
    it holds is chunk-sized; without a tape it keeps and records nothing.  The
    parameter-side nodes of each unique block's operands are recorded once,
    before it, and the head after it.
    """
    depth = model.config.depth
    N, T, _ = x.shape
    H = model.encoder.weight.shape[1]
    kept = _Kept.empty(depth, T, N, H) if ad._ACTIVE else None
    sums = _stream(model, rows, x.data, period, chunks, kept)
    config, xd = model.config, x.data

    def vjp(g):
        return _stream_backward(config, rows, xd, period, chunks, kept, g)

    parents = (model.encoder.weight, model.encoder.bias, *(t for blk in rows for t in blk.operands))
    return ad.unstack(ad._record(np.stack(sums), parents, vjp))


def _tap_logits(model: StackModel, x, period: int) -> Iterator[Tensor]:
    """The head's logits at every `period`-th block application of the [N, T, w]
    batch x, each made as it is read: the heads over the time sums of
    `_chunked_taps`, over the chunks `_chunked` gives."""
    _check_period(model.config.depth, period)
    x, rows, chunks = _chunked(model, x)
    T = x.shape[1]
    return (head_from_sum(model.head, t, T) for t in _chunked_taps(model, rows, x, period, chunks))


def predict_logits(model: StackModel, x) -> np.ndarray:
    """Final logits, streamed without a tape (`_tap_logits`)."""
    return next(_tap_logits(model, x, model.config.depth)).data


def eval_loss(model: StackModel, x, labels: np.ndarray) -> float:
    """`stack_loss`'s value, streamed without a tape (`_tap_logits`)."""
    return _mean_loss(_tap_logits(model, x, model.config.tap_period), labels).item()


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
        loss_t = _taped_loss(model, x, labels, period)
        grads_t = backward(loss_t, tied_params)

    untied = embed_periodic(model, L)
    untied_params = untied.param_tensors()
    with Tape():
        loss_u = _taped_loss(untied, x, labels, period)
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
