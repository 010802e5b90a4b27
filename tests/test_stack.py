"""Depth-stack tests: patterns, supervision, containment, gradient aggregation."""

import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from stack_oracle import kept_stack_loss

from loopseq import autodiff as ad
from loopseq import scan, stack
from loopseq.autodiff import Tape, backward, Tensor
from loopseq.blocks import ARCHS, block_forward, encoder_forward, head_from_sum
from loopseq.errors import ConfigError, EmptySequenceError, ShapeError
from loopseq.stack import (
    AggregationReport,
    StackConfig,
    StackModel,
    build_stack,
    embed_periodic,
    eval_loss,
    parse_pattern,
    pattern_string,
    predict_logits,
    prefix_reuse_loss,
    stack_loss,
    verify_gradient_aggregation,
)


def _tiny(arch="LRU", m=2, supervision="final", seed=0, width=3, classes=3):
    cfg = StackConfig(depth=6, n_unique=m, supervision=supervision)
    return build_stack(arch, cfg, width=width, n_classes=classes, hidden=6, state=4, rng=seed)


def _with_supervision(model, supervision):
    """The same parameters under another supervision mode."""
    cfg = StackConfig(model.config.depth, model.config.n_unique, supervision)
    return StackModel(cfg, model.encoder, model.blocks, model.head)


def _whole_taps(model, x, period):
    """The hidden state [T, N, H] after every `period`-th block application, each
    application run over the whole series by `block_forward`, without a tape."""
    h = encoder_forward(model.encoder, Tensor(x)).data
    taps = []
    for j in range(model.config.depth):
        h = block_forward(model.blocks[j % model.config.n_unique], h).data
        if (j + 1) % period == 0:
            taps.append(h)
    return taps


def _head(model, h):
    """The head's logits from hidden states h [T, N, H], mean-pooled over time."""
    return head_from_sum(model.head, h.sum(axis=0), h.shape[0])


def _taps_loss(model, taps, y):
    """The mean over the taps of the head's cross entropy, written out: one term
    unscaled, else the 1/r-scaled sum in tap order."""
    terms = [ad.softmax_cross_entropy(_head(model, h), y).mean() for h in taps]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total if len(terms) == 1 else total * (1.0 / len(terms))


def _node_taps(model, x, period):
    """The time sums [N, H] of the hidden state after every `period`-th application,
    as the training step's node makes them."""
    x, rows, chunks = stack._chunked(model, x)
    return [t.data for t in stack._chunked_taps(model, rows, x, period, chunks)]


# --- patterns ---------------------------------------------------------------------


def test_pattern_strings():
    assert pattern_string(6, 1) == "AAAAAA"
    assert pattern_string(6, 2) == "ABABAB"
    assert pattern_string(6, 3) == "ABCABC"
    assert pattern_string(6, 6) == "ABCDEF"


@pytest.mark.parametrize(
    "text,expected",
    [("AAAAAA", (6, 1)), ("ABABAB", (6, 2)), ("ABCABC", (6, 3)), ("ABCDEF", (6, 6)), ("6,2", (6, 2))],
)
def test_parse_pattern_accepts_canonical(text, expected):
    assert parse_pattern(text) == StackConfig(*expected)


# tuples are not a pattern form: they are refused like any malformed string
@pytest.mark.parametrize("bad", ["AABBCC", "ABBA", "BAC", "6,4", (6, 4), (6, 0), "6,x", (6,)])
def test_parse_pattern_rejects_non_periodic(bad):
    with pytest.raises(ConfigError):
        parse_pattern(bad)


def test_config_rejects_non_divisor():
    with pytest.raises(ConfigError):
        StackConfig(depth=6, n_unique=4)
    with pytest.raises(ConfigError):
        StackConfig(depth=6, n_unique=2, supervision="none")


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: parse_pattern("6,4"), "pattern needs 1 <= m <= L with m dividing L, got L=6, m=4"),
        (lambda: parse_pattern("0,1"), "pattern needs 1 <= m <= L with m dividing L, got L=0, m=1"),
        (lambda: parse_pattern(""), "pattern needs 1 <= m <= L with m dividing L, got L=0, m=0"),
        (lambda: StackConfig(depth=6, n_unique=4), "pattern needs 1 <= m <= L with m dividing L, got L=6, m=4"),
        (lambda: StackConfig(depth=-2, n_unique=1), "pattern needs 1 <= m <= L with m dividing L, got L=-2, m=1"),
        (lambda: parse_pattern("ABAB", "x"), "unknown supervision 'x'; expected ['final', 'block']"),
        (lambda: StackConfig(6, 2, "none"), "unknown supervision 'none'; expected ['final', 'block']"),
    ],
)
def test_stack_config_alone_checks_the_shape(make, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make()


def test_parse_pattern_carries_the_supervision():
    assert parse_pattern("ABAB", "block") == StackConfig(depth=4, n_unique=2, supervision="block")


def test_config_derived_fields():
    cfg = StackConfig(depth=6, n_unique=3, supervision="block")
    assert cfg.tap_period == 3
    assert StackConfig(depth=6, n_unique=3, supervision="final").tap_period == 6


# --- forward composition -----------------------------------------------------------


def test_forward_matches_manual_unrolled_composition():
    # the training node's time sum and the streamed logits, against the encoder
    # and six block applications composed by hand
    rng = np.random.default_rng(1)
    model = _tiny("S5", m=2)
    x = rng.standard_normal((2, 7, 3))
    h = encoder_forward(model.encoder, Tensor(x))
    for j in range(6):
        h = block_forward(model.blocks[j % 2], h)
    (total,) = _node_taps(model, x, 6)
    np.testing.assert_array_equal(total, h.data.sum(axis=0))
    np.testing.assert_array_equal(predict_logits(model, x), _head(model, h.data).data)


def test_trace_has_one_rep_per_pass():
    x = np.random.default_rng(2).standard_normal((1, 5, 3))
    for m, r in [(1, 6), (2, 3), (3, 2), (6, 1)]:
        model = _tiny(m=m, supervision="block")
        for period, taps in ((model.config.tap_period, r), (6, 1)):
            assert len(_node_taps(model, x, period)) == taps
            assert len(list(stack._tap_logits(model, x, period))) == taps


def test_tap_period_controls_taps():
    model = _tiny(m=1)
    x = np.random.default_rng(3).standard_normal((1, 4, 3))
    assert len(_node_taps(model, x, 2)) == 3
    assert len(list(stack._tap_logits(model, x, 2))) == 3
    with pytest.raises(ConfigError):
        stack._taped_loss(model, x, np.array([0]), 4)
    with pytest.raises(ConfigError):
        stack._tap_logits(model, x, 4)


@pytest.mark.parametrize("shape", [(5, 3), (2, 5, 4), (1, 2, 5, 3)], ids=["unbatched", "wrong-width", "4-d"])
def test_input_not_n_t_w_is_refused_before_the_encoder(shape, monkeypatch):
    # once, an unbatched series ran every block and failed in the head, and a
    # wrong width was reported in the shape of the encoder's time-major view
    model = _tiny()  # w = 3
    x = np.zeros(shape)

    def no_product(*args):
        raise AssertionError("the encoder ran")

    monkeypatch.setattr(ad, "affine", no_product)
    for run in (
        lambda: predict_logits(model, x),
        lambda: stack_loss(model, x, np.zeros(shape[0], dtype=int)),
        lambda: prefix_reuse_loss(model, x, np.zeros(shape[0], dtype=int))(),
    ):
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            run()


def test_residual_chain_with_zero_mixers_is_identity_plus_encoder():
    model = _tiny("LrcSSM", m=2)
    for blk in model.blocks:
        blk.glu_value_w.data[:] = 0.0
        blk.glu_value_b.data[:] = 0.0
    x = np.random.default_rng(4).standard_normal((2, 5, 3))
    (final,) = _whole_taps(model, x, 6)
    enc = encoder_forward(model.encoder, Tensor(x)).data
    np.testing.assert_array_equal(final, enc)
    np.testing.assert_array_equal(predict_logits(model, x), _head(model, enc).data)


# --- losses -------------------------------------------------------------------------


def test_zero_head_gives_uniform_loss():
    model = _tiny(classes=5)
    model.head.weight.data[:] = 0.0
    model.head.bias.data[:] = 0.0
    x = np.random.default_rng(5).standard_normal((4, 6, 3))
    y = np.array([0, 1, 2, 3])
    for supervision in ("final", "block"):  # tap periods 6 and 2
        assert abs(stack_loss(_with_supervision(model, supervision), x, y).item() - np.log(5.0)) < 1e-12


def test_block_loss_is_mean_of_per_tap_losses():
    model = _tiny(m=2, supervision="block")
    x = np.random.default_rng(6).standard_normal((3, 5, 3))
    y = np.array([0, 1, 2])
    logits = list(stack._tap_logits(model, x, model.config.tap_period))
    assert len(logits) == 3
    per_tap = [ad.softmax_cross_entropy(z, y).mean().item() for z in logits]
    got = stack_loss(model, x, y).item()
    assert abs(got - np.mean(per_tap)) < 1e-12


def test_single_repeat_block_equals_final():
    final = _tiny(m=6)
    block = _with_supervision(final, "block")
    x = np.random.default_rng(7).standard_normal((2, 5, 3))
    y = np.array([0, 1])
    assert stack_loss(block, x, y).item() == stack_loss(final, x, y).item()


def test_identical_taps_give_identical_head_gradients():
    # blocks reduced to identity -> every tap equals the encoder output
    model = _tiny(m=2, supervision="block")
    for blk in model.blocks:
        blk.glu_value_w.data[:] = 0.0
        blk.glu_value_b.data[:] = 0.0
    x = np.random.default_rng(8).standard_normal((3, 4, 3))
    y = np.array([0, 1, 2])
    head_params = [model.head.weight, model.head.bias]
    with Tape():
        g_block = backward(stack_loss(model, x, y), head_params)
        g_block = {k: v.data.copy() for k, v in g_block.items()}
    with Tape():
        g_final = backward(stack_loss(_with_supervision(model, "final"), x, y), head_params)
    for p in head_params:
        a, b = g_block[p], g_final[p].data
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-30)


def test_shared_lru_stack_records_24_tape_nodes():
    # the shared block's operands 17 + the encoder and block stack 1 + head and loss 6
    model = _tiny(m=1)
    x = np.random.default_rng(9).standard_normal((2, 5, 3))
    with Tape() as tape:
        stack_loss(model, x, np.array([0, 1]))
    assert len(tape.nodes) == 24


# --- containment (periodic embedding) ------------------------------------------------


@pytest.mark.parametrize("arch", ARCHS)
def test_embedding_chain_reproduces_logits_bitwise(arch):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 6, 3))
    src = _tiny(arch, m=1)
    base = predict_logits(src, x)
    two = embed_periodic(src, 2)
    six_via_two = embed_periodic(two, 6)
    six_direct = embed_periodic(src, 6)
    for mdl in (two, six_via_two, six_direct):
        np.testing.assert_array_equal(predict_logits(mdl, x), base)


def test_embedding_chain_via_three():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 5, 3))
    src = _tiny("LinOSS", m=3)
    base = predict_logits(src, x)
    np.testing.assert_array_equal(predict_logits(embed_periodic(src, 6), x), base)


def test_chain_and_direct_embeddings_are_identical_models():
    src = _tiny("LRU", m=1)
    via = embed_periodic(embed_periodic(src, 2), 6)
    direct = embed_periodic(src, 6)
    for (na, a), (nb, b) in zip(via.parameters(), direct.parameters()):
        assert na == nb
        np.testing.assert_array_equal(a.data, b.data)


def test_incomparable_patterns_rejected_both_ways():
    with pytest.raises(ConfigError):
        embed_periodic(_tiny(m=2), 3)
    with pytest.raises(ConfigError):
        embed_periodic(_tiny(m=3), 2)


def test_embedding_weight_perturbation_breaks_equality():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 5, 3))
    src = _tiny("S5", m=1)
    emb = embed_periodic(src, 6)
    emb.blocks[4].glu_gate_w.data[0, 0] += 1e-9
    assert not np.array_equal(predict_logits(emb, x), predict_logits(src, x))


# --- gradient aggregation -------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("supervision", ["final", "block"])
def test_tied_gradient_equals_sum_of_copies(arch, supervision):
    rng = np.random.default_rng(12)
    model = _tiny(arch, m=2, supervision=supervision)
    x = rng.standard_normal((4, 6, 3))
    y = np.array([0, 1, 2, 0])
    report = verify_gradient_aggregation(model, x, y)
    assert report.loss_match
    assert not report.all_zero
    assert report.max_rel_error < 1e-10


def test_aggregation_flags_all_zero_when_loss_ignores_blocks():
    model = _tiny("LRU", m=1)
    # zero the head: the loss is flat, every gradient vanishes
    model.head.weight.data[:] = 0.0
    x = np.random.default_rng(13).standard_normal((2, 4, 3))
    y = np.array([0, 0])
    report = verify_gradient_aggregation(model, x, y)
    assert report.all_zero
    assert report.max_rel_error == 0.0


# --- prefix reuse -----------------------------------------------------------------------


def _count_blocks(monkeypatch) -> list:
    """Block applications made through the name `stack.block_forward`."""
    calls = []
    orig = stack.block_forward
    monkeypatch.setattr(stack, "block_forward", lambda p, h: calls.append(1) or orig(p, h))
    return calls


def _same_bits(a, b) -> bool:
    return a.data.tobytes() == b.data.tobytes()


def _restart_position(name: str) -> int:
    """Where moving the named tensor restarts a stack of depth 6: the encoder
    at position 0, unique block k at its first application k, the head at none."""
    stage, _, rest = name.partition(".")
    return int(rest.split(".")[0]) if stage == "blocks" else {"encoder": 0, "head": 6}[stage]


@pytest.mark.parametrize("m", [1, 2, 3, 6])
@pytest.mark.parametrize("supervision", ["final", "block"])
@pytest.mark.parametrize("arch", ARCHS)
def test_prefix_reuse_loss_is_stack_loss_through_a_sweep(arch, supervision, m, monkeypatch):
    model = build_stack(arch, StackConfig(6, m, supervision), width=3, n_classes=3, hidden=4, state=3, rng=m)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((2, 5, 3))
    y = rng.integers(0, 3, 2)
    loss = prefix_reuse_loss(model, x, y)
    calls = _count_blocks(monkeypatch)
    with Tape():  # the first call is the unperturbed, taped one, and runs every position
        first = loss()
        assert backward(first, model.param_tensors())
    assert len(calls) == 6 and _same_bits(first, stack_loss(model, x, y))
    for name, t in model.parameters():
        orig = t.data.copy()
        t.data += 1e-3 * rng.standard_normal(t.shape)
        del calls[:]
        got = loss()
        assert len(calls) == 6 - _restart_position(name), name
        assert _same_bits(got, stack_loss(model, x, y)), name
        t.data[...] = orig
    del calls[:]
    assert _same_bits(loss(), first) and not calls
    # several stages moved at once, in any order
    params = model.param_tensors()
    for _ in range(4):
        picked = rng.choice(len(params), size=3, replace=False)
        saved = [params[i].data.copy() for i in picked]
        for i in picked:
            params[i].data += 1e-3 * rng.standard_normal(params[i].shape)
        assert _same_bits(loss(), stack_loss(model, x, y))
        for i, orig in zip(picked, saved):
            params[i].data[...] = orig


# --- the node against the whole-stack oracle -------------------------------------------------

# per unique block, the nodes that make its operands from its parameters
_OPERAND_NODES = {"LRU": 17, "S5": 33, "LinOSS": 18, "LrcSSM": 0}
# per application, the nodes `block_oracle.kept_block` records
_KEPT_NODES = {"LRU": 14, "S5": 14, "LinOSS": 14, "LrcSSM": 16}


def _head_nodes(config):
    """Each tap's head and loss, then their mean."""
    taps = config.depth // config.tap_period
    return 6 * taps + (taps if taps > 1 else 0)


def _bits(loss, logits, grads, params):
    return [loss.data.tobytes(), logits.tobytes()] + [grads[p].data.tobytes() for p in params]


def _node_bits(model, x, y):
    """`stack_loss`'s loss, `predict_logits` and every gradient, as bytes; its tape
    holds the operand nodes, the one node of the encoder and block stack, and the heads."""
    params, config = model.param_tensors(), model.config
    with Tape() as tape:
        loss = stack_loss(model, x, y)
        nodes = len(tape)
        grads = backward(loss, params)
    assert nodes == config.n_unique * _OPERAND_NODES[model.blocks[0].arch] + 1 + _head_nodes(config)
    return _bits(loss, predict_logits(model, x), grads, params)


def _oracle_bits(model, x, y):
    """The same from `stack_oracle.kept_stack_loss`, its logits the last tap's; its
    tape holds the encoder, the operand nodes, every application's unfused nodes
    and the heads, so the oracle route ran."""
    params, config = model.param_tensors(), model.config
    arch = model.blocks[0].arch
    with Tape() as tape:
        loss, logits = kept_stack_loss(model, x, y)
        nodes = len(tape)
        grads = backward(loss, params)
    want = 1 + config.n_unique * _OPERAND_NODES[arch] + config.depth * _KEPT_NODES[arch] + _head_nodes(config)
    assert nodes == want
    return _bits(loss, logits.data, grads, params)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("supervision", ["final", "block"])
@pytest.mark.parametrize("arch", ARCHS)
def test_fused_tail_gives_the_unfused_bits(arch, supervision, m):
    """The loss, every gradient and the logits equal, byte for byte, those of the
    whole-stack oracle, which records each block application as `block_oracle`'s
    unfused nodes, its tail as `tail_oracle`'s eight."""
    for B, T, H in ((4, 50, 8), (1, 300, 16), (3, 16, 4)):
        model = build_stack(arch, StackConfig(6, m, supervision), width=3, n_classes=4, hidden=H, state=H, rng=7)
        rng = np.random.default_rng(B * T)
        x = rng.standard_normal((B, T, 3))
        y = rng.integers(0, 4, B)
        assert _node_bits(model, x, y) == _oracle_bits(model, x, y), f"B, T, H = {B}, {T}, {H}"


# the order in which backward's sweep first reaches each parameter of a one-block stack
_TAIL = ["feedthrough", "glu_value_w", "glu_value_b", "glu_gate_w", "glu_gate_b"]
_NORM = ["norm_gain", "norm_bias"]
_GRAD_ORDER = {
    "LRU": _TAIL + _NORM + ["c_re", "c_im", "b_im", "b_re", "theta", "nu_log"],
    "S5": _TAIL + _NORM + ["c_re", "c_im", "b_re", "b_im", "im", "log_dt", "re_log"],
    "LinOSS": _TAIL + _NORM + ["c_w", "b_w", "dt_hat", "a_hat"],
    "LrcSSM": ["c_w"] + _TAIL + ["drive_w", "drive_b", "gate_w", "gate_b"] + _NORM,
}


@pytest.mark.parametrize("arch", ARCHS)
def test_gradient_map_keeps_the_sweep_order(arch):
    """`backward` lists the gradients in the order its sweep first reaches each
    parameter: the head, the node's parents in their order (the encoder, then the
    block's own parameters), then the readout and factor weights behind the
    block's parameter-side nodes."""
    model = build_stack(arch, StackConfig(2, 1, "final"), width=3, n_classes=3, hidden=4, state=4, rng=0)
    x = np.random.default_rng(0).standard_normal((2, 5, 3))
    with Tape():
        grads = backward(stack_loss(model, x, np.array([0, 1])), model.param_tensors())
    names = {id(p): name for name, p in model.parameters()}
    block = ["blocks.0." + name for name in _GRAD_ORDER[arch]]
    assert [names[id(p)] for p in grads] == ["head.weight", "head.bias", "encoder.weight", "encoder.bias", *block]


# --- arrays the tape rebuilds or aliases instead of keeping ---------------------------------

def _copying_sum(x, axis=None, keepdims=False):
    """`ad.sum_` whose adjoint returns a fresh copy of the broadcast cotangent."""
    x = ad._lift(x)
    xs = x.data.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, xs).copy(),)

    return ad._record(x.data.sum(axis=axis, keepdims=keepdims), (x,), vjp)


@pytest.mark.parametrize("pattern", ["AAAAAA", "ABABAB", "ABCDEF"])
@pytest.mark.parametrize("supervision", ["final", "block"])
@pytest.mark.parametrize("arch", ARCHS)
def test_rebuilt_and_aliased_arrays_give_the_kept_bits(arch, supervision, pattern, monkeypatch):
    """The loss, every gradient and the logits equal, byte for byte, those of the
    whole-stack oracle on a tape that keeps each layer-norm output
    (`block_oracle`), copies each `sum_` cotangent and sums a shared factor's da
    in one chunk; here that da takes 256-byte chunks of one or two rows."""
    runs = []
    for kept in (False, True):
        if kept:
            monkeypatch.setattr(ad, "sum_", _copying_sum)
        monkeypatch.setattr(scan, "_DA_CHUNK_BYTES", 1 << 62 if kept else 256)
        for B in (1, 3):
            model = build_stack(arch, parse_pattern(pattern, supervision), width=3, n_classes=4, hidden=8, state=8, rng=5)
            rng = np.random.default_rng(B)
            for p in model.param_tensors():  # norm gains and biases start at exactly 1 and 0
                p.data += 0.1 * rng.standard_normal(p.shape)
            x = rng.standard_normal((B, 60, 3))
            y = rng.integers(0, 4, B)
            runs.append((_oracle_bits if kept else _node_bits)(model, x, y))
    assert runs[:2] == runs[2:]


# --- scan states the backward rebuilds instead of keeping ----------------------------------


def _jittered(arch, config, B, T, H, P=None):
    """A stack of hidden size H and state size P (H by default) whose every
    parameter is moved off its init (norm gains start at exactly 1 and biases
    at 0), with an input batch and labels."""
    model = build_stack(arch, config, width=3, n_classes=4, hidden=H, state=P or H, rng=5)
    rng = np.random.default_rng(B * T)
    for p in model.param_tensors():
        p.data += 0.1 * rng.standard_normal(p.shape)
    return model, rng.standard_normal((B, T, 3)), rng.integers(0, 4, B)


@pytest.mark.parametrize("pattern", ["AAAAAA", "ABABAB", "ABCDEF"])
@pytest.mark.parametrize("supervision", ["final", "block"])
@pytest.mark.parametrize("arch", ARCHS)
def test_rebuilt_states_give_the_kept_bits(arch, supervision, pattern):
    """The loss, every gradient and the logits equal, byte for byte, those of the
    whole-stack oracle, whose tape keeps each application's forcing, states and
    (LrcSSM) gate, tanh and 1 - gate."""
    config = parse_pattern(pattern, supervision)
    for B in (1, 3):
        model, x, y = _jittered(arch, config, B, 60, 8)
        assert _node_bits(model, x, y) == _oracle_bits(model, x, y), f"B = {B}"


@pytest.mark.parametrize("arch", ["LRU", "LinOSS"])
def test_rebuilt_states_give_the_kept_bits_when_da_spans_chunks(arch):
    """As above at a length where each shared factor's da is summed over several
    chunks: 8997 rows of products, 4096 to a chunk for "cdiag" and 2048 for "mat2"."""
    B, T, H = 3, 3000, 16
    assert (T - 1) * B * 8 * 2 * H > 2 * scan._DA_CHUNK_BYTES
    model, x, y = _jittered(arch, parse_pattern("ABABAB", "block"), B, T, H)
    assert _node_bits(model, x, y) == _oracle_bits(model, x, y)


@pytest.mark.parametrize("arch", ARCHS)
def test_backward_records_nothing_and_frees_the_rebuilt_states(arch, monkeypatch):
    """`train_one` runs backward inside the step's tape: the rebuilds record no node
    on it, each block application rebuilds its states once, and none outlives the
    sweep."""
    model = _tiny(arch, m=2)
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((2, 5, 3)), np.array([0, 2])
    rebuilt = []
    scan_linear = scan.scan_linear

    def probe(elem):
        states = scan_linear(elem)
        rebuilt.append(weakref.ref(states))
        return states

    with Tape() as tape:
        loss = stack_loss(model, x, y)
        recorded = len(tape.nodes)
        monkeypatch.setattr(scan, "scan_linear", probe)
        backward(loss, model.param_tensors())
        assert len(tape.nodes) == recorded
    assert len(rebuilt) == 6
    assert all(ref() is None for ref in rebuilt)


# --- streamed evaluation -----------------------------------------------------------------

# `_dot` on row chunks of one matrix, against the rows of the whole product, for
# products as wide as a multiple of 8: the Worms-shaped encoder, forcing, readout
# and GLU products and smaller ones; every chunk has two rows or more, the last
# one too
_DOT_ROWS = """
import numpy as np
from loopseq.autodiff import _dot

rng = np.random.default_rng(0)
moved = []
for k, n in ((6, 64), (64, 128), (128, 64), (64, 64), (16, 8), (17, 24), (1, 16), (256, 32)):
    x = rng.standard_normal((2000, k))
    w = rng.standard_normal((k, n))
    whole = _dot(x, w)
    for rows in (2, 3, 7, 64, 512):
        for lo in range(0, 1999, rows):
            if not np.array_equal(_dot(x[lo : lo + rows], w), whole[lo : lo + rows]):
                moved.append((k, n, rows, lo))
print(moved)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_dot_rows_do_not_depend_on_the_row_count(threads):
    """Each row of a product as wide as a multiple of 8 is the same bits however
    many rows it is computed with, at one and at two BLAS threads; a streamed
    pass at such widths gives one chunk's bits because of this. A product of one
    row, which a streamed pass never makes, or 1-4 columns past a multiple of 8
    wide, which it makes at other widths, can take other bits."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": threads,
    }
    run = subprocess.run([sys.executable, "-c", _DOT_ROWS], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def _streamed_matches_whole(model, x, y, monkeypatch, chunks):
    """predict_logits and eval_loss with each K in `chunks` against the whole
    sequence's composition: logits equal, the loss equal under float.hex."""
    taps = _whole_taps(model, x, model.config.tap_period)
    logits = _head(model, taps[-1]).data
    loss = _taps_loss(model, taps, y).item().hex()
    for K in chunks:
        monkeypatch.setattr(stack, "_chunk_rows", lambda *shape: K)
        assert np.array_equal(predict_logits(model, x), logits), f"K = {K}"
        assert eval_loss(model, x, y).hex() == loss, f"K = {K}"


@pytest.mark.parametrize("pattern", ["AAAAAA", "ABABAB", "ABCDEF"])
@pytest.mark.parametrize("supervision", ["final", "block"])
@pytest.mark.parametrize("arch", ARCHS)
def test_streamed_evaluation_keeps_the_whole_sequence_bits(arch, supervision, pattern, monkeypatch):
    """Chunks of K = 1, 7 (which does not divide T), T - 1 (a last chunk of one
    step) and T give the logits and loss of the whole sequence, bit for bit."""
    model, x, y = _jittered(arch, parse_pattern(pattern, supervision), B=3, T=23, H=8)
    _streamed_matches_whole(model, x, y, monkeypatch, (1, 7, 22, 23))


@pytest.mark.parametrize("arch", ARCHS)
def test_streamed_evaluation_of_one_series_keeps_the_bits(arch, monkeypatch):
    """At N = 1 a chunk of one step is a product of one row, NumPy's
    matrix-vector path: a last chunk of one step (K = T - 1, T - 2) joins the
    chunk before it."""
    model, x, y = _jittered(arch, parse_pattern("ABABAB", "block"), B=1, T=23, H=8)
    _streamed_matches_whole(model, x, y, monkeypatch, (2, 7, 11, 21, 22, 23))


def test_chunk_rows_streams_every_long_pass():
    """K from the byte budget at any width, and T where streaming would cost
    memory or bits."""
    H = 64
    assert stack._chunk_rows(17984, 1, H, 6) == 512  # Worms, one series: 256 KiB rows
    assert stack._chunk_rows(17984, 2, H, 6) == 256
    assert stack._chunk_rows(17984, 181, H, 6) == 2  # never a product of one row
    assert stack._chunk_rows(6144, 1, H, 6) == 512  # two chunks per application
    assert stack._chunk_rows(6143, 1, H, 6) == 6143
    assert stack._chunk_rows(2000, 1, H, 6) == 2000
    assert stack._chunk_rows(100, 32, 16, 6) == 100  # synth
    assert stack._chunk_rows(16, 4, 4, 6) == 16  # audit
    assert stack._chunk_rows(10**6, 1, 1, 6) == 10**6  # B*H = 1: a one-element sum
    assert stack._chunk_rows(10**6, 4, 12, 6) == 682  # widths off a multiple of 8 stream too
    assert stack._chunk_rows(10**6, 4, 8, 6) == 1024


def test_streamed_evaluation_takes_an_empty_batch_and_refuses_zero_steps():
    model = _tiny()
    assert predict_logits(model, np.zeros((0, 5, 3))).shape == (0, 3)
    with pytest.raises(EmptySequenceError):
        predict_logits(model, np.zeros((2, 0, 3)))
    with pytest.raises(EmptySequenceError):
        stack_loss(model, np.zeros((2, 0, 3)), np.array([0, 1]))


def test_streamed_evaluation_chunks_under_its_own_rule(monkeypatch):
    """With a small byte budget the default K streams, and keeps the bits; at
    B * H = 1 it does not stream. At H = 12, P = 6, off a multiple of 8, it
    streams too: two runs give the same bytes, and the logits, the loss and a
    step's gradients agree with one chunk's to rounding."""
    monkeypatch.setattr(stack, "_CHUNK_BYTES", 8 * 3 * 8 * 4)
    model, x, y = _jittered("LRU", parse_pattern("ABABAB", "block"), B=3, T=60, H=8)
    assert stack._chunk_rows(60, 3, 8, 6) == 4
    taps = _whole_taps(model, x, 2)
    assert np.array_equal(predict_logits(model, x), _head(model, taps[-1]).data)
    assert eval_loss(model, x, y).hex() == _taps_loss(model, taps, y).item().hex()
    model, x, y = _jittered("LRU", parse_pattern("AAAAAA", "final"), B=1, T=60, H=1)
    (h,) = _whole_taps(model, x, 6)
    assert stack._chunk_rows(60, 1, 1, 6) == 60
    assert np.array_equal(predict_logits(model, x), _head(model, h).data)

    model, x, y = _jittered("LRU", parse_pattern("ABABAB", "block"), B=3, T=60, H=12, P=6)
    assert stack._chunk_rows(60, 3, 12, 6) < 60
    runs = [(predict_logits(model, x), eval_loss(model, x, y), _chunked_step(model, x, y, None, monkeypatch)[1])
            for _ in range(2)]
    (logits, loss, grads), again = runs
    assert logits.tobytes() == again[0].tobytes() and loss.hex() == again[1].hex()
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in again[2]]
    whole = _chunked_step(model, x, y, 60, monkeypatch)[1]  # one chunk from here on
    one = predict_logits(model, x)
    assert np.abs(logits - one).max() <= 1e-14 * np.abs(one).max()
    assert abs(loss - eval_loss(model, x, y)) <= 1e-14 * abs(loss)
    for g, w in zip(grads, whole):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


# --- the chunked training step ------------------------------------------------------------


def _chunked_step(model, x, y, K, monkeypatch):
    """stack_loss + backward with chunks of K rows (the default K if None): the
    loss, every gradient in parameter order, and the tape's node count."""
    if K is not None:
        monkeypatch.setattr(stack, "_chunk_rows", lambda *shape: K)
    params = model.param_tensors()
    with Tape() as tape:
        loss = stack_loss(model, x, y)
        nodes = len(tape.nodes)
        grads = backward(loss, params)
    return loss.item().hex(), [grads[p].data for p in params], nodes


@pytest.mark.parametrize("pattern", ["AAAAAA", "ABABAB", "ABCDEF"])
@pytest.mark.parametrize("supervision", ["final", "block"])
@pytest.mark.parametrize("arch", ARCHS)
def test_chunked_step_keeps_the_loss_and_the_gradients(arch, supervision, pattern, monkeypatch):
    """With chunks of K < T rows the step is one node for the encoder and the block
    stack, after each unique block's operand nodes and before the head, as with one
    chunk of T rows. Its loss is one chunk's bit for bit, every gradient is within
    1e-12 of it relative to the tensor's largest, and two runs give the same bytes.
    K = 1, 7 (which does not divide T) and T - 1 (a last chunk of one step), at
    B = 3, H = 8 and at the audit shape."""
    config = parse_pattern(pattern, supervision)
    head = _head_nodes(config)
    for B, T, H in ((3, 23, 8), (4, 16, 4)):
        model, x, y = _jittered(arch, config, B, T, H)
        loss, whole, _ = _chunked_step(model, x, y, T, monkeypatch)
        for K in (1, 7, T - 1):
            got, grads, nodes = _chunked_step(model, x, y, K, monkeypatch)
            assert got == loss, f"B, T, H, K = {B}, {T}, {H}, {K}"
            for g, w in zip(grads, whole):
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), f"B, T, H, K = {B}, {T}, {H}, {K}"
            assert nodes == 1 + config.n_unique * _OPERAND_NODES[arch] + head
        again = _chunked_step(model, x, y, 7, monkeypatch)[1]
        assert [g.tobytes() for g in again] == [g.tobytes() for g in _chunked_step(model, x, y, 7, monkeypatch)[1]]


@pytest.mark.parametrize("K", [1, 7])
@pytest.mark.parametrize("arch", ARCHS)
def test_chunked_step_matches_finite_differences(arch, K, monkeypatch):
    """Each gradient tensor of a chunked ABABAB `block` step against central
    differences along one random direction, under the audit's tolerance."""
    from loopseq.verify import _TOL_FD

    model, x, y = _jittered(arch, parse_pattern("ABABAB", "block"), B=4, T=16, H=4)
    monkeypatch.setattr(stack, "_chunk_rows", lambda *shape: K)
    err = ad.finite_difference_check(
        lambda: stack_loss(model, x, y), model.param_tensors(), rng=np.random.default_rng(K)
    )
    assert err < _TOL_FD


# --- memory ---------------------------------------------------------------------------


# tracemalloc peak of one AAAAAA step in B*T*H floats, (`final`, `block`),
# measured 15.16/15.20/15.28/14.40 (pinned as before, 0.35 above) and
# 16.96/17.01/17.01/15.13 (pinned 0.46 above). Building each application from
# `block_oracle`'s unfused nodes, whose tape keeps u, the forcing, the states and
# the tail's intermediates, reads 46.06/46.11/46.23/57.15 and
# 49.96/50.02/50.01/61.15; a block node that keeps u instead of rebuilding it
# reads 21.12/21.17/21.28/19.25 and 21.94/22.00/21.99/20.18. `block` peaks
# in the forward, where the six tapped states are all held.
_STEP_PEAK = {
    "LRU": (15.51, 17.42),
    "S5": (15.55, 17.47),
    "LinOSS": (15.64, 17.47),
    "LrcSSM": (14.79, 15.59),
}

# the same step at B = 4, T = 200 and w = H = P = 32, where the input batch
# is one B*T*H array: measured 16.68/16.87/19.45/14.65 and pinned 0.33-0.43
# above, so an encoder that tapes a time-major copy of its input (1.0 more) fails
_WIDE_STEP_PEAK = {"LRU": 17.03, "S5": 17.25, "LinOSS": 19.78, "LrcSSM": 15.08}


def _step_peak(arch, supervision, B, T, w, H):
    """tracemalloc peak of one AAAAAA stack_loss + backward, in B*T*H floats."""
    model = build_stack(
        arch, StackConfig(6, 1, supervision), width=w, n_classes=5, hidden=H, state=H, rng=0
    )
    rng = np.random.default_rng(16)
    x = rng.standard_normal((B, T, w))
    y = rng.integers(0, 5, B)
    params = model.param_tensors()
    tracemalloc.start()
    try:
        with Tape():
            backward(stack_loss(model, x, y), params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (B * T * H * 8)


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("supervision", ["final", "block"])
def test_train_step_memory_bounded(arch, supervision):
    """One stack_loss + backward at depth 6, B=1, T=2000, H=P=64 stays at its pinned peak.

    The tape keeps only the arrays its adjoints read and none it can rebuild,
    and each block tail, forcing and scan keeps none of its own, so the step
    peaks at 14-18 B*T*H floats; a tape that kept every node's output, and
    every input Tensor its closures named, read 90-110.
    """
    peak = _step_peak(arch, supervision, B=1, T=2000, w=6, H=64)
    limit = _STEP_PEAK[arch][supervision == "block"]
    assert peak <= limit, f"{arch}/{supervision} step peak {peak:.2f} x B*T*H floats"


@pytest.mark.parametrize("arch", ARCHS)
def test_train_step_memory_bounded_batched_wide_input(arch):
    """At B > 1 with w = H the tape holds no copy of the input batch.

    At B = 1 and w = 6 a taped copy of the input costs 0.09 B*T*H floats,
    under the other pin's slack; here it costs 1.0.
    """
    peak = _step_peak(arch, "final", B=4, T=200, w=32, H=32)
    assert peak <= _WIDE_STEP_PEAK[arch], f"{arch} step peak {peak:.2f} x B*T*H floats"


# tracemalloc peak of `predict_logits` at B = 1, T = 2000, w = 6, H = P = 64, in
# B*T*H floats: measured 6.14/6.14/6.14/5.01 and pinned 0.45-0.46 above. A block
# that holds its scan states in a local across the tail's GLU reads 7.13 for
# the paired-state archs, and the unfused tail read 7.07/7.07/7.07/7.00.
# LrcSSM read 6.00 while its tanh and 1 - gate lived through the scan.
_PREDICT_PEAK = {"LRU": 6.59, "S5": 6.59, "LinOSS": 6.59, "LrcSSM": 5.47}


@pytest.mark.parametrize("arch", ARCHS)
def test_predict_logits_memory_bounded(arch):
    B, T, w, H = 1, 2000, 6, 64
    model = build_stack(arch, StackConfig(6, 1, "final"), width=w, n_classes=5, hidden=H, state=H, rng=0)
    x = np.random.default_rng(16).standard_normal((B, T, w))
    tracemalloc.start()
    try:
        predict_logits(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak /= B * T * H * 8
    assert peak <= _PREDICT_PEAK[arch], f"{arch} predict_logits peak {peak:.2f} x B*T*H floats"


# tracemalloc peak of a streamed `eval_loss` at B = 1, w = 6, H = P = 64, depth 6
# (K = 512), in [K, B, H] float arrays: measured 36.69/36.69/36.79/30.58 at T = 6144
# and at T = 12288 alike, and pinned 0.46 above each; LinOSS keeps 37.23, the one
# pin all four shared before (0.44 above). In flight at once are each
# application's input chunk, u, its share of the joint forcing and of the joint
# states; the whole-sequence evaluation held 6.14 x T/K such arrays. At H = P = 60
# (K = 546, T = 6552 and 13104) it read 36.62/36.62/36.71/30.58.
_STREAM_PEAK = {"LRU": 37.15, "S5": 37.15, "LinOSS": 37.23, "LrcSSM": 31.05}


@pytest.mark.parametrize("arch", ARCHS)
def test_streamed_evaluation_memory_does_not_grow_with_t(arch):
    for H, K in ((64, 512), (60, 546)):  # a width off a multiple of 8 streams as well
        model = build_stack(arch, StackConfig(6, 1, "final"), width=6, n_classes=5, hidden=H, state=H, rng=0)
        peaks = []
        for T in (12 * K, 24 * K):
            assert stack._chunk_rows(T, 1, H, 6) == K
            x = np.random.default_rng(16).standard_normal((1, T, 6))
            tracemalloc.start()
            try:
                eval_loss(model, x, np.array([1]))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak / (K * H * 8))
        assert max(peaks) <= _STREAM_PEAK[arch], f"{arch} H = {H} streamed peaks {peaks} x K*B*H floats"
        assert peaks[1] - peaks[0] < 0.05, f"{arch} H = {H} streamed peak grew with T: {peaks}"


# tracemalloc peak of a chunked AAAAAA `final` step (stack_loss + backward) at B = 1,
# w = 6, H = P = 64, depth 6 (K = 512), less what it keeps for the whole sequence (each
# application's normalised input and 1/std, and its state at each chunk end), in
# [K, B, H] float arrays: measured 79.33-79.39/79.87-79.92/73.01-73.05 (LRU and S5,
# LinOSS, LrcSSM) at T = 6144 and T = 12288 alike, and pinned 0.46 above the highest;
# `block` read 5.0 more. The whole peak read 12.7 B*T*H floats at T = 6144 and 9.4 at
# T = 12288, against 15.2 for the whole-sequence step. Holding the rebuilt states and
# their cotangent through the forcing's adjoint read 85.0.
_CHUNKED_STEP_PEAK = {"LRU": 79.85, "S5": 79.85, "LinOSS": 80.38, "LrcSSM": 73.51}


@pytest.mark.parametrize("arch", ARCHS)
def test_chunked_step_memory_does_not_grow_with_t(arch):
    H, K, n = 64, 512, 2 * 64 if arch != "LrcSSM" else 64
    model = build_stack(arch, StackConfig(6, 1, "final"), width=6, n_classes=5, hidden=H, state=H, rng=0)
    params = model.param_tensors()
    peaks = []
    for T in (6144, 12288):
        assert stack._chunk_rows(T, 1, H, 6) == K
        x = np.random.default_rng(16).standard_normal((1, T, 6))
        tracemalloc.start()
        try:
            with Tape():
                backward(stack_loss(model, x, np.array([1])), params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (T * H * 8) < 15.0, f"{arch} chunked step peak {peak / (T * H * 8):.2f} x B*T*H floats"
        kept = 6 * (T * (H + 1) + (T // K - 1) * n) * 8
        peaks.append((peak - kept) / (K * H * 8))
    assert max(peaks) <= _CHUNKED_STEP_PEAK[arch], f"{arch} chunked step peaks {peaks} x K*B*H floats"
    assert abs(peaks[1] - peaks[0]) < 0.1, f"{arch} chunked step peak grew with T: {peaks}"


# One LRU step as above, in a fresh interpreter: how far the peak resident set
# rises above the resident set at the step's start, in B*T*H floats, after a
# T = 100 step has touched the BLAS buffers. It sees what tracemalloc does not:
# heap the allocator keeps after a free. The peak is VmHWM, not ru_maxrss,
# which carries the spawning process's peak across exec. glibc's heap layout
# moves with the child's environment and directory, and OpenBLAS's threads made
# the reading bimodal, so the child runs with one BLAS thread, in the root
# directory, with no variable but those two. The checkout's path still moves
# it by about 1.0, and about one run in fifty reads 0.5-2 higher, so the test
# takes the least of three runs. Measured 15.09-15.23 and 16.06-16.21 in two
# checkouts on Linux with glibc (80 runs) and pinned 0.46 above the highest;
# keeping each application's states on the tape reads 24.96-25.18.
_STEP_RSS_GROWTH = 16.67

_RSS_STEP = """
import numpy as np
from loopseq.autodiff import Tape, backward
from loopseq.stack import StackConfig, build_stack, stack_loss

def kib(field):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":"))

B, T, w, H = 1, 2000, 6, 64
model = build_stack("LRU", StackConfig(6, 1, "final"), width=w, n_classes=5, hidden=H, state=H, rng=0)
rng = np.random.default_rng(16)
x = rng.standard_normal((B, T, w))
y = rng.integers(0, 5, B)
params = model.param_tensors()
with Tape():
    backward(stack_loss(model, x[:, :100], y), params)
resident = kib("VmRSS")
with Tape():
    backward(stack_loss(model, x, y), params)
print((kib("VmHWM") - resident) * 1024 / (B * T * H * 8))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_train_step_rss_growth_bounded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": "1",
    }
    readings = []
    for _ in range(3):
        run = subprocess.run([sys.executable, "-c", _RSS_STEP], env=env, cwd=os.sep, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        readings.append(float(run.stdout))
    growth = min(readings)
    assert growth <= _STEP_RSS_GROWTH, f"LRU step peak RSS {readings} x B*T*H floats above its start"


# --- misc -----------------------------------------------------------------------------


def test_stack_loss_dispatches_on_supervision():
    # bitwise against the loss written out by hand: final is the last tap's
    # mean cross entropy unscaled, block the 1/r-scaled sum over taps 2, 4, 6
    x = np.random.default_rng(15).standard_normal((2, 5, 3))
    y = np.array([0, 1])
    final = _tiny(m=2, supervision="final")
    block = _with_supervision(final, "block")
    h = encoder_forward(final.encoder, Tensor(x))
    terms = []
    for j in range(6):
        h = block_forward(final.blocks[j % 2], h)
        if j % 2 == 1:
            terms.append(ad.softmax_cross_entropy(_head(final, h.data), y).mean())
    assert stack_loss(final, x, y).item() == terms[-1].item()
    assert stack_loss(block, x, y).item() == ((terms[0] + terms[1] + terms[2]) * (1.0 / 3)).item()


def test_n_params_counts_all_containers():
    model = _tiny(m=2)
    total = model.n_params()
    by_hand = sum(t.size for _, t in model.parameters())
    assert total == by_hand
