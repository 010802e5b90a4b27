"""Block tests: each architecture against a straight-line sequential oracle."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import expit as _expit

from loopseq import scan
from loopseq.autodiff import Tape, Tensor, backward, finite_difference_check
from loopseq.blocks import (
    ARCHS,
    block_forward,
    clone_params,
    count_params,
    encoder_forward,
    head_from_sum,
    init_block,
    init_encoder,
    init_head,
    named_tensors,
)
from loopseq.errors import ConfigError, ShapeError
from loopseq.stack import StackConfig, build_stack, stack_loss


def _oracle_recurrence(p, u):
    """Plain-python per-step recurrences, derived independently of the kernels."""
    T = u.shape[0]
    arch = type(p).arch
    if arch == "LRU":
        mag = np.exp(-np.exp(p.nu_log.data))
        lam = mag * np.exp(1j * p.theta.data)
        gamma = np.sqrt(1.0 - mag**2)
        B = p.b_re.data + 1j * p.b_im.data
        C = p.c_re.data + 1j * p.c_im.data
        x = np.zeros(B.shape[1], dtype=complex)
        out = np.empty_like(u)
        for t in range(T):
            x = lam * x + gamma * (u[t] @ B)
            out[t] = (x @ C).real + p.feedthrough.data * u[t]
        return out
    if arch == "S5":
        lam = -np.exp(p.re_log.data) + 1j * p.im.data
        dt = np.exp(p.log_dt.data)
        abar = np.exp(dt * lam)
        bcoef = (abar - 1.0) / lam
        B = p.b_re.data + 1j * p.b_im.data
        C = p.c_re.data + 1j * p.c_im.data
        x = np.zeros(B.shape[1], dtype=complex)
        out = np.empty_like(u)
        for t in range(T):
            x = abar * x + bcoef * (u[t] @ B)
            out[t] = (x @ C).real + p.feedthrough.data * u[t]
        return out
    if arch == "LinOSS":
        A = np.maximum(p.a_hat.data, 0.0)
        dt = _expit(p.dt_hat.data)
        S = 1.0 / (1.0 + dt * dt * A)
        z = np.zeros(A.shape)
        y = np.zeros(A.shape)
        out = np.empty_like(u)
        for t in range(T):
            bu = u[t] @ p.b_w.data
            # solve the implicit update directly rather than via the 2x2 form
            z = S * (z - dt * A * y + dt * bu)
            y = y + dt * z
            out[t] = y @ p.c_w.data + p.feedthrough.data * u[t]
        return out
    # LrcSSM
    x = np.zeros(p.gate_b.data.shape)
    out = np.empty_like(u)
    for t in range(T):
        a = _expit(u[t] @ p.gate_w.data + p.gate_b.data)
        x = a * x + (1.0 - a) * np.tanh(u[t] @ p.drive_w.data + p.drive_b.data)
        out[t] = x @ p.c_w.data + p.feedthrough.data * u[t]
    return out


def _oracle_block(p, h):
    mu = h.mean(-1, keepdims=True)
    var = ((h - mu) ** 2).mean(-1, keepdims=True)
    u = (h - mu) / np.sqrt(var + 1e-6) * p.norm_gain.data + p.norm_bias.data
    r = _oracle_recurrence(p, u)
    value = r @ p.glu_value_w.data + p.glu_value_b.data
    gate = _expit(r @ p.glu_gate_w.data + p.glu_gate_b.data)
    return h + value * gate


@pytest.mark.parametrize("arch", ARCHS)
def test_block_matches_sequential_oracle(arch):
    rng = np.random.default_rng(17)
    p = init_block(arch, hidden=10, state=6, rng=rng)
    h = rng.standard_normal((32, 10))
    got = block_forward(p, Tensor(h)).data
    want = _oracle_block(p, h)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() / scale < 1e-8


@pytest.mark.parametrize("arch", ARCHS)
def test_zero_mixer_value_is_identity(arch):
    rng = np.random.default_rng(18)
    p = init_block(arch, hidden=6, state=4, rng=rng)
    p.glu_value_w.data[:] = 0.0
    p.glu_value_b.data[:] = 0.0
    h = rng.standard_normal((9, 6))
    out = block_forward(p, Tensor(h)).data
    np.testing.assert_array_equal(out, h)


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("T", [1, 2, 405, 17984])
def test_shape_preserved(arch, T):
    rng = np.random.default_rng(19)
    p = init_block(arch, hidden=4, state=4, rng=rng)
    h = rng.standard_normal((T, 4))
    assert block_forward(p, Tensor(h)).shape == (T, 4)


@pytest.mark.parametrize("arch", ARCHS)
def test_batched_matches_unbatched(arch):
    rng = np.random.default_rng(20)
    p = init_block(arch, hidden=5, state=3, rng=rng)
    h = rng.standard_normal((11, 4, 5))  # [T, B, H]
    full = block_forward(p, Tensor(h)).data
    for i in range(4):
        single = block_forward(p, Tensor(h[:, i])).data
        np.testing.assert_allclose(full[:, i], single, rtol=1e-12, atol=1e-14)


def _one_block(arch, B, T, w, hidden, state, seed):
    """A stack of one application of a fresh `arch` block, with an input batch and
    labels: its loss runs the block's forward and adjoint inside the stack's node."""
    model = build_stack(arch, StackConfig(1, 1), width=w, n_classes=3, hidden=hidden, state=state, rng=seed)
    rng = np.random.default_rng(seed)
    return model, rng.standard_normal((B, T, w)), rng.integers(0, 3, B)


@pytest.mark.parametrize("arch", ARCHS)
def test_every_parameter_receives_gradient(arch):
    model, x, y = _one_block(arch, B=2, T=12, w=3, hidden=6, state=4, seed=21)
    p = model.blocks[0]
    with Tape():
        grads = backward(stack_loss(model, x, y), [t for _, t in named_tensors(p)])
    for name, t in named_tensors(p):
        assert np.abs(grads[t].data).max() > 0, f"{arch}.{name} got a zero gradient"


@pytest.mark.parametrize("arch", ARCHS)
def test_block_gradients_match_finite_differences(arch):
    # at a generic point: at S5's init one GLU gate weight's derivative is 3.5e-9,
    # below what central differences resolve against the relative-error floor
    model, x, y = _one_block(arch, B=2, T=8, w=3, hidden=3, state=3, seed=22)
    rng = np.random.default_rng(22)
    for p in model.param_tensors():
        p.data += 0.1 * rng.standard_normal(p.shape)
    params = [t for _, t in named_tensors(model.blocks[0])]
    err = finite_difference_check(lambda: stack_loss(model, x, y), params)
    assert err < 1e-4


# one block's fwd+bwd peak in B*T*H floats, as a stack of one application (its
# encoder, node and head) at w = 6: measured 4.01/4.02/4.65/3.55 and pinned 0.18
# above. Holding the forcing through the adjoint read 4.52/4.53/5.16/3.74, holding u
# across the scan's adjoint 4.26/4.27/4.91/3.80, and making the states' cotangent
# before the tail's adjoint 3.74 for LrcSSM.
_BLOCK_PEAK = {"LRU": 4.19, "S5": 4.20, "LinOSS": 4.83, "LrcSSM": 3.73}


@pytest.mark.parametrize("arch", ARCHS)
def test_block_tape_memory_bounded(arch):
    """One block's forward+backward at B=1, T=2000, H=P=64 stays at its pinned peak.

    The tape holds one node for the block application, which keeps only the
    normalised input and 1/std, rebuilds u and the states in its adjoint and
    frees each array once read, so the peak is about 4-5 such arrays.
    """
    B, T, H = 1, 2000, 64
    model, x, y = _one_block(arch, B=B, T=T, w=6, hidden=H, state=H, seed=24)
    params = model.param_tensors()
    tracemalloc.start()
    try:
        with Tape():
            backward(stack_loss(model, x, y), params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unit = B * T * H * 8
    assert peak <= _BLOCK_PEAK[arch] * unit, f"{arch} fwd+bwd peak {peak / unit:.2f} x B*T*H floats"


# a stack of one block application: the tape nodes recorded (the block's operands,
# the node, the head and loss) and the one scan kind its forward sends
_TAPE_NODES = {"LRU": 24, "S5": 40, "LinOSS": 25, "LrcSSM": 7}
_SCAN_KIND = {"LRU": "cdiag", "S5": "cdiag", "LinOSS": "mat2", "LrcSSM": "diag"}


@pytest.mark.parametrize("shape", [(1, 7, 5), (2, 7, 5)])
@pytest.mark.parametrize("arch", ARCHS)
def test_block_application_tape_nodes_and_scan_kind(arch, shape, monkeypatch):
    kinds = []
    scan_linear = scan.scan_linear
    monkeypatch.setattr(scan, "scan_linear", lambda elem: kinds.append(elem.kind) or scan_linear(elem))
    model, x, y = _one_block(arch, B=shape[0], T=shape[1], w=shape[2], hidden=5, state=4, seed=32)
    with Tape() as tape:
        stack_loss(model, x, y)
    assert len(tape.nodes) == _TAPE_NODES[arch]
    assert kinds == [_SCAN_KIND[arch]]


@pytest.mark.parametrize("arch", ARCHS)
def test_block_forward_records_nothing_and_refuses_a_single_row(arch):
    rng = np.random.default_rng(33)
    p = init_block(arch, hidden=5, state=4, rng=rng)
    with Tape() as tape:
        out = block_forward(p, Tensor(rng.standard_normal((7, 5)), requires_grad=True))
    assert len(tape.nodes) == 0 and not out.requires_grad
    with pytest.raises(ShapeError, match=r"got shape \(5,\)"):
        block_forward(p, np.zeros(5))


@pytest.mark.parametrize("arch", ARCHS)
def test_initialization_stable_over_long_horizon(arch):
    rng = np.random.default_rng(23)
    p = init_block(arch, hidden=64, state=64, rng=rng)
    h = rng.standard_normal((18000, 64))
    out = block_forward(p, Tensor(h)).data
    assert np.abs(out).max() < 1e3


def test_lru_memoryless_limit_is_local():
    rng = np.random.default_rng(24)
    p = init_block("LRU", hidden=6, state=4, rng=rng)
    p.nu_log.data[:] = np.log(50.0)  # |lambda| = exp(-50), effectively zero
    h = rng.standard_normal((10, 6))
    base = block_forward(p, Tensor(h)).data
    bumped = h.copy()
    bumped[3] += 1.0
    out = block_forward(p, Tensor(bumped)).data
    assert np.abs(out[4:] - base[4:]).max() < 1e-12  # later steps unmoved
    assert np.abs(out[3] - base[3]).max() > 1e-3  # the step itself responds


# --- encoder / head -----------------------------------------------------------


def test_encoder_is_affine():
    rng = np.random.default_rng(25)
    enc = init_encoder(3, 8, rng)
    with pytest.raises(ShapeError, match=r"got shape \(5, 3\)"):  # a series needs its batch axis
        encoder_forward(enc, Tensor(rng.standard_normal((5, 3))))
    # a [B, T, w] batch comes out time-major, [T, B, H]
    xb = rng.standard_normal((2, 5, 3))
    out = encoder_forward(enc, Tensor(xb)).data
    assert out.shape == (5, 2, 8)
    for i in range(2):
        np.testing.assert_allclose(out[:, i], xb[i] @ enc.weight.data + enc.bias.data, rtol=1e-15)


def test_head_mean_pools_then_projects():
    rng = np.random.default_rng(26)
    head = init_head(6, 4, rng)
    h = rng.standard_normal((9, 2, 6))  # [T, B, H]
    got = head_from_sum(head, h.sum(axis=0), 9).data
    want = h.mean(axis=0) @ head.weight.data + head.bias.data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_zero_head_weight_gives_bias():
    rng = np.random.default_rng(28)
    head = init_head(5, 3, rng)
    head.weight.data[:] = 0.0
    h = rng.standard_normal((7, 4, 5))  # [T, B, H]
    got = head_from_sum(head, h.sum(axis=0), 7).data
    np.testing.assert_array_equal(got, np.broadcast_to(head.bias.data, (4, 3)))


# --- parameter accounting -------------------------------------------------------


_EXPECTED_SHAPES = {
    # golden shape enumeration at H = P = 64; complex params appear as re+im pairs
    "LRU": [(64,)] * 2 + [(64, 64)] * 4 + [(64,)] * 3 + [(64, 64), (64,), (64, 64), (64,)],
    "S5": [(64,)] * 3 + [(64, 64)] * 4 + [(64,)] * 3 + [(64, 64), (64,), (64, 64), (64,)],
    "LinOSS": [(64,)] * 2 + [(64, 64)] * 2 + [(64,)] * 3 + [(64, 64), (64,), (64, 64), (64,)],
    "LrcSSM": [(64,), (64, 64), (64,), (64, 64), (64, 64)] + [(64,)] * 3 + [(64, 64), (64,), (64, 64), (64,)],
}


@pytest.mark.parametrize("arch", ARCHS)
def test_count_params_matches_shape_enumeration(arch):
    rng = np.random.default_rng(29)
    p = init_block(arch, hidden=64, state=64, rng=rng)
    golden = sum(int(np.prod(s)) for s in _EXPECTED_SHAPES[arch])
    assert count_params(p) == golden


def test_golden_per_block_counts():
    rng = np.random.default_rng(30)
    got = {a: count_params(init_block(a, 64, 64, rng)) for a in ARCHS}
    assert got == {"LRU": 25024, "S5": 25088, "LinOSS": 16832, "LrcSSM": 20928}


def test_clone_params_copies_bits_independently():
    rng = np.random.default_rng(31)
    p = init_block("S5", hidden=4, state=4, rng=rng)
    q = clone_params(p)
    for (_, a), (_, b) in zip(named_tensors(p), named_tensors(q)):
        assert (a.data == b.data).all()
        assert a is not b
    q.re_log.data[:] = 99.0
    assert not (p.re_log.data == 99.0).any()


def test_unknown_arch_rejected():
    with pytest.raises(ConfigError):
        init_block("S4", hidden=4, state=4, rng=np.random.default_rng(0))
