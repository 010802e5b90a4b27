"""Tape autodiff tests: every primitive's adjoint against central differences."""

import contextlib
import gc
import weakref

import numpy as np
import pytest
from block_oracle import _layer_norm, kept_block
from scan_oracle import _matmul

import loopseq.autodiff as ad
from loopseq.autodiff import Tape, Tensor, backward, finite_difference_check, param
from loopseq.errors import ContractError, DtypeError, NumericError, ShapeError


def _fd(f, params, **kw):
    return finite_difference_check(f, params, **kw)


# --- primitive adjoints --------------------------------------------------------


@pytest.mark.parametrize(
    "op,shapes",
    [
        (ad.add, ((3, 4), (3, 4))),
        (ad.add, ((3, 4), (4,))),  # broadcast
        (ad.sub, ((3, 4), (3, 1))),
        (ad.mul, ((3, 4), (3, 4))),
        (ad.mul, ((3, 4), ())),
        (ad.div, ((3, 4), (4,))),
    ],
)
def test_binary_ops_match_fd(op, shapes):
    rng = np.random.default_rng(0)
    ps = [param(rng.uniform(0.5, 1.5, s)) for s in shapes]
    err = _fd(lambda: (op(ps[0], ps[1]) * 1.7).sum(), ps)
    assert err < 1e-6


@pytest.mark.parametrize(
    "op",
    [ad.neg, ad.exp, ad.sqrt, ad.sigmoid, ad.sin, ad.cos],
)
def test_unary_ops_match_fd(op):
    rng = np.random.default_rng(1)
    p = param(rng.uniform(0.5, 2.0, (4, 5)))
    err = _fd(lambda: (op(p) * 0.3).sum(), [p])
    assert err < 1e-6


def test_relu_matches_fd_off_kink():
    rng = np.random.default_rng(2)
    vals = rng.uniform(0.5, 1.5, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    p = param(vals)
    err = _fd(lambda: ad.relu(p).sum(), [p])
    assert err < 1e-6


def test_matmul_matches_fd():
    # the oracles' matmul node (no block multiplies Tensors with `@`)
    rng = np.random.default_rng(4)
    x = param(rng.standard_normal((2, 5, 3)))
    w = param(rng.standard_normal((3, 4)))

    def f():
        y = _matmul(x, w)
        return (y * y).sum()

    err = _fd(f, [x, w])
    assert err < 1e-5


@pytest.mark.parametrize("shape", [(3000, 1, 16), (300, 4, 16)], ids=["T-1-H", "T-B-H"])
@pytest.mark.parametrize("op", ["matmul", "affine"])
def test_products_are_one_2d_product(op, shape):
    """Time-major [T, B, H] @ w is one [T*B, H] @ w product, outputs and gradients bit for bit.

    numpy's own [T, 1, H] @ w runs T separate [1, H] @ w products, in other bits.
    """
    rng = np.random.default_rng(44)
    x = param(rng.standard_normal(shape))
    w = param(rng.standard_normal((16, 8)))
    b = param(rng.standard_normal(8))
    g = rng.standard_normal(shape[:-1] + (8,))
    with Tape():
        y = _matmul(x, w) if op == "matmul" else ad.affine(x, w, b)
        grads = backward((y * Tensor(g)).sum(), [x, w, b])
    x2, g2 = x.data.reshape(-1, 16), g.reshape(-1, 8)
    want = x2 @ w.data
    if op == "affine":
        want += b.data
    assert y.data.tobytes() == want.tobytes()
    assert grads[x].data.tobytes() == (g2 @ w.data.T).tobytes()
    assert grads[w].data.tobytes() == (x2.T @ g2).tobytes()


def test_sum_mean_axes_match_fd():
    rng = np.random.default_rng(5)
    p = param(rng.standard_normal((3, 4, 2)))
    err = _fd(lambda: (ad.sum_(p, axis=2) * ad.mean_(p, axis=2)).sum() + ad.mean_(p), [p])
    assert err < 1e-5


def test_stack_plane_match_fd():
    rng = np.random.default_rng(6)
    a = param(rng.standard_normal((4, 3)))
    b = param(rng.standard_normal((4, 3)))
    w = Tensor(rng.standard_normal((4, 3, 2)))

    def f():
        return (ad.stack([a, b], axis=-1) * w).sum()

    assert _fd(f, [a, b]) < 1e-6


@pytest.mark.parametrize("x_shape", [(5, 3), (2, 5, 3)])
def test_affine_matches_fd(x_shape):
    rng = np.random.default_rng(13)
    x = param(rng.standard_normal(x_shape))
    w = param(rng.standard_normal((3, 4)))
    b = param(rng.standard_normal(4))  # broadcast over every leading axis

    def f():
        y = ad.affine(x, w, b)
        return (y * y).sum()

    err = _fd(f, [x, w, b])
    assert err < 1e-5


def test_affine_equals_matmul_plus_bias():
    rng = np.random.default_rng(14)
    x, w, b = rng.standard_normal((2, 5, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)
    got = ad.affine(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_array_equal(got, (_matmul(Tensor(x), Tensor(w)) + Tensor(b)).data)


@pytest.mark.parametrize(
    "x_shape,w_shape,b_shape",
    [
        ((5, 3), (4, 2), (2,)),  # inner dims disagree
        ((5, 3), (3, 2, 1), (2,)),  # weight not 2-D
        ((3,), (3, 2), (2,)),  # input not at least 2-D
        ((5, 3), (3, 2), (5, 1, 2)),  # bias would grow the output
        ((5, 3), (3, 2), (3,)),  # bias does not broadcast
    ],
)
def test_affine_rejects_mismatched_shapes(x_shape, w_shape, b_shape):
    with pytest.raises(ShapeError):
        ad.affine(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))


def test_layer_norm_matches_fd():
    # the oracles' layer-norm node, whose bits `ssm_block` reproduces
    rng = np.random.default_rng(15)
    x = param(rng.standard_normal((2, 4, 6)))
    gain = param(rng.uniform(0.5, 1.5, 6))
    bias = param(rng.standard_normal(6))
    w = Tensor(rng.standard_normal((2, 4, 6)))
    err = _fd(lambda: (_layer_norm(x, gain, bias, 1e-6) * w).sum(), [x, gain, bias])
    assert err < 1e-5


def test_layer_norm_normalises_last_axis():
    x = np.random.default_rng(16).standard_normal((3, 7)) * 5.0 + 2.0
    out = _layer_norm(Tensor(x), Tensor(np.ones(7)), Tensor(np.zeros(7)), 0.0).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-14)
    np.testing.assert_allclose(out.std(axis=-1), 1.0, rtol=1e-12)


# --- one block application as one node ----------------------------------------------

# the scan tensors of `ssm_block` for each kind, at hidden size H and state size P
_SCAN_SHAPES = {
    "cdiag": lambda H, P: [(H, P, 2), (P, 2)],
    "mat2": lambda H, P: [(H, P, 2), (P, 2, 2)],
    "diag": lambda H, P: [(H, P), (P,), (H, P), (P,)],
}


def _block_operands(rng, kind="cdiag", lead=(5, 2), hidden=4, state=3):
    """h, gain, bias, the scan tensors, c, d, wv, bv, wg, bg of `ssm_block` as parameters."""
    n = state if kind == "diag" else 2 * state
    shapes = [lead + (hidden,), (hidden,), (hidden,), *_SCAN_SHAPES[kind](hidden, state)]
    shapes += [(n, hidden), (hidden,)] + [(hidden, hidden), (hidden,)] * 2
    ps = [param(rng.standard_normal(s)) for s in shapes]
    if kind != "diag":  # a shared factor inside the unit disc
        ps[4] = param(rng.uniform(-0.5, 0.5, ps[4].shape))
    return ps


def _block(kind, ps, block=ad.ssm_block):
    """`block` (`ssm_block` or an oracle with its signature) on `_block_operands`' tensors."""
    h, gain, bias, *rest = ps
    scan, tail = rest[:-6], rest[-6:]
    return block(h, gain, bias, 1e-6, (kind, *scan), *tail)


@pytest.mark.parametrize("kind", ["cdiag", "mat2"])
def test_project_scan_matches_fd(kind):
    rng = np.random.default_rng(8)
    ps = _block_operands(rng, kind)
    v = rng.standard_normal(ps[0].shape)
    assert _fd(lambda: (_block(kind, ps) * Tensor(v)).sum(), ps) < 1e-5


def test_gate_scan_matches_fd():
    rng = np.random.default_rng(7)
    ps = _block_operands(rng, "diag")
    v = rng.standard_normal(ps[0].shape)
    assert _fd(lambda: (_block("diag", ps) * Tensor(v)).sum(), ps) < 1e-5


def test_gated_residual_matches_fd():
    # the tail's operands: h, the readout, the feedthrough and the GLU
    rng = np.random.default_rng(26)
    ps = _block_operands(rng)
    v = rng.standard_normal(ps[0].shape)
    tail = [ps[0], *ps[-6:]]
    assert _fd(lambda: (_block("cdiag", ps) * Tensor(v)).sum(), tail) < 1e-6


@pytest.mark.parametrize("taped", [False, True])
def test_ssm_block_equals_unfused_composition_bitwise(taped):
    for kind in ("cdiag", "mat2", "diag"):
        rng = np.random.default_rng(27)
        ps = _block_operands(rng, kind, lead=(7, 3), hidden=5, state=4)
        w = Tensor(rng.standard_normal(ps[0].shape))
        got, want = [], []
        for block, into in ((ad.ssm_block, got), (kept_block, want)):
            with Tape() if taped else contextlib.nullcontext():
                out = _block(kind, ps, block)
                into.append(out.data.tobytes())
                if taped:
                    grads = backward((out * w).sum(), ps)
                    into.extend(grads[p].data.tobytes() for p in ps)
        assert got == want, kind


@pytest.mark.parametrize(
    "which,shape",
    [(0, (5, 2, 3)), (1, (3,)), (2, (3,)), (5, (5, 4)), (7, (4, 3)), (8, (2,)), (6, (5,))],
    ids=["h", "gain", "bias", "c", "wv", "bv", "d"],
)
def test_gated_residual_rejects_mismatched_shapes(which, shape):
    ps = _block_operands(np.random.default_rng(28))
    ps[which] = Tensor(np.zeros(shape))
    with pytest.raises(ShapeError):
        _block("cdiag", ps)


@pytest.mark.parametrize(
    "kind,which,shape",
    [("cdiag", 3, (4, 3)), ("cdiag", 3, (4, 3, 3)), ("cdiag", 3, (2, 3, 2)), ("diag", 5, (2, 3))],
    ids=["no-pair-axis", "triple", "inner-dims", "gate-inner-dims"],
)
def test_project_scan_rejects_a_forcing_weight_of_another_shape(kind, which, shape):
    ps = _block_operands(np.random.default_rng(29), kind)
    ps[which] = Tensor(np.zeros(shape))
    with pytest.raises(ShapeError):
        _block(kind, ps)


def test_reshape_matches_fd():
    rng = np.random.default_rng(17)
    x = param(rng.standard_normal((2, 3, 4)))
    w = Tensor(rng.standard_normal((2, 6, 2)))
    err = _fd(lambda: (ad.reshape(x * x, (2, 6, 2)) * w).sum(), [x])
    assert err < 1e-6


def _sigmoid_piecewise(d):
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_piecewise_form():
    tiny = np.finfo(np.float64).tiny
    extremes = [0.0, -0.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf, np.nan]
    subnormals = [tiny / 2, -tiny / 2, 5e-324, -5e-324]
    d = np.concatenate(
        [np.random.default_rng(18).standard_normal(10**6) * 30.0, extremes, subnormals]
    )
    with np.errstate(over="ignore"):
        got = ad.sigmoid(Tensor(d)).data
        ref = _sigmoid_piecewise(d)
    assert np.array_equal(got, ref, equal_nan=True)
    keep = ~np.isnan(d)  # NaN payloads may differ; every other value matches bit for bit
    np.testing.assert_array_equal(got[keep].view(np.uint64), ref[keep].view(np.uint64))


def _sigmoid_where(d):
    """The formula ad.sigmoid used before it dropped np.where, kept to pin its bits."""
    e = np.exp(-np.abs(d))
    out = np.where(d >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def test_sigmoid_bits_equal_the_where_formula():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -1e-320, 800.0, -800.0]
    d = np.concatenate([special, np.random.default_rng(19).standard_normal(4096) * 40.0])
    with np.errstate(over="ignore"):
        for x in (d, d.reshape(-1, 5).T, *(np.array(v) for v in special)):
            before = x.copy()
            got = ad.sigmoid(Tensor(x)).data
            ref = _sigmoid_where(x)
            assert type(got) is np.ndarray and got.shape == x.shape
            assert np.array_equal(got, ref, equal_nan=True)
            mask = ~np.isnan(x)  # NaN payloads may differ; every other value matches bit for bit
            np.testing.assert_array_equal(got[mask].view(np.uint64), ref[mask].view(np.uint64))
            np.testing.assert_array_equal(x.view(np.uint64), before.view(np.uint64))


def test_softmax_cross_entropy_matches_fd():
    rng = np.random.default_rng(9)
    logits = param(rng.standard_normal((6, 4)))
    labels = rng.integers(0, 4, 6)
    err = _fd(lambda: ad.softmax_cross_entropy(logits, labels).mean(), [logits])
    assert err < 1e-5


# --- tape semantics --------------------------------------------------------------


def test_backward_releases_tape_and_breaks_cycle():
    """With the cyclic collector off, reference counting alone frees a swept tape."""
    p = param(np.random.default_rng(19).standard_normal((4, 3)))
    w = param(np.ones((3, 2)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        with Tape() as tape:
            loss = (ad.sigmoid(ad.affine(p, w, np.zeros(2))) * p.sum()).sum()
            backward(loss, [p, w])
        assert len(tape) == 5  # the node list keeps its length
        assert all(n.parents is None and n.vjp is None for n in tape.nodes)
        ref = weakref.ref(tape)
        del tape, loss
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_nodes_refer_to_tape_parents_by_index():
    p = param(np.ones((2, 3)))
    with Tape() as tape:
        h = ad.sin(p)
        (h * 2.0).sum()
    assert tape.nodes[0].parents == (p,)  # a leaf that requires a gradient
    assert tape.nodes[1].parents == (h._node_id, None)  # recorded here; a constant
    assert tape.nodes[2].parents == (1,)


@pytest.mark.parametrize("adjoint_reads_it", [False, True], ids=["sum", "mul"])
def test_intermediate_no_adjoint_reads_is_freed_during_forward(adjoint_reads_it):
    """The tape keeps an intermediate's array only while some adjoint reads it."""
    rng = np.random.default_rng(20)
    p = param(rng.standard_normal((4, 3)))
    q = param(rng.standard_normal((4, 3)))
    with Tape():
        s = ad.add(p, q)
        ref = weakref.ref(s.data)
        loss = (s * s).sum() if adjoint_reads_it else ad.sum_(s)
        del s
        assert (ref() is not None) == adjoint_reads_it
        grads = backward(loss, [p, q])
    expected = 2.0 * (p.data + q.data) if adjoint_reads_it else np.ones((4, 3))
    np.testing.assert_array_equal(grads[p].data, expected)
    np.testing.assert_array_equal(grads[q].data, expected)


def test_second_backward_on_released_tape_rejected():
    p = param(np.ones(3))
    with Tape():
        loss = (p * p).sum()
        backward(loss, [p])
        with pytest.raises(ContractError):
            backward(loss, [p])


def test_sum_of_params_gives_ones():
    p = param(np.zeros((3, 2)))
    with Tape():
        grads = backward(p.sum(), [p])
    np.testing.assert_array_equal(grads[p].data, np.ones((3, 2)))


def test_quadratic_gradient_exact():
    rng = np.random.default_rng(11)
    p = param(rng.standard_normal((7,)))
    with Tape():
        grads = backward((p * p).sum(), [p])
    np.testing.assert_allclose(grads[p].data, 2 * p.data, rtol=0, atol=0)


def test_unreachable_param_gets_exact_zero():
    p = param(np.ones(3))
    q = param(np.ones(4))
    with Tape():
        grads = backward(p.sum(), [p, q])
    assert (grads[q].data == 0).all()
    assert grads[q].data.shape == (4,)


def test_detached_loss_warns_and_zeroes():
    p = param(np.ones(3))
    loss = (p * p).sum()  # no tape active
    with pytest.warns(RuntimeWarning):
        grads = backward(loss, [p])
    assert (grads[p].data == 0).all()


def test_detach_stops_gradient():
    p = param(np.ones(3))
    with Tape():
        loss = (p.detach() * p).sum()
        grads = backward(loss, [p])
    np.testing.assert_array_equal(grads[p].data, np.ones(3))  # only the live factor


def test_non_scalar_loss_rejected():
    p = param(np.ones(3))
    with Tape():
        with pytest.raises(ShapeError):
            backward(p * 2.0, [p])


def test_each_node_visited_once():
    p = param(np.ones(4))
    with Tape() as tape:
        y = p * 2.0
        z = y + y  # diamond: y feeds twice through one node
        grads = backward(z.sum(), [p])
    assert len(tape) == 3
    np.testing.assert_array_equal(grads[p].data, 4 * np.ones(4))


def test_grad_accumulates_across_reuse():
    p = param(np.full(3, 2.0))
    with Tape():
        grads = backward((p * p).sum() + p.sum(), [p])
    np.testing.assert_allclose(grads[p].data, 2 * p.data + 1, rtol=0, atol=0)


def test_complex_dtype_rejected():
    with pytest.raises(DtypeError):
        Tensor(np.ones(3, dtype=np.complex128))


@pytest.mark.parametrize(
    "data", [np.complex128(1j), 1j, [1 + 0j], np.ones((2, 2), dtype=np.complex64)],
    ids=["numpy-scalar", "python-scalar", "list", "complex64"],
)
def test_complex_scalars_and_lists_rejected(data):
    with pytest.raises(DtypeError):
        Tensor(data)


@pytest.mark.parametrize(
    "data",
    [np.arange(3), [1, 2, 3], 2, np.float32([1.5, 2.5, 3.5]), np.ones(3, dtype=">f8"), np.float64(2.0)],
    ids=["int-array", "int-list", "int-scalar", "float32", "big-endian", "numpy-scalar"],
)
def test_non_float64_input_converts(data):
    t = Tensor(data)
    assert type(t.data) is np.ndarray and t.data.dtype == np.float64
    np.testing.assert_array_equal(t.data, np.asarray(data, dtype=np.float64))
    assert ad.add(data, 1).data.dtype == np.float64


def _every_primitive(x, y, m, w, v, a, b):
    """One output of each public primitive, 0-d results included."""
    return [
        ad.add(x, y), ad.sub(x, y), ad.mul(x, 2), ad.div(x, y), ad.neg(x), ad.exp(x),
        ad.sqrt(ad.exp(x)), ad.sigmoid(x), ad.relu(x), ad.sin(x), ad.cos(x),
        ad.affine(m, w, v),
        ad.sum_(x), ad.sum_(x, axis=0), ad.mean_(x), ad.mean_(m, axis=-1, keepdims=True),
        ad.stack([x, y], axis=0), ad.stack([x, y], axis=-1), ad.reshape(m, (-1,)),
        ad.softmax_cross_entropy(m, np.array([0, 2])),
        ad.ssm_block(m, v, v, 1e-5, ("cdiag", b, a), ad.reshape(b, (6, 3)), v, w, v, w, v),
        ad.ssm_block(m, v, v, 1e-5, ("diag", w, v, w, v), w, v, w, v, w, v),
        ad.sum_(x) * ad.sum_(y),
    ]


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_every_primitive_stores_a_float64_ndarray(taped):
    rng = np.random.default_rng(5)
    x, y = param(rng.standard_normal(4)), param(rng.uniform(1, 2, 4))
    m, w, v = (param(rng.standard_normal(s)) for s in ((2, 3), (3, 3), (3,)))
    a, b = param(rng.uniform(-0.5, 0.5, (3, 2))), param(rng.standard_normal((3, 3, 2)))
    if taped:
        with Tape():
            outs = _every_primitive(x, y, m, w, v, a, b)
    else:
        outs = _every_primitive(x, y, m, w, v, a, b)
    for out in outs:
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64, out
    assert outs[12].data.shape == () and outs[-1].data.shape == ()


def test_negated_adjoint_sentinel_detected():
    """A wrong (negated) gradient must produce a relative error near 2."""
    rng = np.random.default_rng(12)
    p = param(rng.uniform(0.5, 1.5, (5,)))
    with Tape():
        grads = backward((p * p).sum(), [p])
    g = -grads[p].data  # planted bug
    h = 1e-5
    worst = 0.0
    for i in range(5):
        orig = p.data[i]
        p.data[i] = orig + h
        up = float((p.data**2).sum())
        p.data[i] = orig - h
        dn = float((p.data**2).sum())
        p.data[i] = orig
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(fd - g[i]) / (abs(g[i]) + 1e-8))
    assert worst > 1.9


def test_fd_check_perturbs_non_contiguous_parameters():
    # a transposed array has no flat view; both estimators must perturb it in place
    p = param(np.random.default_rng(0).uniform(0.5, 1.5, (4, 3)).T)
    assert not p.data.flags["C_CONTIGUOUS"]
    assert _fd(lambda: (p * p).sum(), [p]) < 1e-6
    assert _fd(lambda: (p * p).sum(), [p], rng=np.random.default_rng(0)) < 1e-6


def test_fd_check_reports_nonfinite():
    p = param(np.array([700.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            finite_difference_check(lambda: ad.exp(p * p).sum(), [p])


# --- directional finite differences (one random direction per tensor) ------------


def _affine_sigmoid_loss(seed=0):
    rng = np.random.default_rng(seed)
    w = param(rng.standard_normal((3, 4)))
    b = param(rng.standard_normal(4))
    x = Tensor(rng.standard_normal((5, 3)))
    return (lambda: ad.sigmoid(ad.affine(x, w, b)).sum()), [w, b]


def test_directional_fd_accepts_correct_gradient():
    f, ps = _affine_sigmoid_loss()
    for seed in range(3):
        assert _fd(f, ps, rng=np.random.default_rng(seed)) < 1e-6


def test_directional_fd_rejects_sign_flip():
    p = param(np.array([0.7, -0.3]))
    err = _fd(lambda: (p.detach() * 2.0 - p).sum(), [p], rng=np.random.default_rng(11))
    assert err > 1.0


def test_directional_fd_detects_one_wrong_coordinate():
    p = param(np.array([0.4, -0.7, 1.1, 0.25]))
    first = np.array([1.0, 0.0, 0.0, 0.0])

    def loss():
        # the analytic gradient of coordinate 0's linear term has the wrong sign
        return (p * p).sum() + (p.detach() * first * 2.0 - p * first).sum()

    for seed in range(10):
        assert _fd(loss, [p], rng=np.random.default_rng(seed)) > 1e-4, seed


def test_directional_fd_restores_parameters_bit_exactly():
    f, ps = _affine_sigmoid_loss(seed=3)
    arrays = [p.data for p in ps]
    before = [a.copy() for a in arrays]
    _fd(f, ps, rng=np.random.default_rng(0))
    for p, a, want in zip(ps, arrays, before):
        assert p.data is a  # restored in place, not rebound
        np.testing.assert_array_equal(p.data, want)


def test_directional_fd_reports_nonfinite_perturbed_loss(monkeypatch):
    # exp(26^2) is finite; a step of 1 in either direction of the one
    # coordinate reaches exp(25^2) and the overflowing exp(27^2)
    monkeypatch.setattr(ad, "_FD_STEP", 1.0)
    p = param(np.array([26.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="random direction"):
            _fd(lambda: ad.exp(p * p).sum(), [p], rng=np.random.default_rng(0))


def test_softmax_ce_uniform_is_log_c():
    logits = Tensor(np.zeros((5, 7)))
    loss = ad.softmax_cross_entropy(logits, np.zeros(5, dtype=int))
    np.testing.assert_allclose(loss.data, np.log(7.0), rtol=0, atol=1e-12)


def test_softmax_ce_decays_with_confidence():
    labels = np.array([1])
    losses = []
    for scale in (1.0, 10.0, 100.0):
        logits = Tensor(np.array([[0.0, scale, 0.0]]))
        losses.append(ad.softmax_cross_entropy(logits, labels).item())
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-10
