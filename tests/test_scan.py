"""Scan kernel tests: the kernel is audited against the sequential oracle.

Every shape here is time-first: b is [T, *lead, n(, 2)].
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopseq import scan
from loopseq.errors import EmptySequenceError, ShapeError
from loopseq.scan import (
    ScanElement,
    pair_mul,
    scan_backward,
    scan_linear,
    scan_sequential,
)


def _random_elem(kind, T, n, rng, lead=(), amax=0.99):
    shape = (T, *lead, n)
    if kind == "diag":
        a = rng.uniform(-amax, amax, shape)
        b = rng.standard_normal(shape)
    elif kind == "cdiag":
        mag = rng.uniform(0.0, amax, shape)
        ang = rng.uniform(0.0, 2 * np.pi, shape)
        a = np.stack([mag * np.cos(ang), mag * np.sin(ang)], axis=-1)
        b = rng.standard_normal(shape + (2,))
    else:
        # contractions: random 2x2 scaled under unit spectral norm
        a = rng.standard_normal(shape + (2, 2))
        a *= amax / np.linalg.norm(a, ord=2, axis=(-2, -1), keepdims=True)
        b = rng.standard_normal(shape + (2,))
    return ScanElement(a, b, kind)


def _loop_reference(elem):
    """Independent oracle: plain python loop, no shared kernel code."""
    a, b, kind = elem.a, elem.b, elem.kind
    per_step = a.ndim == b.ndim + (kind == "mat2")
    x = np.zeros(b.shape[1:])
    out = []
    for t in range(b.shape[0]):
        at = a[t] if per_step else a
        if kind == "diag":
            x = at * x + b[t]
        elif kind == "cdiag":
            zr = at[..., 0] * x[..., 0] - at[..., 1] * x[..., 1]
            zi = at[..., 0] * x[..., 1] + at[..., 1] * x[..., 0]
            x = np.stack([zr, zi], axis=-1) + b[t]
        else:
            x = np.einsum("...ij,...j->...i", at, x) + b[t]
        out.append(x)
    return np.stack(out)


# --- trivial anchors ---------------------------------------------------------


def test_zero_a_returns_b():
    b = np.arange(12.0).reshape(4, 3)
    elem = ScanElement(np.zeros((4, 3)), b, "diag")
    np.testing.assert_array_equal(scan_linear(elem), b)
    np.testing.assert_array_equal(scan_sequential(elem), b)


def test_unit_a_cumulative_sum():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((16, 5))
    elem = ScanElement(np.ones((16, 5)), b, "diag")
    np.testing.assert_allclose(scan_linear(elem), np.cumsum(b, axis=0), rtol=0, atol=1e-12)


def test_single_step_is_b():
    rng = np.random.default_rng(1)
    elem = _random_elem("cdiag", 1, 4, rng)
    np.testing.assert_array_equal(scan_linear(elem), elem.b)


# --- kernel vs sequential oracle ---------------------------------------------


@pytest.mark.parametrize("kind", ["diag", "cdiag", "mat2"])
@pytest.mark.parametrize("T", [1, 2, 3, 7, 64, 1024])
def test_parallel_matches_sequential(kind, T):
    """The kernel against the oracle; the name predates the removal of the parallel sweep."""
    rng = np.random.default_rng(42)
    elem = _random_elem(kind, T, 8, rng, lead=(2,))
    got = scan_linear(elem)
    seq = scan_sequential(elem)
    ref = _loop_reference(elem)
    scale = np.abs(ref).max() + 1e-12
    assert np.abs(got - seq).max() / scale < 1e-10
    assert np.abs(seq - ref).max() / scale < 1e-12


@pytest.mark.parametrize("kind", ["diag", "cdiag", "mat2"])
def test_long_sequence_equivalence(kind):
    rng = np.random.default_rng(7)
    elem = _random_elem(kind, 1751, 16, rng)
    got = scan_linear(elem)
    seq = scan_sequential(elem)
    scale = np.abs(seq).max() + 1e-12
    assert np.abs(got - seq).max() / scale < 1e-9


def test_time_invariant_a_broadcasts():
    rng = np.random.default_rng(3)
    a = np.stack([rng.uniform(0, 0.9, 6), rng.uniform(-1, 1, 6)], axis=-1)  # [n, 2]
    b = rng.standard_normal((20, 3, 6, 2))
    elem = ScanElement(a, b, "cdiag")
    full = ScanElement(np.broadcast_to(a, (20, 3, 6, 2)).copy(), b, "cdiag")
    np.testing.assert_array_equal(scan_linear(elem), scan_linear(full))


def test_determinism_bitwise():
    rng = np.random.default_rng(9)
    elem = _random_elem("mat2", 400, 8, rng)
    x1 = scan_linear(elem)
    x2 = scan_linear(elem)
    assert (x1 == x2).all()


_A_TAIL = {"diag": (), "cdiag": (2,), "mat2": (2, 2)}


@pytest.mark.parametrize("kind", ["diag", "cdiag", "mat2"])
@pytest.mark.parametrize("a_lead", [()], ids=["shared"])
def test_time_invariant_a_bit_identical_to_materialised(kind, a_lead, monkeypatch):
    """A shared factor takes the same arithmetic as one expanded over batch and time.

    Its da is the materialised factor's da summed over (time, batch), bit for
    bit, whether the chunked sum takes one chunk (T * B = 51), several plus a
    remainder (3.5 chunks at B = 4, so boundaries split a time step), or one
    row per chunk, fewer than a time step holds.
    """
    rng = np.random.default_rng(31)
    n = 5
    row_bytes = 8 * n * {"diag": 1, "cdiag": 2, "mat2": 4}[kind]
    several = 7 * scan._DA_CHUNK_BYTES // (2 * row_bytes * 4) + 1
    for B, T, chunk in ((3, 17, None), (4, several, None), (4, 17, row_bytes)):
        if chunk is not None:
            monkeypatch.setattr(scan, "_DA_CHUNK_BYTES", chunk)
        elem = _random_elem(kind, T, n, rng, lead=(B,))
        a = _random_elem(kind, 1, n, rng, lead=a_lead).a[0]  # (n, ...): no time axis
        full = np.ascontiguousarray(np.broadcast_to(a, (T, B, n) + _A_TAIL[kind]))
        inv = ScanElement(a, elem.b, kind)
        mat = ScanElement(full, elem.b, kind)
        x_inv, x_mat = scan_linear(inv), scan_linear(mat)
        np.testing.assert_array_equal(x_inv, x_mat)
        g = rng.standard_normal(elem.b.shape)
        da_inv, db_inv = scan_backward(inv, x_inv, g)
        da_mat, db_mat = scan_backward(mat, x_mat, g)
        np.testing.assert_array_equal(db_inv, db_mat)
        assert da_inv.shape == a.shape
        assert da_inv.tobytes() == da_mat.sum(axis=(0, 1)).tobytes(), f"B, T = {B}, {T}"


@pytest.mark.parametrize("kind", ["diag", "cdiag", "mat2"])
@pytest.mark.parametrize("layout", ["shared", "per-step"])
def test_adjoints_come_in_input_shapes(kind, layout):
    rng = np.random.default_rng(33)
    elem = _random_elem(kind, 6, 4, rng, lead=(2,))
    if layout == "shared":
        elem = ScanElement(elem.a[0, 0], elem.b, kind)
    da, db = scan_backward(elem, scan_linear(elem), rng.standard_normal(elem.b.shape))
    assert da.shape == elem.a.shape
    assert db.shape == elem.b.shape


_BROADCASTS = ("per-step", "shared")


def _broadcast_a(a, pattern, n_lead):
    """Cut a [T, *lead, n, ...] factor down to one of the accepted layouts."""
    if pattern == "shared":
        return a[(0,) * (n_lead + 1)]
    return a


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["diag", "cdiag", "mat2"]),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(1, 9),
    st.sampled_from(_BROADCASTS),
)
def test_kernel_matches_loop_reference_property(seed, kind, lead, T, pattern):
    rng = np.random.default_rng(seed)
    lead = tuple(lead)
    elem = _random_elem(kind, T, 3, rng, lead=lead)
    a = _broadcast_a(elem.a, pattern, len(lead))
    got = scan_linear(ScanElement(a, elem.b, kind))
    full = np.broadcast_to(a, elem.a.shape)
    ref = _loop_reference(ScanElement(full, elem.b, kind))
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
    # db applies the transpose of the linear map b -> x: <g, x(probe)> = <db, probe>
    g = rng.standard_normal(elem.b.shape)
    probe = rng.standard_normal(elem.b.shape)
    _, db = scan_backward(ScanElement(a, elem.b, kind), got, g)
    lhs = float((g * scan_linear(ScanElement(a, probe, kind))).sum())
    assert abs(lhs - float((db * probe).sum())) <= 1e-10 * (abs(lhs) + 1.0)


def test_worms_scale_memory_is_bounded():
    """No padding, no time-expanded factor and no full-shape da: peaks stay a small multiple of b."""
    rng = np.random.default_rng(37)
    a = np.stack([rng.uniform(0.5, 0.99, 64), rng.uniform(-0.1, 0.1, 64)], axis=-1)
    b = rng.standard_normal((17984, 1, 64, 2))
    elem = ScanElement(a, b, "cdiag")
    tracemalloc.start()
    try:
        states = scan_linear(elem)
        fwd_peak = tracemalloc.get_traced_memory()[1]
        g = rng.standard_normal(b.shape)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        scan_backward(elem, states, g)
        bwd_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fwd_peak <= 2 * b.nbytes, f"forward peak {fwd_peak / b.nbytes:.2f}x b"
    # db and one da chunk: measured 1.06 and pinned 0.46 above; a da over the
    # whole [T, B, n, 2] shape adds 1.0
    assert bwd_peak <= 1.52 * b.nbytes, f"backward peak {bwd_peak / b.nbytes:.2f}x b"


def _pinned_reference(a, b, g, kind, shared):
    """States and adjoints by a plain loop in the kernel's exact association.

    x_0 = b_0 and x_t = f_t . x_{t-1} + b_t, with f . x one complex multiply
    ("cdiag") or (a_i0 x_0 + a_i1 x_1) ("mat2"); the adjoint runs the same
    loop backwards on the transposed (conjugate) factor, and a shared da
    is the full-shape da summed over (T, *lead).
    """
    if kind == "cdiag":  # exact complex views of the pairs
        a, b, g = (np.ascontiguousarray(z).view(np.complex128)[..., 0] for z in (a, b, g))
    at = a if not shared else np.broadcast_to(a, b.shape + (2,) * (kind == "mat2"))
    T = b.shape[0]

    def apply(f, x):
        if kind == "mat2":
            return f[..., :, 0] * x[..., :1] + f[..., :, 1] * x[..., 1:]
        return f * x

    adj = np.conj(at) if kind == "cdiag" else np.swapaxes(at, -1, -2) if kind == "mat2" else at
    xs, lams = [b[0]], [g[T - 1]]
    for t in range(1, T):
        xs.append(apply(at[t], xs[-1]) + b[t])
        lams.append(apply(adj[T - t], lams[-1]) + g[T - 1 - t])
    x, lam = np.stack(xs), np.stack(lams[::-1])
    da = np.zeros(at.shape, at.dtype)
    if kind == "mat2":
        da[1:] = lam[1:, ..., :, None] * x[:-1, ..., None, :]
    else:
        da[1:] = (np.conj(x[:-1]) if kind == "cdiag" else x[:-1]) * lam[1:]
    if shared:
        da = da.sum(axis=tuple(range(b.ndim - 1 - (kind == "mat2"))))  # (T, *lead)
    out = [x, da, lam]
    if kind == "cdiag":
        out = [np.stack([z.real, z.imag], axis=-1) for z in out]
    return out


# long rows: at n = 3, 342 lead elements take 8208 bytes per step ("diag")
# or 16416 ("cdiag", "mat2"), as a Heartbeat-shape step's rows do
_LONG = (342,)


@pytest.mark.parametrize("T", [1, 2, 17])
@pytest.mark.parametrize("lead", [(), (1,), (4,), (2, 3), _LONG], ids=["none", "1", "4", "2x3", "long"])
@pytest.mark.parametrize("layout", ["shared", "per-step"])
@pytest.mark.parametrize("kind", ["diag", "cdiag", "mat2"])
def test_kernel_bits_and_inputs_are_pinned(kind, layout, lead, T):
    """The kernel equals the pinned loop bit for bit and leaves its inputs untouched.

    The kernel reads b's and g's rows in place, so an in-place slip would
    write through to them; `_LONG` gives long rows.
    """
    rng = np.random.default_rng(41)
    elem = _random_elem(kind, T, 3, rng, lead=lead)
    a = elem.a[(0,) * (len(lead) + 1)] if layout == "shared" else elem.a
    elem = ScanElement(a, elem.b, kind)
    g = rng.standard_normal(elem.b.shape)
    before = [z.copy() for z in (a, elem.b, g)]
    x = scan_linear(elem)
    states = x.copy()
    da, db = scan_backward(elem, x, g)
    for z, z0 in zip((a, elem.b, g, x), before + [states]):
        assert z.tobytes() == z0.tobytes()
    assert not any(np.shares_memory(out, z) for out in (x, da, db) for z in (a, elem.b, g))
    for got, want in zip((x, da, db), _pinned_reference(a, elem.b, g, kind, layout == "shared")):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


# --- oracle arithmetic --------------------------------------------------------


@pytest.mark.parametrize("layout", ["shared", "per-step"])
@pytest.mark.parametrize("kind", ["diag", "cdiag", "mat2"])
def test_joint_chunks_keep_the_whole_scan_bits(kind, layout):
    """Two recurrences side by side in a `Joint`, scanned in chunks (each started
    from the last state before it, `fold_carry`) and back in reverse (each chunk's
    last cotangent row plus the state adjoint the chunk after it handed back,
    `carry_back`, and its first da product from the state before it,
    `add_prev_product`), give the states and db of one
    scan of each over the whole sequence bit for bit, and a per-step da too; a
    shared da, summed a chunk at a time, differs by rounding only."""
    rng = np.random.default_rng(43)
    T, lead, widths = 23, (3,), [2, 3]
    elems = [_random_elem(kind, T, w, rng, lead=lead) for w in widths]
    if layout == "shared":
        elems = [ScanElement(e.a[0, 0], e.b, kind) for e in elems]
    gs = [rng.standard_normal(e.b.shape) for e in elems]
    whole = []
    for e, g in zip(elems, gs):
        x = scan_linear(e)
        whole.append((x, *scan_backward(e, x, g)))
    chunks = [slice(0, 7), slice(7, 14), slice(14, 21), slice(21, 23)]

    def joint_at(sl):
        factors = [e.a for e in elems] if layout == "shared" else None
        joint = scan.Joint(kind, (sl.stop - sl.start, *lead), widths, factors)
        for part, e in zip(joint.parts, elems):
            part.b[...] = e.b[sl]
            if layout == "per-step":
                part.a[...] = e.a[sl]
        return joint

    states, ends = [], [None]
    for sl in chunks:
        joint = joint_at(sl)
        if ends[-1] is not None:
            for part, end in zip(joint.parts, joint.split(ends[-1][None])):
                scan.fold_carry(part, end[0])
        states.append(scan_linear(joint.elem))
        ends.append(states[-1][-1])
        for got, (x, _, _) in zip(joint.split(states[-1]), whole):
            np.testing.assert_array_equal(got, x[sl])
    da_sums, handed = [0.0, 0.0], None
    for c in reversed(range(len(chunks))):
        sl, joint = chunks[c], joint_at(chunks[c])
        g = np.concatenate([g[sl] for g in gs], axis=len(lead) + 1)
        if handed is not None:
            g[-1] += handed
        da, db = scan_backward(joint.elem, states[c], g)
        if ends[c] is not None:
            scan.add_prev_product(joint.elem, ends[c], db, da)
        handed = scan.carry_back(joint.elem, db)
        for i, (part_da, part_db, (_, da_whole, db_whole)) in enumerate(
            zip(joint.split(da, 0 if layout == "shared" else None), joint.split(db), whole)
        ):
            np.testing.assert_array_equal(part_db, db_whole[sl])
            if layout == "per-step":
                np.testing.assert_array_equal(part_da, da_whole[sl])
            else:
                da_sums[i] = da_sums[i] + part_da
    if layout == "shared":
        for got, (_, da_whole, _) in zip(da_sums, whole):
            np.testing.assert_allclose(got, da_whole, rtol=1e-13, atol=1e-13)


def test_pair_mul_matches_complex():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((10, 2))
    w = rng.standard_normal((10, 2))
    zc = z[..., 0] + 1j * z[..., 1]
    wc = w[..., 0] + 1j * w[..., 1]
    got = pair_mul(z, w)
    np.testing.assert_allclose(got[..., 0] + 1j * got[..., 1], zc * wc, rtol=1e-15, atol=0)


# --- adjoints ----------------------------------------------------------------


def _assert_backward_matches_fd(elem, rng, samples=40):
    """Check scan_backward against central differences of L = sum(w * x)."""
    w = rng.standard_normal(elem.b.shape)
    da, db = scan_backward(elem, scan_linear(elem), w)
    h = 1e-6
    for arr, grad in ((elem.a, da), (elem.b, db)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        idx = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            up = float((w * scan_linear(elem)).sum())
            flat[i] = orig - h
            dn = float((w * scan_linear(elem)).sum())
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            assert abs(fd - gflat[i]) / (abs(gflat[i]) + 1e-8) < 1e-4


@pytest.mark.parametrize("kind", ["diag", "cdiag", "mat2"])
def test_scan_backward_matches_finite_differences(kind):
    rng = np.random.default_rng(21)
    _assert_backward_matches_fd(_random_elem(kind, 9, 3, rng), rng)


@pytest.mark.parametrize("kind", ["diag", "cdiag", "mat2"])
@pytest.mark.parametrize("T", [1, 2])
def test_short_sequences_match_reference_and_fd(kind, T):
    rng = np.random.default_rng(29 + T)
    elem = _random_elem(kind, T, 3, rng, lead=(2,))
    ref = _loop_reference(elem)
    np.testing.assert_allclose(scan_linear(elem), ref, rtol=1e-14, atol=1e-14)
    _assert_backward_matches_fd(elem, rng, samples=100)


def test_scan_backward_time_invariant_a_reduces():
    rng = np.random.default_rng(23)
    a = rng.uniform(-0.9, 0.9, (5,))
    b = rng.standard_normal((12, 5))
    elem = ScanElement(a, b, "diag")
    states = scan_linear(elem)
    w = rng.standard_normal(b.shape)
    da, _ = scan_backward(elem, states, w)
    # the kernel reduces over time; check against full-materialized grads
    full = ScanElement(np.broadcast_to(a, (12, 5)).copy(), b, "diag")
    da_ref, _ = scan_backward(full, scan_linear(full), w)
    np.testing.assert_array_equal(da, da_ref.sum(axis=0))


# --- contracts ----------------------------------------------------------------


def test_empty_sequence_rejected():
    with pytest.raises(EmptySequenceError):
        scan_linear(ScanElement(np.ones((0, 3)), np.ones((0, 3)), "diag"))


def test_mismatched_widths_rejected():
    with pytest.raises(ShapeError):
        scan_linear(ScanElement(np.ones((4, 5)), np.ones((4, 3)), "diag"))


def test_unknown_kind_rejected():
    with pytest.raises(ShapeError):
        ScanElement(np.ones((4, 3)), np.ones((4, 3)), "block")


def test_missing_pair_axis_rejected():
    with pytest.raises(ShapeError):
        scan_linear(ScanElement(np.ones((4, 3, 2)), np.ones((4, 3)), "cdiag"))


@pytest.mark.parametrize(
    "a_shape",
    [(4, 3), (4, 5, 2, 3), (3, 1, 3), (1, 2, 3), (1, 1, 3), (1, 3), (5, 3), (5, 1, 3)],
    ids=["time", "extra-lead", "batch", "per-batch", "unit-time-under-lead", "unit-time",
         "per-step-no-lead", "unit-lead"],
)
def test_unbroadcastable_a_rejected(a_shape):
    """`a` is shared (n,) or per-step b.shape; every other layout is refused."""
    with pytest.raises(ShapeError):
        scan_linear(ScanElement(np.ones(a_shape), np.ones((5, 2, 3)), "diag"))


def test_mismatched_cotangent_rejected():
    elem = ScanElement(np.ones(3), np.ones((5, 3)), "diag")
    with pytest.raises(ShapeError):
        scan_backward(elem, scan_linear(elem), np.ones((4, 3)))
