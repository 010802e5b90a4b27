"""Reshape tests: shape laws, index arithmetic, round trips, regime labels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopseq.errors import ConfigError, ContractError, ShapeError
from loopseq.reshape import ReshapeSpec, make_spec, reshape_forward
from reshape_oracle import reshape_inverse

# (T, w) of the six canonical corpus shapes
CORPUS_SHAPES = {
    "Ethanol": (1751, 2),
    "Worms": (17984, 6),
    "SCP1": (896, 6),
    "SCP2": (1152, 7),
    "Heartbeat": (405, 61),
    "Motor": (3000, 63),
}


def test_known_instances():
    spec = make_spec(1751, 2, 8)
    assert spec.regime == "low_dim_concat"
    assert (spec.rows, spec.concentration) == (438, 8)
    assert spec.pad_count == 2

    spec = make_spec(405, 61, 8)
    assert spec.regime == "high_dim_flatten"
    assert (spec.rows, spec.concentration) == (3089, 8)
    assert spec.pad_count == 7


@pytest.mark.parametrize("name,shape", list(CORPUS_SHAPES.items()))
@pytest.mark.parametrize("c", [1, 8, 16])
def test_shape_law_on_corpus_shapes(name, shape, c):
    T, w = shape
    spec = make_spec(T, w, c)
    rows, width = spec.out_shape
    assert rows * width == T * w + spec.pad_count
    assert 0 <= spec.pad_count < max(c, 2)  # pad < c; identity pads zero
    if c == 1:
        assert spec.regime == "identity"
        assert spec.out_shape == (T, w)


def test_identity_returns_input_bitwise():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((11, 5))
    spec = make_spec(11, 5, 1)
    assert spec.regime == "identity"
    assert reshape_forward(x, spec) is x
    assert reshape_inverse(x, spec) is x


def test_low_dim_concat_is_timestep_concatenation():
    """Index oracle: row i holds q = c/w consecutive steps, time-major."""
    rng = np.random.default_rng(1)
    T, w, c = 13, 3, 6
    x = rng.standard_normal((T, w))
    spec = make_spec(T, w, c)
    assert spec.regime == "low_dim_concat"
    y = reshape_forward(x, spec)
    for i in range(spec.rows):
        for j in range(c):
            k = i * c + j
            if k < T * w:
                assert y[i, j] == x[k // w, k % w]
            else:
                assert y[i, j] == 0.0


@settings(max_examples=100, deadline=None)
@given(
    T=st.integers(1, 60),
    w=st.integers(1, 12),
    c=st.integers(1, 24),
    seed=st.integers(0, 2**31 - 1),
)
def test_roundtrip_and_conservation_property(T, w, c, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((T, w))
    spec = make_spec(T, w, c)
    y = reshape_forward(x, spec)
    assert y.shape == spec.out_shape
    assert spec.out_shape[0] * spec.out_shape[1] == T * w + spec.pad_count
    assert 0 <= spec.pad_count < max(c, 2)
    back = reshape_inverse(y, spec)
    np.testing.assert_array_equal(back, x)


def test_batched_reshape_matches_per_example():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 10, 3))
    spec = make_spec(10, 3, 8)
    Y = reshape_forward(X, spec)
    assert Y.shape == (4,) + spec.out_shape
    for i in range(4):
        np.testing.assert_array_equal(Y[i], reshape_forward(X[i], spec))
    np.testing.assert_array_equal(reshape_inverse(Y, spec), X)


def test_tampered_padding_is_rejected():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3))
    spec = make_spec(5, 3, 4)
    assert spec.pad_count == 1
    y = reshape_forward(x, spec).copy()
    y[-1, -1] = 1e-9
    with pytest.raises(ContractError):
        reshape_inverse(y, spec)


def test_wrong_shape_rejected():
    spec = make_spec(5, 3, 4)
    with pytest.raises(ShapeError):
        reshape_forward(np.zeros((5, 4)), spec)
    with pytest.raises(ShapeError):
        reshape_inverse(np.zeros((3, 4)), spec)


# --- regime labels ---------------------------------------------------------------


@pytest.mark.parametrize(
    "T,w,c,regime",
    [
        (10, 3, 1, "identity"),
        (405, 61, 1, "identity"),
        (1751, 2, 8, "low_dim_concat"),
        (17984, 6, 12, "low_dim_concat"),
        (405, 61, 61, "low_dim_concat"),
        (17984, 6, 8, "high_dim_flatten"),
        (405, 61, 8, "high_dim_flatten"),
        (10, 3, 2, "high_dim_flatten"),
    ],
)
def test_regime_label_follows_concentration(T, w, c, regime):
    """The label follows from c and w; every c > 1 runs the same flatten-pad-chunk."""
    spec = make_spec(T, w, c)
    assert spec.regime == regime
    x = np.random.default_rng(5).standard_normal((T, w))
    y = reshape_forward(x, spec)
    if c == 1:
        assert y is x
    else:
        np.testing.assert_array_equal(y, np.pad(x.ravel(), (0, spec.pad_count)).reshape(-1, c))


def test_bad_concentration_rejected():
    with pytest.raises(ConfigError):
        make_spec(10, 3, 0)
