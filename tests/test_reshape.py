"""Reshape tests: shape laws, index arithmetic, round trips, regime labels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopseq.errors import ConfigError, ContractError, ShapeError
from loopseq.reshape import reshape_forward, reshape_law
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
    assert reshape_law(1751, 2, 8) == ("low_dim_concat", 438, 2)
    assert reshape_forward(np.zeros((1751, 2)), 8).shape == (438, 8)

    assert reshape_law(405, 61, 8) == ("high_dim_flatten", 3089, 7)
    assert reshape_forward(np.zeros((405, 61)), 8).shape == (3089, 8)


@pytest.mark.parametrize("name,shape", list(CORPUS_SHAPES.items()))
@pytest.mark.parametrize("c", [1, 8, 16])
def test_shape_law_on_corpus_shapes(name, shape, c):
    T, w = shape
    regime, n_rows, pad = reshape_law(T, w, c)
    rows, width = reshape_forward(np.zeros((T, w)), c).shape
    assert rows == n_rows
    assert rows * width == T * w + pad
    assert 0 <= pad < max(c, 2)  # pad < c; identity pads zero
    if c == 1:
        assert regime == "identity"
        assert (rows, width) == (T, w)


def test_identity_returns_input_bitwise():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((11, 5))
    assert reshape_law(11, 5, 1) == ("identity", 11, 0)
    assert reshape_forward(x, 1) is x
    assert reshape_inverse(x, 11, 5, 1) is x


def test_low_dim_concat_is_timestep_concatenation():
    """Index oracle: row i holds q = c/w consecutive steps, time-major."""
    rng = np.random.default_rng(1)
    T, w, c = 13, 3, 6
    x = rng.standard_normal((T, w))
    regime, rows, _ = reshape_law(T, w, c)
    assert regime == "low_dim_concat"
    y = reshape_forward(x, c)
    for i in range(rows):
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
    _, rows, pad = reshape_law(T, w, c)
    y = reshape_forward(x, c)
    assert y.shape == (rows, c if c > 1 else w)  # rows = T at c = 1
    assert y.shape[0] * y.shape[1] == T * w + pad
    assert 0 <= pad < max(c, 2)
    back = reshape_inverse(y, T, w, c)
    np.testing.assert_array_equal(back, x)


def test_batched_reshape_matches_per_example():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 10, 3))
    Y = reshape_forward(X, 8)
    assert Y.shape == (4, 4, 8)
    for i in range(4):
        np.testing.assert_array_equal(Y[i], reshape_forward(X[i], 8))
    np.testing.assert_array_equal(reshape_inverse(Y, 10, 3, 8), X)


def test_tampered_padding_is_rejected():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3))
    assert reshape_law(5, 3, 4)[2] == 1
    y = reshape_forward(x, 4).copy()
    y[-1, -1] = 1e-9
    with pytest.raises(ContractError):
        reshape_inverse(y, 5, 3, 4)


def test_wrong_shape_rejected():
    with pytest.raises(ShapeError):
        reshape_forward(np.zeros(15), 4)
    with pytest.raises(ShapeError):
        reshape_inverse(np.zeros((3, 4)), 5, 3, 4)


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
    got, _, pad = reshape_law(T, w, c)
    assert got == regime
    x = np.random.default_rng(5).standard_normal((T, w))
    y = reshape_forward(x, c)
    if c == 1:
        assert y is x
    else:
        np.testing.assert_array_equal(y, np.pad(x.ravel(), (0, pad)).reshape(-1, c))


def test_bad_concentration_rejected():
    with pytest.raises(ConfigError):
        reshape_law(10, 3, 0)
    with pytest.raises(ConfigError):
        reshape_forward(np.zeros((10, 3)), 0)
    for T, w in ((0, 3), (10, 0)):
        with pytest.raises(ConfigError):
            reshape_law(T, w, 4)
