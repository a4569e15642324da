"""Vectorization operators: contraction identities, roundtrips, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qtsvm.errors import InvalidInputError
from qtsvm.lifting import (
    LiftingMode,
    dvec,
    hvec,
    lift_matrix,
    lifted_dim,
    lvec,
    pack_weights,
    qvec,
    unpack_weights,
)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return A + A.T


def test_hvec_known_example():
    A = np.array([[1.0, 2.0], [2.0, 5.0]])
    np.testing.assert_array_equal(hvec(A), [1.0, 2.0, 5.0])


def test_lvec_known_example():
    x = np.array([2.0, 3.0])
    # [x1^2/2, x1 x2, x2^2/2] in hvec ordering.
    np.testing.assert_allclose(lvec(x), [2.0, 6.0, 4.5])


def test_qvec_known_example():
    np.testing.assert_allclose(qvec(np.array([2.0, -3.0])), [2.0, 4.5])


def test_dvec_known_example():
    np.testing.assert_array_equal(dvec(np.diag([3.0, -1.0])), [3.0, -1.0])


def test_hvec_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        hvec(np.array([[1.0, 2.0], [2.1, 1.0]]))


def test_hvec_rejects_nonsquare():
    with pytest.raises(InvalidInputError):
        hvec(np.ones((2, 3)))


def test_hvec_accepts_asymmetry_within_tolerance():
    A = np.array([[1.0, 2.0], [2.0 + 1e-11, 1.0]])
    assert hvec(A).shape == (3,)


def test_dvec_rejects_nondiagonal():
    with pytest.raises(InvalidInputError):
        dvec(np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_lvec_rejects_matrix_input():
    with pytest.raises(InvalidInputError):
        lvec(np.ones((2, 2)))


def test_lifted_dim():
    assert lifted_dim(2, LiftingMode.FULL) == 6
    assert lifted_dim(2, LiftingMode.REDUCED) == 5
    for n in range(1, 9):
        assert lifted_dim(n, LiftingMode.FULL) == (n * n + 3 * n + 2) // 2
        assert lifted_dim(n, LiftingMode.REDUCED) == 2 * n + 1


def test_contraction_identity_randomized():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        W = random_symmetric(rng, n)
        x = rng.standard_normal(n)
        quad = 0.5 * x @ W @ x
        assert abs(hvec(W) @ lvec(x) - quad) <= 1e-12 * (1 + abs(quad))


def test_contraction_identity_reduced_randomized():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        D = np.diag(rng.standard_normal(n))
        x = rng.standard_normal(n)
        quad = 0.5 * x @ D @ x
        assert abs(dvec(D) @ qvec(x) - quad) <= 1e-12 * (1 + abs(quad))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_contraction_identity_property(data):
    n = data.draw(st.integers(1, 8))
    M = data.draw(arrays(float, (n, n), elements=finite))
    x = data.draw(arrays(float, (n,), elements=finite))
    W = M + M.T
    quad = 0.5 * x @ W @ x
    assert abs(hvec(W) @ lvec(x) - quad) <= 1e-9 * (1 + abs(quad))


def test_lift_layout():
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(lift_matrix(x, LiftingMode.FULL)[0],
                               [0.5, 2.0, 2.0, 1.0, 2.0, 1.0])
    np.testing.assert_allclose(lift_matrix(x, LiftingMode.REDUCED)[0],
                               [0.5, 2.0, 1.0, 2.0, 1.0])


def test_lift_matrix_matches_lift_rowwise():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((7, 4))
    for mode in LiftingMode:
        Z = lift_matrix(X, mode)
        assert Z.shape == (7, lifted_dim(4, mode))
        head = lvec if mode is LiftingMode.FULL else qvec
        for i, row in enumerate(X):
            np.testing.assert_allclose(Z[i], np.concatenate([head(row), row, [1.0]]))


def test_lift_matrix_last_column_is_one():
    Z = lift_matrix(np.random.default_rng(3).standard_normal((5, 3)))
    np.testing.assert_array_equal(Z[:, -1], np.ones(5))


@pytest.mark.parametrize("mode", list(LiftingMode))
def test_pack_unpack_roundtrip(mode):
    rng = np.random.default_rng(4)
    for n in (1, 2, 5):
        if mode is LiftingMode.FULL:
            W = random_symmetric(rng, n)
        else:
            W = np.diag(rng.standard_normal(n))
        b = rng.standard_normal(n)
        c = float(rng.standard_normal())
        w = pack_weights(W, b, c, mode)
        assert w.size == lifted_dim(n, mode)
        W2, b2, c2 = unpack_weights(w, n, mode)
        np.testing.assert_allclose(W2, W)
        np.testing.assert_allclose(b2, b)
        assert c2 == pytest.approx(c)


def test_unpack_rejects_wrong_length():
    with pytest.raises(InvalidInputError):
        unpack_weights(np.zeros(5), 2, LiftingMode.FULL)


def test_pack_evaluates_surface_via_lift():
    # The packed weight vector must reproduce 1/2 x'Wx + b'x + c on lifted x.
    rng = np.random.default_rng(5)
    W = random_symmetric(rng, 3)
    b = rng.standard_normal(3)
    c = 0.7
    w = pack_weights(W, b, c, LiftingMode.FULL)
    for _ in range(20):
        x = rng.standard_normal(3)
        expected = 0.5 * x @ W @ x + b @ x + c
        assert w @ lift_matrix(x)[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)
