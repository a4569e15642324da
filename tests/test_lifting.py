"""Vectorization operators: contraction identities, roundtrips, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qtsvm.data import NormalizationParams, gen_example1
from qtsvm.errors import InvalidInputError
from qtsvm.evaluation import CL1Trainer, CvSpec, LSQTrainer, cross_validate
from qtsvm.lifting import LiftingMode, lift_matrix, lifted_dim, lifting_mode, unpack_weights
from qtsvm.model import TrainedModel, load_model, save_model
from qtsvm.solver_cl1 import SolverConfig, fit, fit_grid
from qtsvm.solver_lsq import fit_lsq

from oracles import (
    dvec_gather,
    full_head_outer,
    hvec_gather,
    lift_per_mode,
    reduced_head_halved,
    unpack_per_mode,
)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return A + A.T


def head(X, mode):
    """The head of each lifted row of X: lvec(x) (full) or qvec(x) (reduced)
    in the paper's notation, whose dot products with hvec(W) and dvec(D) are
    1/2 x'Wx and 1/2 x'Dx."""
    X = np.atleast_2d(X)
    return lift_matrix(X, mode)[:, : -X.shape[1] - 1]


# The known examples of the four heads, in the paper's names: hvec(W) and
# dvec(D) as unpack_weights reads them, lvec(x) and qvec(x) as lift_matrix
# writes them.


def test_hvec_known_example():
    W, _, _ = unpack_weights([1.0, 2.0, 5.0, 0.0, 0.0, 0.0], 2, LiftingMode.FULL)
    np.testing.assert_array_equal(W, [[1.0, 2.0], [2.0, 5.0]])


def test_lvec_known_example():
    x = np.array([2.0, 3.0])
    # [x1^2/2, x1 x2, x2^2/2] in hvec ordering.
    np.testing.assert_allclose(head(x, LiftingMode.FULL)[0], [2.0, 6.0, 4.5])


def test_qvec_known_example():
    np.testing.assert_allclose(head([2.0, -3.0], LiftingMode.REDUCED)[0], [2.0, 4.5])


def test_dvec_known_example():
    D, _, _ = unpack_weights([3.0, -1.0, 0.0, 0.0, 0.0], 2, LiftingMode.REDUCED)
    np.testing.assert_array_equal(D, [3.0, -1.0])


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
        assert abs(hvec_gather(W) @ head(x, LiftingMode.FULL)[0] - quad) <= 1e-12 * (1 + abs(quad))


def test_contraction_identity_reduced_randomized():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        D = np.diag(rng.standard_normal(n))
        x = rng.standard_normal(n)
        quad = 0.5 * x @ D @ x
        value = dvec_gather(D) @ head(x, LiftingMode.REDUCED)[0]
        assert abs(value - quad) <= 1e-12 * (1 + abs(quad))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_contraction_identity_property(data):
    n = data.draw(st.integers(1, 8))
    M = data.draw(arrays(float, (n, n), elements=finite))
    x = data.draw(arrays(float, (n,), elements=finite))
    W = M + M.T
    quad = 0.5 * x @ W @ x
    assert abs(hvec_gather(W) @ head(x, LiftingMode.FULL)[0] - quad) <= 1e-9 * (1 + abs(quad))


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
        oracle = full_head_outer if mode is LiftingMode.FULL else reduced_head_halved
        for i, row in enumerate(X):
            np.testing.assert_allclose(Z[i], np.concatenate([oracle(row)[0], row, [1.0]]))


def test_lift_matrix_last_column_is_one():
    Z = lift_matrix(np.random.default_rng(3).standard_normal((5, 3)))
    np.testing.assert_array_equal(Z[:, -1], np.ones(5))


@pytest.mark.parametrize("mode", list(LiftingMode))
def test_pack_unpack_roundtrip(mode):
    rng = np.random.default_rng(4)
    for n in (1, 2, 5):
        if mode is LiftingMode.FULL:
            W = random_symmetric(rng, n)
            gather = hvec_gather
        else:
            W = np.diag(rng.standard_normal(n))
            gather = dvec_gather
        b = rng.standard_normal(n)
        c = float(rng.standard_normal())
        w = np.concatenate([gather(W), b, [c]])
        assert w.size == lifted_dim(n, mode)
        W2, b2, c2 = unpack_weights(w, n, mode)
        # Under reduced lifting W comes back as its diagonal.
        np.testing.assert_allclose(W2, W if mode is LiftingMode.FULL else np.diag(W))
        np.testing.assert_allclose(b2, b)
        assert c2 == pytest.approx(c)


def test_unpack_rejects_wrong_length():
    with pytest.raises(InvalidInputError):
        unpack_weights(np.zeros(5), 2, LiftingMode.FULL)


def test_pack_evaluates_surface_via_lift():
    # The weight vector [hvec(W); b; c] must reproduce 1/2 x'Wx + b'x + c on
    # lifted x.
    rng = np.random.default_rng(5)
    W = random_symmetric(rng, 3)
    b = rng.standard_normal(3)
    c = 0.7
    w = np.concatenate([hvec_gather(W), b, [c]])
    for _ in range(20):
        x = rng.standard_normal(3)
        expected = 0.5 * x @ W @ x + b @ x + c
        assert w @ lift_matrix(x)[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


# --- one index set per mode, bit for bit the per-mode formulas ------------

# The lifting halves a square after the product, (x x) 0.5, in both modes;
# the reduced oracle halves x first, (0.5 x) x.  The two round alike unless
# x^2 / 2 is subnormal, so for every |x| >= 2^-510.5 = 2.11e-154, and scaled
# features lie in [-1, 1].
SMALLEST = 2.2e-154


def _entries(rng, shape):
    """Signed magnitudes log-uniform over [SMALLEST, 1e3], a fifth of them
    exact zeros."""
    x = 10.0 ** rng.uniform(np.log10(SMALLEST), 3.0, shape) * rng.choice([-1.0, 1.0], shape)
    x[rng.random(shape) < 0.2] = 0.0
    return x


@pytest.mark.parametrize("n", range(1, 13))
def test_lifting_bytes_match_per_mode_formulas(n):
    rng = np.random.default_rng(n)
    X = _entries(rng, (9, n))
    X[0] = 0.0
    X[1] = SMALLEST
    for mode, full in ((LiftingMode.FULL, True), (LiftingMode.REDUCED, False)):
        assert lift_matrix(X, mode).tobytes() == lift_per_mode(X, full).tobytes()
    for x in X:
        assert head(x, LiftingMode.FULL).tobytes() == full_head_outer(x).tobytes()
        assert head(x, LiftingMode.REDUCED).tobytes() == reduced_head_halved(x).tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_weights_bytes_match_per_mode_gathers(n):
    rng = np.random.default_rng(100 + n)
    A = _entries(rng, (n, n))
    surfaces = ((A + A.T, True, hvec_gather), (np.diag(_entries(rng, n)), False, dvec_gather))
    for W, full, gather in surfaces:
        mode = LiftingMode.FULL if full else LiftingMode.REDUCED
        b, c = _entries(rng, n), float(_entries(rng, 1)[0])
        w = np.concatenate([gather(W), b, [c]])
        stack = np.stack([w, _entries(rng, w.size)])
        Ws, bs, cs = unpack_weights(stack, n, mode)
        for g, row in enumerate(stack):
            W1, b1, c1 = unpack_weights(row, n, mode)
            W0, b0, c0 = unpack_per_mode(row, n, full)
            # Under reduced lifting unpack_weights gives W as its diagonal.
            W0 = W0 if full else np.diag(W0).copy()
            assert (W1.tobytes(), b1.tobytes(), c1) == (W0.tobytes(), b0.tobytes(), c0)
            assert (Ws[g].tobytes(), bs[g].tobytes(), cs[g]) == (W0.tobytes(), b0.tobytes(), c0)
        np.testing.assert_array_equal(unpack_weights(w, n, mode)[0], W if full else np.diag(W))


@pytest.mark.parametrize("x", [1e-160, 1.5e-154, 2.0e-154, SMALLEST, 0.5, -3.0])
def test_reduced_head_is_full_diagonal(x):
    # The fold itself: the reduced lifting is the full lifting on W's
    # diagonal pairs, down to subnormal halved squares.
    X = np.array([[x, -x, 0.0]])
    full = lift_matrix(X, LiftingMode.FULL)[0, :6]
    assert full[[0, 3, 5]].tobytes() == lift_matrix(X, LiftingMode.REDUCED)[0, :3].tobytes()


@pytest.mark.parametrize("bad", ["x", "FULL", None, 1, ["full"]])
def test_unknown_modes_raise(bad):
    calls = [lambda: lifting_mode(bad), lambda: lifted_dim(2, bad),
             lambda: lift_matrix(np.ones((3, 2)), bad),
             lambda: unpack_weights(np.zeros(6), 2, bad),
             lambda: CvSpec(grid=({"C": 1.0},), mode=bad)]
    d = gen_example1(10, seed=0)
    calls += [lambda: fit(d, SolverConfig(), mode=bad), lambda: fit_lsq(d, 1.0, mode=bad),
              lambda: fit_grid(d, [SolverConfig()], bad)]
    for call in calls:
        with pytest.raises(InvalidInputError, match="unknown lifting mode"):
            call()


def _model_bytes(model):
    return [model.w_pos.tobytes(), model.w_neg.tobytes()]


@pytest.mark.parametrize("mode", list(LiftingMode))
def test_mode_values_fit_like_members(mode, tmp_path):
    d = gen_example1(30, seed=0)
    cfg = SolverConfig(c1=0.01, c2=0.01)
    by_value, by_member = fit(d, cfg, mode=mode.value)[0], fit(d, cfg, mode=mode)[0]
    assert by_value.mode is mode
    assert _model_bytes(by_value) == _model_bytes(by_member)
    for model, name in ((by_value, "value.json"), (by_member, "member.json")):
        save_model(model, tmp_path / name)
    assert (tmp_path / "value.json").read_bytes() == (tmp_path / "member.json").read_bytes()
    assert load_model(tmp_path / "value.json").mode is mode

    cfgs = [cfg, SolverConfig(c1=1.0, c2=0.1)]
    grids = [fit_grid(d, cfgs, m) for m in (mode.value, mode)]
    assert grids[0].mode is mode
    surfaces = [[g.pos.tobytes(), g.neg.tobytes()] for g in grids]
    assert surfaces[0] == surfaces[1]

    lsq = [fit_lsq(d, 1.0, mode=m) for m in (mode.value, mode)]
    assert lsq[0].mode is mode and _model_bytes(lsq[0]) == _model_bytes(lsq[1])

    for trainer, grid in ((CL1Trainer(), ({"c1": 0.01, "c2": 0.01}, {"c1": 1.0, "c2": 1.0})),
                          (LSQTrainer(), ({"C": 0.1}, {"C": 10.0}))):
        results = [cross_validate(d, trainer, CvSpec(folds=2, repeats=1, grid=grid, mode=m))
                   for m in (mode.value, mode)]
        assert results[0] == results[1]


def test_reduced_model_rejects_off_diagonal_surface():
    # The full weight vector of an off-diagonal W is too long for a reduced
    # model.
    W = np.array([[1.0, 0.5], [0.5, 2.0]])
    w = np.concatenate([hvec_gather(W), np.zeros(2), [0.0]])
    scaler = NormalizationParams(minimum=np.zeros(2), maximum=np.ones(2))
    model = TrainedModel(w, w, mode="full", scaler=scaler)
    assert model.mode is LiftingMode.FULL and model.n == 2
    with pytest.raises(InvalidInputError, match=r"expected \(5,\) for n=2 in reduced mode"):
        TrainedModel(w, w, mode=LiftingMode.REDUCED, scaler=scaler)
    with pytest.raises(InvalidInputError, match="unknown lifting mode"):
        TrainedModel(w, w, mode="x", scaler=scaler)
