"""Least-squares baseline: normal-equation oracle and optimizer cross-check."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from qtsvm import evaluation, solver_lsq
from qtsvm.data import Dataset, fit_scaler, gen_example1, gen_example3, scale_dataset
from qtsvm.errors import InvalidInputError, NumericError
from qtsvm.lifting import LiftingMode, lift_matrix
from qtsvm.model import predict_many
from qtsvm.solver_lsq import fit_lsq


def _lifted(d, mode=LiftingMode.FULL):
    scaled = scale_dataset(d, fit_scaler(d))
    return lift_matrix(scaled.X_pos, mode).T, lift_matrix(scaled.X_neg, mode).T


def test_matches_dense_normal_equations():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = Dataset(X_pos=rng.standard_normal((int(rng.integers(3, 9)), n)),
                    X_neg=rng.standard_normal((int(rng.integers(3, 9)), n)))
        C = 10.0 ** rng.integers(-2, 3)
        ridge = solver_lsq.RIDGE
        model = fit_lsq(d, C=C)
        Zp, Zm = _lifted(d)
        m_l = Zp.shape[0]
        Bp = Zp @ Zp.T + 2 * C * Zm @ Zm.T + ridge * np.eye(m_l)
        ref_p = np.linalg.solve(Bp, -2 * C * Zm.sum(axis=1))
        Bm = Zm @ Zm.T + 2 * C * Zp @ Zp.T + ridge * np.eye(m_l)
        ref_m = np.linalg.solve(Bm, 2 * C * Zp.sum(axis=1))
        np.testing.assert_allclose(model.w_pos, ref_p, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(model.w_neg, ref_m, rtol=1e-7, atol=1e-9)


def test_matches_numerical_minimizer(monkeypatch):
    # Independent oracle: minimize the quadratic objective
    # 1/2 ||Z_own' w||^2 + C ||e + Z_other' w||^2 + ridge/2 ||w||^2 directly.
    rng = np.random.default_rng(1)
    d = Dataset(X_pos=rng.standard_normal((6, 2)), X_neg=rng.standard_normal((5, 2)))
    C, ridge = 0.5, 1e-6
    monkeypatch.setattr(solver_lsq, "RIDGE", ridge)
    model = fit_lsq(d, C=C)
    Zp, Zm = _lifted(d)

    def obj_pos(w):
        return (0.5 * np.sum((Zp.T @ w) ** 2)
                + C * np.sum((1.0 + Zm.T @ w) ** 2)
                + 0.5 * ridge * w @ w)

    res = minimize(obj_pos, np.zeros(Zp.shape[0]), method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 10000})
    np.testing.assert_allclose(model.w_pos, res.x, rtol=1e-5, atol=1e-7)


def test_reduced_mode_is_axis_aligned():
    d = gen_example1(50, seed=2)
    model = fit_lsq(d, C=1.0, mode=LiftingMode.REDUCED)
    assert model.mode is LiftingMode.REDUCED
    # No cross terms: x1^2, x2^2, x1, x2 and 1.
    assert model.w_pos.shape == model.w_neg.shape == (5,)


def test_separates_clean_parabolas():
    for gen in (gen_example1, gen_example3):
        d = gen(100, seed=3)
        model = fit_lsq(d, C=1e-3)
        X, y = d.stacked()
        acc = float(np.mean(predict_many(model, X) == y))
        assert acc > 0.9


def test_deterministic():
    d = gen_example1(40, seed=4)
    m1 = fit_lsq(d, C=0.1)
    m2 = fit_lsq(d, C=0.1)
    np.testing.assert_array_equal(m1.w_pos, m2.w_pos)
    np.testing.assert_array_equal(m1.w_neg, m2.w_neg)


def test_class_swap_symmetry():
    d = gen_example3(40, seed=5)
    swapped = Dataset(X_pos=d.X_neg, X_neg=d.X_pos)
    m1 = fit_lsq(d, C=1.0)
    m2 = fit_lsq(swapped, C=1.0)
    np.testing.assert_allclose(m2.w_pos, -m1.w_neg, atol=1e-8)
    np.testing.assert_allclose(m2.w_neg, -m1.w_pos, atol=1e-8)


def test_input_validation():
    d = gen_example1(10, seed=6)
    with pytest.raises(InvalidInputError):
        fit_lsq(d, C=0.0)
    for C in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            fit_lsq(d, C=C)
    # Finite, but the solver's penalty 2C is not: the error names C, not c2.
    with pytest.raises(InvalidInputError, match="^C must"):
        fit_lsq(d, C=1e308)
    with pytest.raises(InvalidInputError):
        fit_lsq(Dataset(X_pos=np.zeros((0, 2)), X_neg=[[1.0, 2.0]]), C=1.0)


def test_singular_system_raises_numeric_error(monkeypatch):
    # Two samples per class span 4 of the 6 lifted dimensions, so with a
    # negligible ridge both systems are singular in floating point.  The
    # solve reports it rather than return a least-squares fallback.
    rng = np.random.default_rng(0)
    d = Dataset(X_pos=rng.standard_normal((2, 2)), X_neg=rng.standard_normal((2, 2)))
    monkeypatch.setattr(solver_lsq, "RIDGE", 1e-300)
    with pytest.raises(NumericError):
        fit_lsq(d, C=1.0)
    with pytest.raises(NumericError):
        evaluation.LSQTrainer().fit_split(d, ({"C": 1.0},), LiftingMode.FULL, None)
