"""Reweighted capped-L1 trainer: weight rule, closed-form updates,
branch equivalence, descent, stationarity, and fit-level invariants."""

import math

import numpy as np
import pytest

from qtsvm.data import Dataset, fit_scaler, gen_example1, gen_example3, scale_dataset
from qtsvm.errors import InvalidInputError
from qtsvm.lifting import LiftingMode, lift_matrix
from qtsvm.model import predict_many
from qtsvm.solver_cl1 import (
    WEIGHT_FLOOR,
    ReweightState,
    SolverConfig,
    _mixed_loss_sum,
    compute_weights_pos,
    fit,
)

from oracles import (
    capped_loss_sum,
    objective_at,
    solve_one,
    stationarity_residual_plus,
    weights_at,
)


def random_lifted_pair(rng, m_pos=None, m_neg=None, n=None):
    n = n or int(rng.integers(1, 4))
    m_pos = m_pos or int(rng.integers(3, 9))
    m_neg = m_neg or int(rng.integers(3, 9))
    Zp = lift_matrix(rng.standard_normal((m_pos, n))).T
    Zm = lift_matrix(rng.standard_normal((m_neg, n))).T
    return Zp, Zm


def dense_oracle(Z_own, Z_other, q, u, c1, c2, sign):
    """Independent dense solve of the weighted normal equations
    (Z_own Q Z_own' + c1 I + c2 Z_other U Z_other') w = sign c2 Z_other u."""
    B = Z_own @ np.diag(q) @ Z_own.T + c2 * Z_other @ np.diag(u) @ Z_other.T
    B += c1 * np.eye(Z_own.shape[0])
    return np.linalg.solve(B, sign * c2 * Z_other @ u)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SolverConfig(c1=0.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(cap_eps=-1.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(max_iter=0)
    # A non-integer budget once passed the check and failed in the loop.  A
    # bool is an int subclass, so an isinstance check alone passes True.
    for bad in (2.5, "3", math.nan, True, False):
        with pytest.raises(InvalidInputError):
            SolverConfig(max_iter=bad)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3

    with pytest.raises(InvalidInputError):
        SolverConfig(branch="fancy")
    # NaN compares False with everything; an infinite penalty diverges, and an
    # infinite cap makes the saturated loss inf - inf.
    for bad in [dict(c1=math.nan), dict(c2=math.nan), dict(cap_eps=math.nan), dict(c1=math.inf),
                dict(c2=math.inf), dict(c2=-math.inf), dict(cap_eps=math.inf)]:
        with pytest.raises(InvalidInputError):
            SolverConfig(**bad)
    # The weight floor and the step tolerance are module constants.
    for removed in ("weight_floor", "conv_tol"):
        with pytest.raises(TypeError):
            SolverConfig(**{removed: 1e-6})


def test_weight_rule_cases():
    Zp = np.array([[1.0, 1.0]])  # two 1-d lifted "samples", residual = w
    Zm = np.array([[1.0]])
    # Residual 0.25 below cap 0.5 -> reciprocal weight 4;
    # slack 1 + 0.25 above the cap -> constant weight eps = 0.5.
    state = weights_at(np.array([0.25]), Zp, Zm, cap_eps=0.5)
    np.testing.assert_allclose(state.q, [4.0, 4.0])
    np.testing.assert_allclose(state.u, [0.5])
    # Residual 1.5 saturates too.
    state = weights_at(np.array([1.5]), Zp, Zm, cap_eps=0.5)
    np.testing.assert_allclose(state.q, [0.5, 0.5])
    np.testing.assert_allclose(state.u, [0.5])


def test_weight_rule_zero_iterate_hits_floor():
    Zp = np.array([[1.0]])
    Zm = np.array([[1.0]])
    state = weights_at(np.array([0.0]), Zp, Zm, cap_eps=1.0)
    assert WEIGHT_FLOOR == 1e-12
    np.testing.assert_allclose(state.q, [1e12])
    np.testing.assert_allclose(state.u, [1.0])


def test_weight_rule_boundary_belongs_to_reciprocal_branch():
    Zp = np.array([[1.0]])
    Zm = np.array([[1.0]])
    state = weights_at(np.array([0.5]), Zp, Zm, cap_eps=0.5)
    np.testing.assert_allclose(state.q, [2.0])


CAP = 0.3
# (|r|, sample kept, weight): the weight rule's rows, NaN and inf included.
WEIGHT_RULE_ROWS = [
    (0.0, True, 1.0 / WEIGHT_FLOOR),
    (0.5 * WEIGHT_FLOOR, True, 1.0 / WEIGHT_FLOOR),
    (0.1, True, 1.0 / 0.1),
    (CAP, True, 1.0 / CAP),
    (np.nextafter(CAP, 1.0), True, CAP),
    (7.0, True, CAP),
    (math.inf, True, CAP),
    # ~(|r| <= cap) holds for NaN, so NaN saturates.
    (math.nan, True, CAP),
    (0.1, False, 0.0),
    (7.0, False, 0.0),
    (math.nan, False, 0.0),
]


def check_weight_rule(R, keep, expect):
    # Own-class and slack side follow the same rule.
    state = compute_weights_pos(R.copy(), R.copy(), CAP, keep, keep)
    np.testing.assert_array_equal(state.q, expect)
    np.testing.assert_array_equal(state.u, expect)


@pytest.mark.parametrize("magnitude, kept, weight", WEIGHT_RULE_ROWS)
def test_weight_rule_rows(magnitude, kept, weight):
    check_weight_rule(np.array([[magnitude]]), np.array([[kept]]), np.array([[weight]]))


def test_weight_rule_rows_in_one_stack():
    # The rule is elementwise: its rows mixed in a two-lane stack keep their weights.
    R, keep, expect = (np.array([list(col)] * 2) for col in zip(*WEIGHT_RULE_ROWS))
    check_weight_rule(R, keep, expect)


def test_weight_range_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        Zp, Zm = random_lifted_pair(rng)
        w = rng.standard_normal(Zp.shape[0]) * rng.choice([1e-14, 1.0, 1e3])
        # The negative surface's weights are the positive rule at -w with
        # the classes swapped.
        for state in (weights_at(w, Zp, Zm, cap_eps=0.7),
                      weights_at(-w, Zm, Zp, cap_eps=0.7)):
            for arr in (state.q, state.u):
                assert np.all(arr > 0)
                assert np.all(arr <= max(1e12, 0.7))


def test_one_step_matches_dense_oracle():
    rng = np.random.default_rng(1)
    cfg_grid = [(1e-3, 1.0), (1.0, 1.0), (10.0, 0.1), (100.0, 1000.0)]
    for trial in range(50):
        Zp, Zm = random_lifted_pair(rng)
        c1, c2 = cfg_grid[trial % len(cfg_grid)]
        q = rng.uniform(0.1, 10.0, Zp.shape[1])
        u = rng.uniform(0.1, 10.0, Zm.shape[1])
        state = ReweightState(q=q, u=u)
        for branch in ("direct", "smw"):
            cfg = SolverConfig(c1=c1, c2=c2, branch=branch)
            wp = solve_one(Zp, Zm, state, cfg)
            ref = dense_oracle(Zp, Zm, q, u, c1, c2, -1.0)
            np.testing.assert_allclose(wp, ref, rtol=1e-8, atol=1e-10)


def test_smw_and_direct_branches_agree():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(50):
        Zp, Zm = random_lifted_pair(rng)
        c1 = 10.0 ** rng.integers(-2, 3)
        c2 = 10.0 ** rng.integers(-2, 3)
        q = rng.uniform(0.1, 10.0, Zp.shape[1])
        u = rng.uniform(0.1, 10.0, Zm.shape[1])
        state = ReweightState(q=q, u=u)
        w_direct = solve_one(Zp, Zm, state, SolverConfig(c1=c1, c2=c2, branch="direct"))
        w_smw = solve_one(Zp, Zm, state, SolverConfig(c1=c1, c2=c2, branch="smw"))
        rel = np.linalg.norm(w_direct - w_smw) / (1 + np.linalg.norm(w_direct))
        worst = max(worst, rel)
    assert worst <= 1e-8


def test_smw_branch_tolerates_zero_weights():
    rng = np.random.default_rng(3)
    Zp, Zm = random_lifted_pair(rng, m_pos=5, m_neg=5, n=2)
    q = np.array([1.0, 0.0, 2.0, 0.0, 1.0])
    u = np.array([0.5, 0.5, 0.0, 1.0, 1.0])
    state = ReweightState(q=q, u=u)
    w_direct = solve_one(Zp, Zm, state, SolverConfig(branch="direct"))
    w_smw = solve_one(Zp, Zm, state, SolverConfig(branch="smw"))
    np.testing.assert_allclose(w_smw, w_direct, rtol=1e-8, atol=1e-10)
    # All-zero own weights: the own-class low-rank term vanishes entirely.
    state = ReweightState(q=np.zeros(5), u=u)
    w_direct = solve_one(Zp, Zm, state, SolverConfig(branch="direct"))
    w_smw = solve_one(Zp, Zm, state, SolverConfig(branch="smw"))
    np.testing.assert_allclose(w_smw, w_direct, rtol=1e-8, atol=1e-10)


def test_negative_surface_solve_matches_oracle():
    # The negative surface is minus the positive update on swapped classes.
    rng = np.random.default_rng(4)
    for _ in range(20):
        Zp, Zm = random_lifted_pair(rng)
        q = rng.uniform(0.1, 10.0, Zm.shape[1])
        u = rng.uniform(0.1, 10.0, Zp.shape[1])
        state = ReweightState(q=q, u=u)
        for branch in ("direct", "smw"):
            wm = -solve_one(Zm, Zp, state, SolverConfig(branch=branch))
            ref = dense_oracle(Zm, Zp, q, u, 1.0, 1.0, +1.0)
            np.testing.assert_allclose(wm, ref, rtol=1e-8, atol=1e-10)


def test_objective_capped_vs_mixed_loss_agree_below_cap():
    # Below the cap both loss readings coincide with plain L1.
    vals = np.array([0.1, -0.4, 0.25])
    assert capped_loss_sum(vals, 1.0) == pytest.approx(0.75)
    assert capped_loss_sum(np.array([5.0, -0.5]), 1.0) == pytest.approx(1.5)
    assert _mixed_loss_sum(np.abs(vals), 1.0, True) == pytest.approx(capped_loss_sum(vals, 1.0))


def test_objective_positive_and_regularized():
    rng = np.random.default_rng(5)
    Zp, Zm = random_lifted_pair(rng)
    cfg = SolverConfig()
    w = rng.standard_normal(Zp.shape[0])
    obj = objective_at(w, Zp, Zm, cfg)
    assert obj >= 0.5 * cfg.c1 * w @ w


def _fit_example(gen, seed=0, m=100, noise=None, **cfg_kwargs):
    from qtsvm.data import inject_label_noise

    d = gen(m, seed=seed)
    if noise:
        d = inject_label_noise(d, noise, seed=seed + 1)
    cfg = SolverConfig(**cfg_kwargs)
    model, report = fit(d, cfg)
    return d, cfg, model, report


@pytest.mark.parametrize("gen", [gen_example1, gen_example3])
def test_objective_trace_monotone(gen):
    _, _, _, report = _fit_example(gen, c1=0.01, c2=0.01)
    for rep in (report.pos, report.neg):
        trace = rep.objective_trace
        assert trace.size >= 1
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-9 * (1.0 + np.abs(trace[:-1])))


def test_converges_within_iteration_budget():
    _, _, _, report = _fit_example(gen_example1, c1=0.01, c2=0.01)
    assert report.converged
    assert report.pos.iterations_used <= 30
    assert report.neg.iterations_used <= 30


def test_final_state_stationarity():
    d, cfg, model, report = _fit_example(gen_example1, c1=0.01, c2=0.01)
    scaled = scale_dataset(d, model.scaler)
    Zp = lift_matrix(scaled.X_pos, model.mode).T
    Zm = lift_matrix(scaled.X_neg, model.mode).T
    wp, wm = model.w_pos, model.w_neg
    rp = stationarity_residual_plus(wp, Zp, Zm, report.pos.final_state, cfg)
    rm = stationarity_residual_plus(-wm, Zm, Zp, report.neg.final_state, cfg)
    assert rp <= 1e-5 * (1.0 + np.linalg.norm(wp))
    assert rm <= 1e-5 * (1.0 + np.linalg.norm(wm))


def test_first_step_is_unweighted_least_squares():
    # With max_iter=1 the fit result equals one uniformly weighted solve.
    d = gen_example1(40, seed=9)
    cfg = SolverConfig(c1=0.5, c2=2.0, max_iter=1)
    model, report = fit(d, cfg)
    scaled = scale_dataset(d, fit_scaler(d))
    Zp = lift_matrix(scaled.X_pos).T
    Zm = lift_matrix(scaled.X_neg).T
    ref = dense_oracle(Zp, Zm, np.ones(Zp.shape[1]), np.ones(Zm.shape[1]),
                       cfg.c1, cfg.c2, -1.0)
    np.testing.assert_allclose(model.w_pos, ref, rtol=1e-8, atol=1e-10)
    assert report.pos.iterations_used == 1


def test_fit_rejects_empty_class():
    d = Dataset(X_pos=np.zeros((0, 2)), X_neg=[[1.0, 2.0]])
    with pytest.raises(InvalidInputError):
        fit(d, SolverConfig())


def test_fit_reduced_mode():
    d = gen_example1(60, seed=10)
    model, report = fit(d, SolverConfig(c1=0.01, c2=0.01), mode=LiftingMode.REDUCED)
    assert model.mode is LiftingMode.REDUCED
    # Reduced surfaces are axis-aligned: no cross terms, only x1^2, x2^2,
    # x1, x2 and 1.
    assert model.w_pos.shape == model.w_neg.shape == (5,)
    X, y = d.stacked()
    acc = float(np.mean(predict_many(model, X) == y))
    assert acc > 0.9


def test_fit_separates_clean_parabolas():
    d = gen_example1(100, seed=11)
    model, _ = fit(d, SolverConfig(c1=0.01, c2=0.01))
    X, y = d.stacked()
    acc = float(np.mean(predict_many(model, X) == y))
    assert acc > 0.9


def test_fit_class_swap_symmetry():
    # Swapping the two classes swaps (and negates) the learned surfaces:
    # the positive subproblem on swapped data is the negative subproblem
    # on the original data evaluated at -w, and the capped losses are even.
    d = gen_example3(50, seed=12)
    swapped = Dataset(X_pos=d.X_neg, X_neg=d.X_pos)
    cfg = SolverConfig(c1=0.01, c2=0.01)
    m1, _ = fit(d, cfg)
    m2, _ = fit(swapped, cfg)
    np.testing.assert_allclose(m2.w_pos, -m1.w_neg, atol=1e-8)
    np.testing.assert_allclose(m2.w_neg, -m1.w_pos, atol=1e-8)


def test_fit_sample_order_invariance():
    d = gen_example1(50, seed=13)
    rng = np.random.default_rng(0)
    perm = Dataset(X_pos=d.X_pos[rng.permutation(50)],
                   X_neg=d.X_neg[rng.permutation(50)])
    cfg = SolverConfig(c1=0.01, c2=0.01)
    m1, _ = fit(d, cfg)
    m2, _ = fit(perm, cfg)
    np.testing.assert_allclose(m2.w_pos, m1.w_pos, atol=1e-8)
    np.testing.assert_allclose(m2.w_neg, m1.w_neg, atol=1e-8)


def test_fit_deterministic():
    d = gen_example1(50, seed=14)
    cfg = SolverConfig(c1=0.1, c2=0.1)
    m1, r1 = fit(d, cfg)
    m2, r2 = fit(d, cfg)
    np.testing.assert_array_equal(m1.w_pos, m2.w_pos)
    np.testing.assert_array_equal(m1.w_neg, m2.w_neg)
    np.testing.assert_array_equal(r1.pos.objective_trace, r2.pos.objective_trace)


def gaussian_classes(n, m_per_class, seed):
    """Two Gaussian classes in n dimensions, around +mu (unit scales) and
    -mu (axis scales 0.5..2)."""
    rng = np.random.default_rng(seed)
    mu = np.full(n, 0.5 / np.sqrt(n))
    return Dataset(X_pos=rng.standard_normal((m_per_class, n)) + mu,
                   X_neg=rng.standard_normal((m_per_class, n)) * np.linspace(0.5, 2.0, n) - mu)


def test_full_lifting_smw_fits_descend():
    # 28 lifted dimensions against 12 samples per class: residuals vanish
    # and weights reach 1 / WEIGHT_FLOOR = 1e12, where an SMW solve through
    # two nested sample-space factorizations made 39 of these 40 traces rise.
    cfg = SolverConfig(c1=0.01, c2=0.01)
    for seed in range(20):
        _, report = fit(gaussian_classes(6, 12, seed), cfg)
        for rep in (report.pos, report.neg):
            assert rep.branch_used == "smw"
            trace = rep.objective_trace
            assert np.all(np.diff(trace) <= 1e-9 * (1.0 + np.abs(trace[:-1]))), seed


def test_smw_final_state_backward_error():
    # Normwise backward error of the weighted normal equations at the final
    # weights, with trace(B) >= ||B||_2 as the matrix norm.
    d = gaussian_classes(20, 150, 0)
    cfg = SolverConfig(c1=0.01, c2=0.01)
    model, report = fit(d, cfg)
    scaled = scale_dataset(d, model.scaler)
    Zp = lift_matrix(scaled.X_pos).T
    Zm = lift_matrix(scaled.X_neg).T
    for w, rep, Z_own, Z_other, sign in ((model.w_pos, report.pos, Zp, Zm, -1.0),
                                         (model.w_neg, report.neg, Zm, Zp, 1.0)):
        assert rep.branch_used == "smw"
        q, u = rep.final_state.q, rep.final_state.u
        Bw = Z_own @ (q * (w @ Z_own)) + cfg.c1 * w + cfg.c2 * Z_other @ (u * (w @ Z_other))
        rhs = sign * cfg.c2 * Z_other @ u
        trace = q @ (Z_own**2).sum(axis=0) + cfg.c1 * w.size + cfg.c2 * u @ (Z_other**2).sum(axis=0)
        err = np.linalg.norm(Bw - rhs) / (trace * np.linalg.norm(w) + np.linalg.norm(rhs))
        assert err <= 1e-12


def test_branch_selection_auto():
    # Few samples, full lifting: lifted dim exceeds the opposite-class
    # count, so the auto rule picks the sample-space factorization.
    d = gen_example1(4, seed=15)
    _, report = fit(d, SolverConfig(max_iter=1))
    assert report.pos.branch_used == "smw"
    d = gen_example1(60, seed=15)
    _, report = fit(d, SolverConfig(max_iter=1))
    assert report.pos.branch_used == "direct"
