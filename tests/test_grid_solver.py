"""The stacked grid IRLS against the serial loop it replaced, its
lane-by-lane least-squares fallback, its training masks against fits on
the masked subsets, and the stacked CV folds against one fit per fold."""

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from qtsvm import evaluation, solver_cl1
from qtsvm.data import (
    Dataset,
    apply_scaler,
    fit_scaler,
    gen_example1,
    gen_example3,
    inject_label_noise,
    scale_dataset,
)
from qtsvm.errors import InvalidInputError
from qtsvm.evaluation import (
    CL1Trainer,
    CvSpec,
    LSQTrainer,
    _best_point,
    _inner_folds,
    _stack_counts,
    _stratified_folds,
    accuracy,
    cross_validate,
)
from qtsvm.lifting import LiftingMode, lift_matrix, unpack_weights
from qtsvm.model import GRADIENT_NORM_FLOOR, _distances, label_stack
from qtsvm.solver_cl1 import (
    CONV_TOL,
    WEIGHT_FLOOR,
    ReweightState,
    SolverConfig,
    _irls,
    _Lanes,
    _pair_products,
    _psd_solve_stack,
    _sample_gram,
    compute_weights_pos,
    fit,
    fit_grid,
    update_w_plus,
)

from oracles import objective_at

POWERS = (1e-4, 1e-2, 1.0, 1e2, 1e4)
GRID = [SolverConfig(c1=a, c2=b) for a in POWERS for b in POWERS]
# Distances at or past this are rounding-decided: a constant surface sits
# at the gradient floor, about 1e12.
FLOOR_DISTANCE = 1e8


def serial_subproblem(Z_own, Z_other, sign, cfg):
    """The serial IRLS loop the stacked one replaced, direct branch: one
    lane, scipy's Cholesky solve, least squares where Cholesky fails."""
    l = Z_own.shape[0]
    w = np.zeros(l)
    converged = False
    for t in range(cfg.max_iter):
        if t == 0:
            q, u = np.ones(Z_own.shape[1]), np.ones(Z_other.shape[1])
        else:
            state = compute_weights_pos(np.abs(Z_own.T @ w),
                                        np.abs(1.0 - sign * (Z_other.T @ w)), cfg.cap_eps,
                                        np.ones(Z_own.shape[1], bool),
                                        np.ones(Z_other.shape[1], bool))
            q, u = state.q, state.u
        B = (Z_own * q) @ Z_own.T + cfg.c2 * (Z_other * u) @ Z_other.T
        B[np.diag_indices(l)] += cfg.c1
        rhs = Z_other @ u
        try:
            x = cho_solve(cho_factor(B, lower=True), rhs)
        except LinAlgError:
            x = np.linalg.lstsq(B, rhs, rcond=None)[0]
        w_new = sign * cfg.c2 * x
        step = float(np.linalg.norm(w_new - w))
        converged = step <= CONV_TOL * (1.0 + float(np.linalg.norm(w)))
        w = w_new
        if converged:
            return w, t + 1, True
    return w, cfg.max_iter, False


def serial_distances(Xs, W, b, c):
    """Normalized distance to one surface, as the serial code computed it."""
    vals = 0.5 * np.einsum("ij,ij->i", Xs @ W, Xs) + Xs @ b + c
    grads = Xs @ W.T + b
    return np.abs(vals) / np.maximum(np.linalg.norm(grads, axis=1), GRADIENT_NORM_FLOOR)


@pytest.fixture(scope="module")
def split():
    d = inject_label_noise(gen_example1(60, seed=3), 0.1, seed=3)
    test = gen_example1(100, seed=4)
    scaler = fit_scaler(d)
    scaled = scale_dataset(d, scaler)
    return d, test, scaler, lift_matrix(scaled.X_pos).T, lift_matrix(scaled.X_neg).T


@pytest.mark.parametrize("side", ["pos", "neg"])
def test_stacked_irls_matches_serial_loop(split, side):
    _, _, _, Zp, Zm = split
    Z_own, Z_other, sign = (Zp, Zm, -1.0) if side == "pos" else (Zm, Zp, 1.0)
    G = len(GRID)
    lanes = _Lanes(c1=np.array([cfg.c1 for cfg in GRID]), c2=np.array([cfg.c2 for cfg in GRID]),
                   cap_eps=np.array([[cfg.cap_eps] for cfg in GRID]),
                   max_iter=np.array([cfg.max_iter for cfg in GRID]),
                   own=np.ones((G, Z_own.shape[1]), bool),
                   other=np.ones((G, Z_other.shape[1]), bool))
    # The stacked loop solves the positive form; the negative surface is
    # minus that solve on swapped classes.
    W, fallbacks, replay = _irls(Z_own, Z_other, lanes, "direct",
                                 (_pair_products(Z_own), _pair_products(Z_other)))
    reports = replay()
    np.testing.assert_array_equal(fallbacks, [rep.lstsq_fallbacks for rep in reports])
    W = -sign * W
    both_converged = 0
    for g, cfg in enumerate(GRID):
        w_ref, iters_ref, conv_ref = serial_subproblem(Z_own, Z_other, sign, cfg)
        rep = reports[g]
        assert np.isfinite(W[g]).all()
        if rep.converged and conv_ref:
            both_converged += 1
            assert rep.iterations_used == iters_ref, cfg
            assert np.linalg.norm(W[g] - w_ref) <= 1e-5 * np.linalg.norm(w_ref), cfg
    assert both_converged >= len(GRID) // 2


def test_stacked_labels_match_serial_labels(split):
    d, test, scaler, Zp, Zm = split
    grid = fit_grid(d, GRID, scaler=scaler)
    X, _ = test.stacked()
    labels = label_stack(grid.scaler, *(unpack_weights(w, 2, grid.mode)
                                        for w in (grid.pos, grid.neg)), X)
    scaled = scale_dataset(test, scaler)
    Xs = np.vstack([scaled.X_pos, scaled.X_neg])
    compared = 0
    for g, cfg in enumerate(GRID):
        w_pos, _, _ = serial_subproblem(Zp, Zm, -1.0, cfg)
        w_neg, _, _ = serial_subproblem(Zm, Zp, 1.0, cfg)
        d_pos = serial_distances(Xs, *unpack_weights(w_pos, 2, LiftingMode.FULL))
        d_neg = serial_distances(Xs, *unpack_weights(w_neg, 2, LiftingMode.FULL))
        ref = np.where(d_pos <= d_neg, 1, -1)
        decided = np.maximum(d_pos, d_neg) < FLOOR_DISTANCE
        np.testing.assert_array_equal(labels[g][decided], ref[decided], err_msg=str(cfg))
        compared += decided.sum()
    assert compared >= X.shape[0] * len(GRID) // 2


def assert_lanes_agree(a, b, pairs):
    """Lane ga of fit a and lane gb of fit b, for each (ga, gb) in pairs,
    agree in iterations and weights where both converge."""
    for ga, gb in pairs:
        for side in ("pos", "neg"):
            rep_a = getattr(a.reports[ga], side)
            rep_b = getattr(b.reports[gb], side)
            if rep_a.converged and rep_b.converged:
                w_a, w_b = getattr(a, side)[ga], getattr(b, side)[gb]
                assert rep_a.iterations_used == rep_b.iterations_used
                assert np.linalg.norm(w_a - w_b) <= 1e-5 * np.linalg.norm(w_a)


def test_fit_grid_matches_single_fits():
    # Configurations that differ beyond (c1, c2) share one stack, each lane
    # with its own cap_eps and max_iter; each still equals its own single fit.
    d = gen_example1(40, seed=5)
    cfgs = [SolverConfig(c1=0.01, c2=0.01), SolverConfig(c1=1.0, c2=0.1, cap_eps=0.5),
            SolverConfig(c1=1.0, c2=0.1), SolverConfig(c1=0.1, c2=1.0, max_iter=3)]
    grid = fit_grid(d, cfgs)
    for g, cfg in enumerate(cfgs):
        assert_lanes_agree(grid, fit_grid(d, [cfg]), [(g, 0)])
        assert grid.reports[g].pos.iterations_used <= cfg.max_iter
    assert sum(r.pos.converged and r.neg.converged for r in grid.reports) >= 2


# Caps of 1, 0.5 and 0.25, two lanes cut at 4 iterations, and two lanes
# forced onto the SMW branch, which 40 samples per class against six lifted
# dimensions would not take.
MIXED_CFGS = ([SolverConfig(c1=1.0, c2=0.1, cap_eps=eps) for eps in (1.0, 0.5, 0.25)]
              + [SolverConfig(c1=1.0, c2=0.1, cap_eps=0.5, max_iter=4)]
              + [SolverConfig(c1=1.0, c2=0.1, cap_eps=eps, branch="smw") for eps in (1.0, 0.25)]
              + [SolverConfig(c1=0.1, c2=1.0, cap_eps=0.25, max_iter=4, branch="smw")])


def test_lane_table_runs_one_irls_per_side_and_branch(monkeypatch):
    # Every configuration is a lane with its own cap_eps and max_iter, so a
    # grid that mixes them runs one stacked IRLS per side and solve branch.
    d = inject_label_noise(gen_example1(40, seed=5), 0.1, seed=5)
    runs = []
    irls = solver_cl1._irls

    def spy(Z_own, Z_other, lanes, branch, consts):
        runs.append((branch, lanes))
        return irls(Z_own, Z_other, lanes, branch, consts)

    monkeypatch.setattr(solver_cl1, "_irls", spy)
    grid = fit_grid(d, MIXED_CFGS)
    assert sorted(branch for branch, _ in runs) == ["direct", "direct", "smw", "smw"]
    stacks = {"direct": [0, 1, 2, 3], "smw": [4, 5, 6]}
    for branch, lanes in runs:
        cfgs = [MIXED_CFGS[g] for g in stacks[branch]]
        np.testing.assert_array_equal(lanes.cap_eps, [[cfg.cap_eps] for cfg in cfgs])
        np.testing.assert_array_equal(lanes.max_iter, [cfg.max_iter for cfg in cfgs])
    for cfg, report in zip(MIXED_CFGS, grid.reports):
        for rep in (report.pos, report.neg):
            # A weight at or below the cap is a saturated one: reciprocals of
            # residuals within the cap are at least 1 / cap_eps >= 1.
            weights = np.concatenate([rep.final_state.q, rep.final_state.u])
            saturated = weights[weights <= cfg.cap_eps]
            assert saturated.size and (saturated == cfg.cap_eps).all(), cfg
    # Each cut lane stops at 4 while the rest of its stack runs on.
    for cut, stack in ((3, stacks["direct"]), (6, stacks["smw"])):
        for side in ("pos", "neg"):
            iters = [getattr(grid.reports[g], side).iterations_used for g in stack]
            assert getattr(grid.reports[cut], side).iterations_used == 4
            assert max(iters) > 4
    for g, cfg in enumerate(MIXED_CFGS):
        assert_lanes_agree(grid, fit_grid(d, [cfg]), [(g, 0)])
    assert sum(r.pos.converged and r.neg.converged for r in grid.reports) == 5


def test_lane_chunks_match_one_chunk(monkeypatch):
    # With a one-byte budget every lane is its own chunk and the weighted
    # Gram matrices are formed lane by lane, not from pairwise products.
    d = gen_example1(40, seed=5)
    whole = fit_grid(d, GRID)
    monkeypatch.setattr(solver_cl1, "LANE_CHUNK_BYTES", 1)
    assert_lanes_agree(whole, fit_grid(d, GRID), [(g, g) for g in range(len(GRID))])


@pytest.mark.parametrize("l", [4, solver_cl1.STACKED_SOLVE_MAX_DIM + 10])
def test_fallback_is_lane_wise(l):
    # Small systems are solved as one stack, large ones lane by lane.
    rng = np.random.default_rng(0)
    B = np.empty((3, l, l))
    for g in range(3):
        A = rng.standard_normal((l, l))
        B[g] = A @ A.T + l * np.eye(l)
    B[1] = np.diag(np.arange(l) - 1.5)  # indefinite: Cholesky fails
    rhs = rng.standard_normal((3, l))
    B_in = B.copy()
    # Each call forms its lanes anew, in C order or in Fortran order (the
    # transposes, the same symmetric matrices), so that the solve may
    # factor them over their own buffers and form a lane again to fall back.
    X, fell = _psd_solve_stack(3, 1, lambda sl: (B[sl].copy(), rhs[sl]))
    np.testing.assert_array_equal(B, B_in)
    X_t, fell_t = _psd_solve_stack(3, 1, lambda sl: (B[sl].copy().transpose(0, 2, 1), rhs[sl]))
    np.testing.assert_array_equal(B, B_in)
    np.testing.assert_array_equal(X_t, X)
    np.testing.assert_array_equal(fell_t, fell)
    np.testing.assert_array_equal(fell, [False, True, False])
    np.testing.assert_array_equal(X[1], np.linalg.lstsq(B[1], rhs[1], rcond=None)[0])
    for g in (0, 2):
        np.testing.assert_allclose(X[g], np.linalg.solve(B[g], rhs[g]), rtol=1e-9)


def _borderline(rng):
    """A symmetric 6 x 6 matrix Z diag(q) Z' + r I with weights q spanning 24
    orders of magnitude and a tiny ridge r: Cholesky may or may not take it."""
    Z = rng.standard_normal((6, 3))
    A = (Z * 10.0 ** rng.uniform(-12, 12, 3)) @ Z.T + 10.0 ** rng.uniform(-16, -4) * np.eye(6)
    return (A + A.T) / 2


def _rejects(solve, A):
    try:
        solve(A)
    except np.linalg.LinAlgError:
        return True
    return False


def test_small_stack_flags_the_lanes_numpy_cholesky_rejects():
    # A small stack's lanes are flagged by the numpy Cholesky that failed on
    # the stack, or by LU, never re-decided by another BLAS build.  Seed 346
    # once came back with no lane flagged.
    rejected = 0
    rhs = np.ones((2, 6))
    for seed in range(400):
        A = _borderline(np.random.default_rng(seed))
        X, fell = _psd_solve_stack(2, 1, lambda sl: (np.stack([np.eye(6), A])[sl], rhs[sl]))
        flag = (_rejects(np.linalg.cholesky, A)
                or _rejects(lambda A: np.linalg.solve(A, rhs[1]), A))
        np.testing.assert_array_equal(fell, [False, flag], err_msg=f"seed {seed}")
        if flag:
            np.testing.assert_array_equal(X[1], np.linalg.lstsq(A, rhs[1], rcond=None)[0])
        rejected += flag
    assert _rejects(np.linalg.cholesky, _borderline(np.random.default_rng(346)))
    assert 100 <= rejected <= 300


def test_fallback_counted_on_its_lane_only():
    # A negative own-class weight makes lane 1's system indefinite.
    rng = np.random.default_rng(1)
    Z_own = lift_matrix(rng.standard_normal((12, 2))).T
    Z_other = lift_matrix(rng.standard_normal((12, 2))).T
    Q = np.ones((3, 12))
    Q[1, 0] = -1e6
    U = np.ones((3, 12))
    c = np.array([0.1, 0.1, 0.1])
    W, fell = update_w_plus(Z_own, Z_other, ReweightState(q=Q, u=U), c, c, "direct",
                            (_pair_products(Z_own), _pair_products(Z_other)))
    np.testing.assert_array_equal(fell, [0, 1, 0])
    B = (Z_own * Q[1]) @ Z_own.T + 0.1 * (Z_other * U[1]) @ Z_other.T + 0.1 * np.eye(6)
    ref = -0.1 * np.linalg.lstsq(B, Z_other @ U[1], rcond=None)[0]
    np.testing.assert_allclose(W[1], ref, rtol=1e-9)


def test_exactly_singular_lane_falls_back_alone():
    # Two samples per class span 4 of the 6 lifted dimensions.  With
    # c1 = 1e-300 this draw's positive system passes Cholesky on rounded
    # tiny pivots but is exactly singular to LU; only that lane falls back.
    rng = np.random.default_rng(5)
    d = Dataset(X_pos=rng.standard_normal((2, 2)), X_neg=rng.standard_normal((2, 2)))
    cfgs = [SolverConfig(c1=1e-300, c2=2.0, max_iter=1, branch="direct"),
            SolverConfig(c1=1.0, c2=2.0, max_iter=1, branch="direct")]
    grid = fit_grid(d, cfgs)
    assert grid.reports[0].pos.lstsq_fallbacks > 0
    assert grid.reports[1].pos.lstsq_fallbacks == 0
    assert grid.reports[1].neg.lstsq_fallbacks == 0
    _, report = fit(d, cfgs[0])
    assert report.pos.lstsq_fallbacks > 0


SMW_CFGS = [SolverConfig(c1=a, c2=b) for a in (1e-2, 1.0, 1e2) for b in (1e-2, 1.0, 1e2)]
SMW_CFGS.append(SolverConfig(c1=1.0, c2=0.1, cap_eps=0.5))


def test_smw_stack_matches_single_fits(monkeypatch):
    # Four samples per class against six lifted dimensions: the auto rule
    # takes the SMW branch on both sides.  Every lane of the stack, and of
    # a run with one lane per chunk, follows its own single fit.
    d = gen_example1(4, seed=5)
    grid = fit_grid(d, SMW_CFGS)
    monkeypatch.setattr(solver_cl1, "LANE_CHUNK_BYTES", 1)
    chunked = fit_grid(d, SMW_CFGS)
    for g, cfg in enumerate(SMW_CFGS):
        one = fit_grid(d, [cfg])
        for fitted in (grid, chunked):
            for side in ("pos", "neg"):
                rep, ref = getattr(fitted.reports[g], side), getattr(one.reports[0], side)
                assert rep.branch_used == ref.branch_used == "smw"
                assert (rep.iterations_used, rep.converged) == (ref.iterations_used, ref.converged)
                np.testing.assert_allclose(rep.objective_trace, ref.objective_trace, rtol=1e-9)
                w, w_ref = getattr(fitted, side)[g], getattr(one, side)[0]
                assert np.linalg.norm(w - w_ref) <= 1e-8 * np.linalg.norm(w_ref)
    assert sum(r.pos.converged and r.neg.converged for r in grid.reports) >= 3


def test_smw_stack_drops_zero_weight_columns():
    # Each lane zeroes other columns.  A zero weight removes its sample from
    # the sample-space system, as it does from the lifted one.
    rng = np.random.default_rng(2)
    Z_own = lift_matrix(rng.standard_normal((5, 2))).T
    Z_other = lift_matrix(rng.standard_normal((5, 2))).T
    Q = rng.uniform(0.5, 2.0, (4, 5))
    U = rng.uniform(0.5, 2.0, (4, 5))
    Q[1, [0, 3]] = 0.0
    U[2, 4] = 0.0
    Q[3] = 0.0
    U[3, :2] = 0.0
    c1 = np.array([0.1, 1.0, 0.01, 10.0])
    c2 = np.array([1.0, 0.1, 2.0, 1.0])
    W, fell = update_w_plus(Z_own, Z_other, ReweightState(q=Q, u=U), c1, c2, "smw",
                            _sample_gram(Z_own, Z_other))
    np.testing.assert_array_equal(fell, 0)
    for g in range(4):
        B = (Z_own * Q[g]) @ Z_own.T + c2[g] * (Z_other * U[g]) @ Z_other.T + c1[g] * np.eye(6)
        ref = -c2[g] * np.linalg.solve(B, Z_other @ U[g])
        np.testing.assert_allclose(W[g], ref, rtol=1e-9, atol=1e-12)


def test_singular_smw_lane_falls_back_alone():
    # Five samples per class give a rank-6 sample Gram of size 10; with
    # c1 = 1e-300 its system is singular and falls back, on its lane only.
    rng = np.random.default_rng(1)
    d = Dataset(X_pos=rng.standard_normal((5, 2)), X_neg=rng.standard_normal((5, 2)))
    cfgs = [SolverConfig(c1=1e-300, c2=2.0, max_iter=1, branch="smw"),
            SolverConfig(c1=1.0, c2=2.0, max_iter=1, branch="smw")]
    grid = fit_grid(d, cfgs)
    assert grid.reports[0].pos.lstsq_fallbacks > 0
    assert grid.reports[0].neg.lstsq_fallbacks > 0
    assert grid.reports[1].pos.lstsq_fallbacks == 0
    assert grid.reports[1].neg.lstsq_fallbacks == 0
    assert np.isfinite(grid.pos).all() and np.isfinite(grid.neg).all()
    _, report = fit(d, cfgs[0])
    assert report.pos.lstsq_fallbacks > 0


def _smw_systems(monkeypatch):
    """Record every stack B that _psd_solve_stack forms, a copy of it
    taken before it is factored, and the solutions and flags it returns for
    those lanes."""
    seen = []
    solve = solver_cl1._psd_solve_stack

    def spy(G, per_lane, system):
        formed = []

        def recorded(sl):
            B, rhs = system(sl)
            formed.append((sl, {"B": B, "copy": B.copy()}))
            return B, rhs

        X, fell = solve(G, per_lane, recorded)
        for sl, entry in formed:
            entry["X"], entry["fell"] = X[sl], fell[sl]
            seen.append(entry)
        return X, fell

    monkeypatch.setattr(solver_cl1, "_psd_solve_stack", spy)
    return seen


@pytest.mark.parametrize("n, m_per_class, mode", [
    (2, 30, LiftingMode.FULL), (12, 40, LiftingMode.FULL), (30, 60, LiftingMode.REDUCED)])
def test_smw_systems_are_exactly_symmetric(monkeypatch, n, m_per_class, mode):
    # The SMW systems are handed to LAPACK as their transposes, which are
    # the same matrices only if every bit is symmetric: the sample Gram
    # (numpy's syrk for Z'Z), its rolled copy for the other side, and each
    # masked and unmasked lane's system built from it.
    rng = np.random.default_rng(n)
    d = Dataset(X_pos=rng.normal(0.5, 1.0, (m_per_class, n)),
                X_neg=rng.normal(-0.5, 1.0, (m_per_class, n)))
    scaled = scale_dataset(d, fit_scaler(d))
    Z_pos, Z_neg = (lift_matrix(X, mode).T for X in (scaled.X_pos, scaled.X_neg))
    gram = _sample_gram(Z_pos, Z_neg)
    rolled = np.roll(gram, (-m_per_class,) * 2, axis=(0, 1))
    for G in (gram, rolled):
        np.testing.assert_array_equal(G, G.T)
    cfgs = [SolverConfig(c1=c, c2=1.0, branch="smw", max_iter=3) for c in (0.01, 1.0, 100.0)]
    mask = np.ones((3, d.m), dtype=bool)
    mask[1, ::4] = False
    mask[2, 1::3] = False
    seen = _smw_systems(monkeypatch)
    fit_grid(d, cfgs, mode, scaler=fit_scaler(d), mask=mask)
    assert len(seen) == 2 * 3
    for entry in seen:
        B = entry["copy"]
        np.testing.assert_array_equal(B, B.transpose(0, 2, 1))
        # Each lane reaches the solve in the Fortran order LAPACK factors.
        assert all(A.flags.f_contiguous for A in entry["B"])


def test_singular_large_smw_lane_falls_back_alone(monkeypatch):
    # Thirty samples per class give a rank-6 sample Gram of size 60, above
    # STACKED_SOLVE_MAX_DIM, so every system is factored over its own
    # buffer.  With c1 = 1e-300 lane 3's system is singular; its buffer is
    # overwritten by the failed factorization, so the least-squares
    # fallback must solve the system formed anew: the lstsq of the system
    # formed here, bit for bit.  Chunks of two lanes put lane 3 second in
    # its chunk, and lane 3 trains on a subset of the samples.
    rng = np.random.default_rng(1)
    d = Dataset(X_pos=rng.standard_normal((30, 2)), X_neg=rng.standard_normal((30, 2)))
    assert d.m > solver_cl1.STACKED_SOLVE_MAX_DIM
    cfgs = [SolverConfig(c1=c, c2=2.0, max_iter=1, branch="smw") for c in (1.0, 0.1, 10.0, 1e-300)]
    mask = np.ones((4, d.m), dtype=bool)
    mask[3, [0, 7, 40]] = False
    monkeypatch.setattr(solver_cl1, "LANE_CHUNK_BYTES", 2 * 8 * d.m**2)
    seen = _smw_systems(monkeypatch)
    scaler = fit_scaler(d)
    grid = fit_grid(d, cfgs, scaler=scaler, mask=mask)
    np.testing.assert_array_equal(grid.lstsq_fallbacks > 0, [False, False, False, True])
    scaled = scale_dataset(d, scaler)
    Z_pos, Z_neg = (lift_matrix(X).T for X in (scaled.X_pos, scaled.X_neg))
    # The positive side's second chunk: lanes 2 and 3.
    entry = seen[1]
    np.testing.assert_array_equal(entry["fell"], [False, True])
    gram, live = _sample_gram(Z_pos, Z_neg), mask[3]
    B = np.where(np.outer(live, live), gram, 0.0)
    D = np.concatenate([np.ones(30), 2.0 * np.ones(30)])
    B[np.diag_indices(d.m)] += np.where(live, 1e-300 / D, 1.0)
    np.testing.assert_array_equal(B, entry["copy"][1])
    assert not np.array_equal(entry["B"][1], B)  # factored in place
    rhs = (live & (np.arange(d.m) >= 30)).astype(float)
    np.testing.assert_array_equal(entry["X"][1], np.linalg.lstsq(B, rhs, rcond=None)[0])


def test_singular_large_direct_lane_falls_back_alone():
    # Reduced lifting of 30 features gives l = 61 lifted dimensions, above
    # STACKED_SOLVE_MAX_DIM, against 40 samples: with c1 = 1e-300 lane 0's
    # direct systems are singular on both sides and fall back, lane 1's do
    # not.  The fallback solves by least squares the matrix formed again,
    # bit for bit the one formed here, on the chunk's right-hand side: both
    # lanes' U Z_other' from one product, which a one-row product need not
    # give bit for bit.
    rng = np.random.default_rng(3)
    d = Dataset(X_pos=rng.standard_normal((20, 30)), X_neg=rng.standard_normal((20, 30)))
    cfgs = [SolverConfig(c1=c, c2=2.0, max_iter=1, branch="direct") for c in (1e-300, 1.0)]
    grid = fit_grid(d, cfgs, LiftingMode.REDUCED)
    assert grid.pos.shape[1] > solver_cl1.STACKED_SOLVE_MAX_DIM
    np.testing.assert_array_equal(grid.lstsq_fallbacks, [2, 0])
    scaled = scale_dataset(d, fit_scaler(d))
    Z_pos, Z_neg = (lift_matrix(X, LiftingMode.REDUCED).T for X in (scaled.X_pos, scaled.X_neg))
    # The negative surface is minus the positive solve on swapped classes.
    for w, Z_own, Z_other in ((grid.pos[0], Z_pos, Z_neg), (-grid.neg[0], Z_neg, Z_pos)):
        ones = np.ones((2, 20))
        B = ((Z_own * ones[:1, None]) @ Z_own.T + 2.0 * ((Z_other * ones[:1, None]) @ Z_other.T))[0]
        B[np.diag_indices(61)] += 1e-300
        rhs = (ones @ Z_other.T)[0]
        np.testing.assert_array_equal(w, -2.0 * np.linalg.lstsq(B, rhs, rcond=None)[0])


def test_report_counts_fallbacks_and_peak_weight():
    d = gen_example1(30, seed=6)
    _, report = fit(d, SolverConfig(c1=1e-5, c2=1e5))
    for rep in (report.pos, report.neg):
        assert rep.lstsq_fallbacks >= 0
        state = rep.final_state
        assert rep.peak_weight >= max(state.q.max(), state.u.max())
        assert rep.peak_weight <= 1.0 / WEIGHT_FLOOR


def test_cv_stack_forms_no_report_and_fit_still_does(monkeypatch):
    # A masked CV stack reads only the surfaces: it evaluates no objective
    # and builds no SubproblemReport.  fit still reports the full trace,
    # final state and peak weight, the trace being the objective at each
    # iterate that the solves returned.
    calls = {"objective_plus": 0, "SubproblemReport": 0}

    def counted(name):
        original = getattr(solver_cl1, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(solver_cl1, name, wrapper)

    counted("objective_plus")
    counted("SubproblemReport")
    d = inject_label_noise(gen_example1(40, seed=3), 0.1, seed=3)
    grid = tuple({"c1": a, "c2": b} for a in POWERS for b in POWERS)
    spec = CvSpec(folds=4, grid=grid)
    assign = _stratified_folds(d.m_pos, d.m_neg, spec.folds, 0)
    _stack_counts(CL1Trainer(), d, spec.mode, fit_scaler(d), fold_blocks(grid, assign, spec.folds))
    assert calls == {"objective_plus": 0, "SubproblemReport": 0}

    iterates = []
    update = solver_cl1.update_w_plus

    def spy(Z_own, Z_other, *args):
        W, fell = update(Z_own, Z_other, *args)
        iterates.append((Z_own, Z_other, W[0]))
        return W, fell

    monkeypatch.setattr(solver_cl1, "update_w_plus", spy)
    # Both surfaces converge, after 9 and 11 iterations.
    cfg = SolverConfig(c1=1.0, c2=0.1, cap_eps=0.5)
    _, report = fit(d, cfg)
    # One objective per iterate, one report per surface.
    assert calls == {"objective_plus": len(iterates), "SubproblemReport": 2}
    subs = (report.pos, report.neg)
    assert len(iterates) == sum(rep.iterations_used for rep in subs)
    start = 0
    for rep, m_own, m_other in zip(subs, (d.m_pos, d.m_neg), (d.m_neg, d.m_pos)):
        assert rep.converged and rep.objective_trace.shape == (rep.iterations_used,)
        assert rep.final_state.q.shape == (m_own,) and rep.final_state.u.shape == (m_other,)
        assert 1.0 <= rep.peak_weight <= 1.0 / WEIGHT_FLOOR
        assert rep.peak_weight >= max(rep.final_state.q.max(), rep.final_state.u.max())
        ref = [objective_at(w, Z_own, Z_other, cfg)
               for Z_own, Z_other, w in iterates[start : start + rep.iterations_used]]
        np.testing.assert_allclose(rep.objective_trace, ref, rtol=1e-12, atol=0)
        start += rep.iterations_used


def test_reports_hold_the_weights_each_lane_was_solved_with(monkeypatch):
    # Reports re-run the IRLS schedule on the iterates the fit kept.  In a
    # masked stack whose lanes stop at different steps, on either branch
    # and at a max_iter cut, each lane's final state must be, bit for bit,
    # the weights its last solve received, and its peak weight the largest
    # weight any of its solves received.
    base = inject_label_noise(gen_example1(30, seed=7), 0.1, seed=7)
    d = Dataset(X_pos=base.X_pos, X_neg=base.X_neg[:24])
    cfgs = [SolverConfig(c1=a, c2=b, branch=branch) for branch in ("direct", "smw")
            for a in POWERS for b in POWERS] + [SolverConfig(c1=3.0, c2=0.3, max_iter=3)]
    mask = np.random.default_rng(2).random((len(cfgs), d.m)) < 0.8
    mask[:, [0, -1]] = True
    solves = {}
    update = solver_cl1.update_w_plus

    def spy(Z_own, Z_other, state, c1, c2, branch, *args):
        for i in range(len(c1)):
            key = (Z_own.shape[1], branch, c1[i], c2[i])
            solves.setdefault(key, []).append((state.q[i].copy(), state.u[i].copy()))
        return update(Z_own, Z_other, state, c1, c2, branch, *args)

    monkeypatch.setattr(solver_cl1, "update_w_plus", spy)
    fitted = fit_grid(d, cfgs, LiftingMode.FULL, fit_scaler(d), mask)
    iterations = set()
    for cfg, report in zip(cfgs, fitted.reports):
        for m_own, rep in ((d.m_pos, report.pos), (d.m_neg, report.neg)):
            weights = solves[(m_own, rep.branch_used, cfg.c1, cfg.c2)]
            assert len(weights) == rep.iterations_used
            iterations.add(rep.iterations_used)
            q, u = weights[-1]
            assert rep.final_state.q.tobytes() == q.tobytes()
            assert rep.final_state.u.tobytes() == u.tobytes()
            assert rep.peak_weight == max(max(q.max(), u.max()) for q, u in weights)
    assert len(iterations) > 3 and 3 in iterations
    assert not fitted.reports[-1].pos.converged


def assert_fits_identical(a, b):
    """Two GridFits are bit-identical: surfaces, traces, states and counts."""
    for side in ("pos", "neg"):
        for x, y in zip(getattr(a, side), getattr(b, side)):
            np.testing.assert_array_equal(x, y)
    for ra, rb in zip(a.reports, b.reports):
        for side in ("pos", "neg"):
            p, q = getattr(ra, side), getattr(rb, side)
            np.testing.assert_array_equal(p.objective_trace, q.objective_trace)
            np.testing.assert_array_equal(p.final_state.q, q.final_state.q)
            np.testing.assert_array_equal(p.final_state.u, q.final_state.u)
            assert (p.iterations_used, p.converged, p.branch_used, p.lstsq_fallbacks,
                    p.peak_weight) == (q.iterations_used, q.converged, q.branch_used,
                                       q.lstsq_fallbacks, q.peak_weight)


def subset(d, keep):
    """The samples of d that the mask row keep (positives first) keeps."""
    return Dataset(X_pos=d.X_pos[keep[: d.m_pos]], X_neg=d.X_neg[keep[d.m_pos :]])


def _split(d, assign, fold):
    """The training and held-out splits of d at one fold of assign."""
    held = assign == fold
    return subset(d, ~held), subset(d, held)


def fold_blocks(grid, assign, k):
    """The _stack_counts blocks of k-fold CV of grid over the folds of
    assign: fit on all folds but one, counted on that one."""
    return [(grid, assign != fold, assign == fold) for fold in range(k)]


def split_counts(trainer, train, test, grid, mode, scaler):
    """Confusion counts on test of each grid point fit on train alone, in
    grid order (scaler None: the scaler of train)."""
    fitted = trainer.fit_split(train, grid, mode, scaler)
    X, y = test.stacked()
    surfaces = (unpack_weights(w, train.n, fitted.mode) for w in (fitted.pos, fitted.neg))
    return evaluation.counts_stack(y, label_stack(fitted.scaler, *surfaces, X))


def fold_masks(d, k, seed):
    """Training masks of k stratified folds of d, one row per fold."""
    assign = _stratified_folds(d.m_pos, d.m_neg, k, seed)
    return assign != np.arange(k)[:, None]


# Per class 30 samples put every lane on the direct branch, 5 on the SMW one
# (six lifted dimensions against at most five samples of the other class).
BRANCH_SIZES = [(30, "direct"), (5, "smw")]
# Below this weight norm a surface has collapsed to w ~ 0.
COLLAPSED_NORM = 1e-6


@pytest.mark.parametrize("m_per_class, branch", BRANCH_SIZES)
def test_all_ones_mask_is_no_mask(m_per_class, branch):
    d = gen_example1(m_per_class, seed=5)
    plain = fit_grid(d, SMW_CFGS)
    assert {r.pos.branch_used for r in plain.reports} == {branch}
    assert_fits_identical(plain, fit_grid(d, SMW_CFGS, scaler=plain.scaler,
                                          mask=np.ones((len(SMW_CFGS), d.m))))


def test_bad_masks_are_rejected():
    d = gen_example1(10, seed=5)
    scaler = fit_scaler(d)
    ones = np.ones((len(SMW_CFGS), d.m))
    # Without a scaler, one fit here would see the masked-out samples.
    with pytest.raises(InvalidInputError, match="scaler"):
        fit_grid(d, SMW_CFGS, mask=ones)
    with pytest.raises(InvalidInputError, match="shape"):
        fit_grid(d, SMW_CFGS, scaler=scaler, mask=ones[:, 1:])
    no_neg = ones.copy()
    no_neg[3, d.m_pos :] = 0
    with pytest.raises(InvalidInputError, match="both classes"):
        fit_grid(d, SMW_CFGS, scaler=scaler, mask=no_neg)


def assert_lane_matches_subset(fitted, lane, keep, ref, g):
    """Lane ``lane`` of a masked fit against lane g of the fit on the subset
    that keep selects: same branch, iterations and convergence, weights to
    1e-10 where both converge, and no final weight on a sample left out.
    Returns the number of surfaces that converged."""
    m_pos = fitted.reports[lane].pos.final_state.q.size
    converged = 0
    for side, own, other in (("pos", keep[:m_pos], keep[m_pos:]),
                             ("neg", keep[m_pos:], keep[:m_pos])):
        rep, rep_ref = getattr(fitted.reports[lane], side), getattr(ref.reports[g], side)
        assert rep.branch_used == rep_ref.branch_used
        assert (rep.iterations_used, rep.converged) == (rep_ref.iterations_used, rep_ref.converged)
        assert not rep.final_state.q[~own].any() and not rep.final_state.u[~other].any()
        if rep.converged:
            converged += 1
            w, w_ref = getattr(fitted, side)[lane], getattr(ref, side)[g]
            # A surface that collapses to w ~ 0 is rounding noise to relative
            # precision; it need only collapse in both fits.
            if np.linalg.norm(w_ref) < COLLAPSED_NORM:
                assert np.linalg.norm(w) < COLLAPSED_NORM, (lane, side)
            else:
                assert np.linalg.norm(w - w_ref) <= 1e-10 * np.linalg.norm(w_ref), (lane, side)
    return converged


@pytest.mark.parametrize("m_per_class, branch", BRANCH_SIZES)
def test_masked_lane_matches_subset_fit(m_per_class, branch):
    # Each fold's lanes follow fit_grid on that fold's training samples,
    # scaled alike.
    d = inject_label_noise(gen_example1(m_per_class, seed=5), 0.1, seed=5)
    scaler = fit_scaler(d)
    keeps = fold_masks(d, 4, 2)
    fitted = fit_grid(d, SMW_CFGS * len(keeps), scaler=scaler,
                      mask=np.repeat(keeps, len(SMW_CFGS), axis=0))
    assert {r.pos.branch_used for r in fitted.reports} == {branch}
    converged = 0
    for f, keep in enumerate(keeps):
        ref = fit_grid(subset(d, keep), SMW_CFGS, scaler=scaler)
        for g in range(len(SMW_CFGS)):
            converged += assert_lane_matches_subset(fitted, f * len(SMW_CFGS) + g, keep, ref, g)
    assert converged >= len(keeps) * len(SMW_CFGS)


@pytest.mark.parametrize("m_per_class, branch", BRANCH_SIZES)
def test_masked_out_values_leave_the_lane_unchanged(m_per_class, branch):
    d = gen_example1(m_per_class, seed=6)
    scaler = fit_scaler(d)
    keep = fold_masks(d, 5, 1)[0]
    mask = np.repeat(keep[None], len(SMW_CFGS), axis=0)
    fitted = fit_grid(d, SMW_CFGS, scaler=scaler, mask=mask)
    assert {r.neg.branch_used for r in fitted.reports} == {branch}
    rng = np.random.default_rng(0)
    moved = Dataset(X_pos=d.X_pos.copy(), X_neg=d.X_neg.copy())
    moved.X_pos[~keep[: d.m_pos]] = rng.uniform(-3, 3, ((~keep[: d.m_pos]).sum(), d.n))
    moved.X_neg[~keep[d.m_pos :]] = rng.uniform(-3, 3, ((~keep[d.m_pos :]).sum(), d.n))
    assert_fits_identical(fitted, fit_grid(moved, SMW_CFGS, scaler=scaler, mask=mask))


def test_lanes_take_their_own_folds_branch():
    # Six lifted dimensions: a surface whose lane trains on five samples of
    # the other class solves in sample space, one with eight directly.  The
    # third fold keeps five positives and eight negatives, so its positive
    # surface (other class: negatives) runs direct and its negative SMW.
    d = gen_example1(8, seed=7)
    scaler = fit_scaler(d)
    cut = np.ones(d.m, dtype=bool)
    cut[[0, 1, 2, d.m_pos, d.m_pos + 1, d.m_pos + 2]] = False
    mixed = cut.copy()
    mixed[d.m_pos :] = True
    keeps = [cut, np.ones(d.m, dtype=bool), mixed]
    expect = [("smw", "smw"), ("direct", "direct"), ("direct", "smw")]
    fitted = fit_grid(d, SMW_CFGS * 3, scaler=scaler, mask=np.repeat(keeps, len(SMW_CFGS), axis=0))
    for f, (keep, branches) in enumerate(zip(keeps, expect)):
        ref = fit_grid(subset(d, keep), SMW_CFGS, scaler=scaler)
        for g in range(len(SMW_CFGS)):
            rep = fitted.reports[f * len(SMW_CFGS) + g]
            assert (rep.pos.branch_used, rep.neg.branch_used) == branches
            assert_lane_matches_subset(fitted, f * len(SMW_CFGS) + g, keep, ref, g)


def fold_labels(fitted, lanes, X):
    """Labels of the raw rows X under the given lanes of a GridFit, and the
    larger of each row's two distances."""
    Xs = apply_scaler(fitted.scaler, X)
    d_pos, d_neg = (_distances(Xs, *unpack_weights(w[lanes], X.shape[1], fitted.mode))
                    for w in (fitted.pos, fitted.neg))
    return np.where(d_pos <= d_neg, 1, -1), np.maximum(d_pos, d_neg)


@pytest.mark.parametrize("trainer, grid", [
    (CL1Trainer(), tuple({"c1": a, "c2": b} for a in POWERS for b in POWERS)),
    (LSQTrainer(), tuple({"C": c} for c in POWERS)),
])
def test_stacked_inner_cv_matches_fold_loop(trainer, grid):
    # One stack for all inner folds against one fit per inner fold: the
    # same labels wherever they are not rounding-decided, hence the same
    # counts on every lane with no rounding-decided row.
    d = inject_label_noise(gen_example1(40, seed=3), 0.1, seed=3)
    spec = CvSpec(folds=5, grid=grid)
    scaler = fit_scaler(d)
    k, seed = 4, [0, 0, 2, 1]
    assign = _stratified_folds(d.m_pos, d.m_neg, k, seed)
    held = assign == np.arange(k)[:, None]
    stacked = trainer.fit_split(d, grid * k, spec.mode, scaler,
                                mask=np.repeat(~held, len(grid), axis=0))
    counts = _stack_counts(trainer, d, spec.mode, scaler, fold_blocks(grid, assign, k))
    X, _ = d.stacked()
    loop = []
    compared = 0
    for fold, rows in enumerate(held):
        train, test = _split(d, assign, fold)
        ref = trainer.fit_split(train, grid, spec.mode, scaler)
        labels, far = fold_labels(stacked, slice(fold * len(grid), (fold + 1) * len(grid)),
                                  X[rows])
        labels_ref, far_ref = fold_labels(ref, slice(None), X[rows])
        decided = np.maximum(far, far_ref) < FLOOR_DISTANCE
        np.testing.assert_array_equal(labels[decided], labels_ref[decided])
        loop.append(split_counts(trainer, train, test, grid, spec.mode, scaler))
        for g in np.flatnonzero(decided.all(axis=1)):
            assert counts[fold][g] == loop[fold][g], (fold, grid[g])
            compared += 1
    assert compared >= k * len(grid) // 2


@pytest.mark.parametrize("trainer, grid", [
    (CL1Trainer(), tuple({"c1": a, "c2": b} for a in POWERS for b in POWERS)),
    (LSQTrainer(), tuple({"C": c} for c in POWERS)),
])
def test_flat_cv_stack_matches_fold_loop(trainer, grid):
    # Flat selection fits all outer folds of a repeat as one stack on the
    # whole dataset.  Against one fit per outer fold: the same labels
    # wherever they are not rounding-decided, the same counts on every lane
    # with no rounding-decided row, and the same pick, accuracy and records.
    d = inject_label_noise(gen_example1(40, seed=4), 0.1, seed=4)
    spec = CvSpec(folds=4, repeats=1, seed=6, grid=grid, selection="flat")
    scaler = fit_scaler(d)
    k = spec.folds
    assign = _stratified_folds(d.m_pos, d.m_neg, k, [spec.seed, 0])
    held = assign == np.arange(k)[:, None]
    stacked = trainer.fit_split(d, grid * k, spec.mode, scaler,
                                mask=np.repeat(~held, len(grid), axis=0))
    counts = _stack_counts(trainer, d, spec.mode, scaler, fold_blocks(grid, assign, k))
    X, _ = d.stacked()
    loop = []
    compared = 0
    for fold, rows in enumerate(held):
        train, test = _split(d, assign, fold)
        ref = trainer.fit_split(train, grid, spec.mode, scaler)
        labels, far = fold_labels(stacked, slice(fold * len(grid), (fold + 1) * len(grid)),
                                  X[rows])
        labels_ref, far_ref = fold_labels(ref, slice(None), X[rows])
        decided = np.maximum(far, far_ref) < FLOOR_DISTANCE
        np.testing.assert_array_equal(labels[decided], labels_ref[decided])
        loop.append(split_counts(trainer, train, test, grid, spec.mode, scaler))
        for g in np.flatnonzero(decided.all(axis=1)):
            assert counts[fold][g] == loop[fold][g], (fold, grid[g])
            compared += 1
    assert compared >= k * len(grid) // 2
    means = [np.mean([accuracy(c) for c in per_point]) for per_point in zip(*loop)]
    best = int(np.argmax(means))
    result = cross_validate(d, trainer, spec)
    assert result.best_params == grid[best]
    assert result.acc_mean == means[best]
    assert [(r.fold, r.params, r.counts) for r in result.folds] == [
        (fold, grid[best], loop[fold][best]) for fold in range(k)]


# On the data below, c2 >= 100 makes constant surfaces on every outer fold,
# whose labels rounding decides (ROADMAP item 3); this grid keeps c2 <= 1.
@pytest.mark.parametrize("trainer, grid", [
    (CL1Trainer(), tuple({"c1": a, "c2": b} for a in POWERS for b in POWERS[:3])),
    (LSQTrainer(), tuple({"C": c} for c in POWERS)),
])
@pytest.mark.parametrize("folds_per_stack", [None, 2], ids=["bound", "small-bound"])
def test_nested_cell_stack_matches_fold_loop(monkeypatch, trainer, grid, folds_per_stack):
    # Nested selection under the shared scaler fits the inner CV of all
    # outer folds as masked stacks on the whole dataset, then the outer
    # fits as one more.  Against one outer fold at a time (inner CV on its
    # training split, then an unmasked outer fit): the same counts on every
    # inner lane with no rounding-decided row, and the same pick and outer
    # counts on every outer fold with none.
    d = inject_label_noise(gen_example1(40, seed=3), 0.1, seed=3)
    spec = CvSpec(folds=4, repeats=1, seed=6, grid=grid)
    scaler = fit_scaler(d)
    lanes = evaluation.INNER_FOLDS * len(grid)
    assert spec.folds * lanes <= evaluation.NESTED_STACK_LANES
    if folds_per_stack:
        monkeypatch.setattr(evaluation, "NESTED_STACK_LANES", folds_per_stack * lanes)
    stacks = []
    stack_counts = evaluation._stack_counts

    def count_stacks(*args):
        stacks.append(len(args[-1]))
        return stack_counts(*args)

    # Each label_stack call labels one fold's held-out rows under its
    # lanes: the inner folds of every outer fold in order, then the outer
    # folds.  Keep the labels and the larger of each row's two distances.
    labelled = []

    def spy(scaler, pos, neg, X):
        Xs = apply_scaler(scaler, X)
        labels = label_stack(scaler, pos, neg, X)
        labelled.append((labels, np.maximum(_distances(Xs, *pos), _distances(Xs, *neg))))
        return labels

    monkeypatch.setattr(evaluation, "_stack_counts", count_stacks)
    monkeypatch.setattr(evaluation, "label_stack", spy)
    result = cross_validate(d, trainer, spec)
    # Inner stacks of whole outer folds (one block per inner fold), within
    # the bound, then one outer stack of one block per outer fold.
    per_stack = folds_per_stack or spec.folds
    assert stacks == [per_stack * evaluation.INNER_FOLDS] * (spec.folds // per_stack) + [
        spec.folds]
    inner_labelled, outer_labelled = iter(labelled[: -spec.folds]), labelled[-spec.folds :]
    assign = _stratified_folds(d.m_pos, d.m_neg, spec.folds, [spec.seed, 0])
    inner_compared = outer_compared = 0
    for fold, record in enumerate(result.folds):
        train, test = _split(d, assign, fold)
        inner = _stratified_folds(train.m_pos, train.m_neg, evaluation.INNER_FOLDS,
                                  [spec.seed, 0, fold, 1])
        loop, fold_decided = [], True
        for j in range(evaluation.INNER_FOLDS):
            inner_train, inner_test = _split(train, inner, j)
            X, y = inner_test.stacked()
            labels_ref, far_ref = fold_labels(trainer.fit_split(inner_train, grid, spec.mode,
                                                                scaler), slice(None), X)
            labels, far = next(inner_labelled)
            decided = np.maximum(far, far_ref) < FLOOR_DISTANCE
            np.testing.assert_array_equal(labels[decided], labels_ref[decided])
            fold_decided &= bool(decided.all())
            inner_compared += int(decided.all(axis=1).sum())
            loop.append(evaluation.counts_stack(y, labels_ref))
        X, y = test.stacked()
        labels_ref, far_ref = fold_labels(trainer.fit_split(train, (record.params,), spec.mode,
                                                            scaler), slice(None), X)
        if fold_decided and (np.maximum(outer_labelled[fold][1], far_ref) < FLOOR_DISTANCE).all():
            assert record.params == evaluation._best_point(grid, loop), fold
            assert record.counts == evaluation.counts_stack(y, labels_ref)[0], fold
            outer_compared += 1
    assert outer_compared >= spec.folds // 2
    assert inner_compared >= spec.folds * evaluation.INNER_FOLDS * len(grid) // 2


def per_fold_reference(d, trainer, spec):
    """The outer folds' records of cross_validate under per-fold scaling,
    one fit_split per training split, each under its own scaler: for flat
    selection one record per grid point and fold, for nested selection one
    per fold at the grid point its inner CV picks."""
    per_fold = []
    for rep in range(spec.repeats):
        assign = _stratified_folds(d.m_pos, d.m_neg, spec.folds, [spec.seed, rep])
        for fold in range(spec.folds):
            train, test = _split(d, assign, fold)
            if spec.selection == "flat":
                counts = split_counts(trainer, train, test, spec.grid, spec.mode, None)
                per_fold.append([(rep, fold, p, c) for p, c in zip(spec.grid, counts)])
                continue
            inner, k = _inner_folds(train.m_pos, train.m_neg, [spec.seed, rep, fold, 1])
            params = _best_point(spec.grid, [
                split_counts(trainer, *_split(train, inner, j), spec.grid, spec.mode, None)
                for j in range(k)])
            [counts] = split_counts(trainer, train, test, (params,), spec.mode, None)
            per_fold.append([(rep, fold, params, counts)])
    return per_fold


@pytest.mark.parametrize("trainer, grid", [
    (CL1Trainer(), tuple({"c1": a, "c2": b} for a in POWERS for b in POWERS)),
    (LSQTrainer(), tuple({"C": c} for c in POWERS)),
])
@pytest.mark.parametrize("selection", ["flat", "nested"])
def test_per_fold_cv_matches_fold_loop(trainer, grid, selection):
    # Under per-fold scaling every block of a stack is a fit of its own, on
    # its training split under that split's scaler, so cross_validate equals
    # one fit per fold exactly: the same records, picks and accuracy.
    # On these data per-fold and shared scaling give other records under
    # both trainers and both selections.
    d = inject_label_noise(gen_example3(20, seed=3), 0.1, seed=3)
    spec = CvSpec(folds=4, repeats=2, seed=3, grid=grid, selection=selection,
                  normalize="per-fold")
    ref = per_fold_reference(d, trainer, spec)
    result = cross_validate(d, trainer, spec)
    if selection == "flat":
        means = [np.mean([accuracy(c) for *_, c in per_point]) for per_point in zip(*ref)]
        best = int(np.argmax(means))
        assert result.best_params == grid[best]
        assert result.acc_mean == means[best]
        expected = [records[best] for records in ref]
    else:
        expected = [record for [record] in ref]
        assert result.acc_mean == np.mean([accuracy(c) for *_, c in expected])
    assert [(r.repeat, r.fold, r.params, r.counts) for r in result.folds] == expected
