"""Capped-L1 quadratic-surface twin SVM trainer.

Each of the two surfaces solves a nonsmooth capped-L1 problem through a
reweighted sequence of ridge-regularized weighted least squares: weights
are recomputed from the current residuals, then the weighted normal
equations are solved in closed form, either directly in lifted space or,
through the push-through form of the Sherman-Morrison-Woodbury identity,
as one system in sample space whose Gram matrix is formed once per fit.

The iteration runs over a stack of lanes, one per configuration, on data
scaled and lifted once: ``fit_grid`` fits a whole hyperparameter grid that
way and ``fit`` is its one-lane case.  A lane may also train on a
subset of the samples, given as a mask, so that the folds of a
cross-validation split are lanes of the same stack.  The schedule is one
generator, ``_irls_steps``: a fit keeps its iterates, and its reports re-run
the same generator on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from numpy.linalg import LinAlgError

from .data import Dataset, NormalizationParams, fit_scaler, scale_dataset
from .errors import InvalidInputError, NumericError, check_int
from .lifting import LiftingMode, lift_matrix, lifting_mode
from .model import TrainedModel


# The reciprocal weights take |r| no smaller than this, so none exceeds 1e12.
WEIGHT_FLOOR = 1e-12
# A lane has converged once its step is at most CONV_TOL (1 + |previous iterate|).
CONV_TOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the capped-L1 trainer.

    c1 weighs the L2 regularization term, c2 the slack penalty on the
    opposite class, cap_eps is the saturation threshold of the capped-L1
    loss.
    """

    c1: float = 1.0
    c2: float = 1.0
    cap_eps: float = 1.0
    max_iter: int = 30
    branch: str = "auto"  # "auto" | "smw" | "direct"

    def __post_init__(self):
        # Written so that NaN, for which every comparison is False, fails.  An
        # infinite cap would make the saturated loss inf - inf.
        if not all(0 < v < math.inf for v in (self.c1, self.c2, self.cap_eps)):
            raise InvalidInputError("c1, c2 and cap_eps must be finite and > 0")
        check_int(self.max_iter, "max_iter", 1)
        if self.branch not in ("auto", "smw", "direct"):
            raise InvalidInputError(f"unknown branch {self.branch!r}")


@dataclass(frozen=True)
class ReweightState:
    """Diagonal reweighting of one subproblem.

    q holds the weights on the subproblem's own-class residuals, u the
    weights on the opposite-class slacks, each one lane's vector or a
    stack with one row per lane.  (The second subproblem's pair, often
    written (f, g), is just another instance of the same structure.)
    """

    q: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class SubproblemReport:
    """Per-surface fit diagnostics.

    final_state holds the reweighting used for the last solve, so the
    returned weight vector satisfies the weighted normal equations built
    from it up to linear-algebra precision.  lstsq_fallbacks counts the
    factorizations that Cholesky rejected and least squares solved instead;
    peak_weight is the largest weight of any solve.
    """

    objective_trace: np.ndarray
    iterations_used: int
    converged: bool
    branch_used: str
    final_state: ReweightState
    lstsq_fallbacks: int
    peak_weight: float


@dataclass(frozen=True)
class FitReport:
    pos: SubproblemReport
    neg: SubproblemReport

    @property
    def converged(self) -> bool:
        return self.pos.converged and self.neg.converged


@dataclass(frozen=True)
class GridFit:
    """Models of one dataset under G configurations, as surface stacks.

    pos and neg are stacks of lifted weight vectors, shape (G, lifted_dim),
    row g holding configuration g's surface; lstsq_fallbacks[g] counts
    configuration g's least-squares fallbacks over both surfaces.
    reports[g] belongs to configuration g; the list is derived from the
    iterates the IRLS kept the first time it is read, so a caller that
    reads only the surfaces never pays for it.  replays holds
    (side, lanes, replay) for each stacked IRLS run, replay() giving the
    SubproblemReports of those lanes.
    """

    scaler: NormalizationParams
    mode: LiftingMode
    pos: np.ndarray
    neg: np.ndarray
    lstsq_fallbacks: np.ndarray
    replays: tuple = field(repr=False, compare=False)

    @cached_property
    def reports(self) -> list:
        reps = {side: [None] * len(self.lstsq_fallbacks) for side in ("pos", "neg")}
        for side, lanes, replay in self.replays:
            for g, rep in zip(lanes, replay()):
                reps[side][g] = rep
        return [FitReport(pos=p, neg=q) for p, q in zip(reps["pos"], reps["neg"])]

    def model(self, g: int) -> TrainedModel:
        """The trained classifier of configuration g."""
        return TrainedModel(self.pos[g], self.neg[g], self.mode, self.scaler)


# Most memory one chunk of lanes may take for a (lanes, l, samples)
# product or a (lanes, l, l) system in the stacked direct solve.
LANE_CHUNK_BYTES = 64 * 2**20

# Direct and SMW systems up to this size are solved as one numpy stack,
# which saves a call per lane.  Larger ones are solved lane by lane with
# scipy's Cholesky solve, which is then cheaper than numpy's Cholesky test
# plus LU solve (at l = 201, 0.22 ms against 0.61 ms with one OpenBLAS
# thread on a 2.1 GHz Xeon; the two break even near l = 50).  Only that
# path imports scipy.linalg, which takes about 0.3 s and 28 MB, most of a
# cold start; small systems never load it.  Every large lane is factored
# with overwrite_a, in place where it is in Fortran order (_psd_solve_stack).
STACKED_SOLVE_MAX_DIM = 50


# Every subproblem below is written for the positive surface, with Z_own
# the lifted samples of its own class and Z_other those of the other class:
# own-class residuals are w.z over the own class, slacks 1 + w.z over the
# other.  The negative surface is minus the positive one with the classes
# swapped, since negating w negates every residual and turns the slacks
# 1 - w.z into 1 + (-w).z.  Each step takes a stack of lanes, one row per
# lane; own and other are masks of the samples each lane trains on, and
# cap_eps, given per lane, is a column of their caps.


def compute_weights_pos(R, S, cap_eps, own, other) -> ReweightState:
    """Weights for the positive-surface subproblem from the magnitudes R of
    the own-class residuals and S of the slacks, written over R and S:
    reciprocal below the cap (boundary included), cap_eps above it, and 0
    on a sample that the masks own and other leave out.

    This is the iteratively reweighted rule L'(r)/r for the mixed loss
    L(r) = |r| below the cap and (eps/2) r^2 + eps - eps^3/2 above it:
    L(sqrt(t)) is concave and continuous for eps <= 1, so each weighted
    solve majorizes-and-minimizes that loss.  Keeping a small positive
    weight on saturated residuals retains margin pressure from far-side
    points.  WEIGHT_FLOOR guards the reciprocal against division by zero.
    """
    for a, keep in ((R, own), (S, other)):
        # Written so that NaN and inf saturate.  A masked copy: where 10-15 %
        # of entries saturate, as in grid search, a boolean-index assignment,
        # np.where and an arithmetic select are all slower.
        saturated = ~(a <= cap_eps)
        np.maximum(a, WEIGHT_FLOOR, out=a)
        np.divide(1.0, a, out=a)
        np.copyto(a, cap_eps, where=saturated)
        a *= keep
    return ReweightState(q=R, u=S)


def _psd_solve_stack(G, per_lane, system):
    """Solve the G lanes' symmetric systems B[g] x = rhs[g], formed as
    (B, rhs) = system(sl) for chunks of lanes sl of at most LANE_CHUNK_BYTES
    (per_lane bytes a lane); a lane whose matrix Cholesky rejects gets least
    squares instead.

    Every system is positive definite in exact arithmetic (c1 > 0), but
    reciprocal weights spanning many orders of magnitude can push one past
    what Cholesky tolerates in floating point.  Systems up to
    STACKED_SOLVE_MAX_DIM take numpy's stacked Cholesky test and LU solve,
    which leave B intact for least squares; when the stacked test fails,
    numpy's Cholesky of each lane finds the lanes it rejects.  Larger
    systems take scipy's Cholesky solve lane by lane with overwrite_a,
    which factors a lane in Fortran order over its own buffer (one in C
    order is copied), so a large lane that falls back is formed again.

    Returns the solutions and a per-lane flag of the lanes that fell back.
    """
    chunk = max(1, LANE_CHUNK_BYTES // per_lane)
    parts = []
    for s in range(0, G, chunk):
        B, rhs = system(slice(s, s + chunk))
        X = np.empty_like(rhs)
        fell = np.zeros(len(B), dtype=bool)
        large = B.shape[-1] > STACKED_SOLVE_MAX_DIM
        if large:
            from scipy.linalg import cho_factor, cho_solve

            # _irls rejects a non-finite iterate, so scipy need not scan B.
            for g, A in enumerate(B):
                try:
                    X[g] = cho_solve(cho_factor(A, lower=True, overwrite_a=True,
                                                check_finite=False), rhs[g], check_finite=False)
                except LinAlgError:
                    fell[g] = True
        else:
            try:
                np.linalg.cholesky(B)
            except LinAlgError:
                # The stacked factorization fails as a whole; find the lanes.
                for g, A in enumerate(B):
                    try:
                        np.linalg.cholesky(A)
                    except LinAlgError:
                        fell[g] = True
            ok = ~fell
            try:
                X[ok] = np.linalg.solve(B[ok], rhs[ok, :, None])[..., 0]
            except LinAlgError:
                # LU found a matrix exactly singular that Cholesky passed
                # (pivots rounded to tiny positives); such lanes fall back too.
                for g in np.flatnonzero(ok):
                    try:
                        X[g] = np.linalg.solve(B[g], rhs[g])
                    except LinAlgError:
                        fell[g] = True
        for g in np.flatnonzero(fell):
            A = system(slice(s + g, s + g + 1))[0][0] if large else B[g]
            X[g] = np.linalg.lstsq(A, rhs[g], rcond=None)[0]
        parts.append((X, fell))
    return np.concatenate([x for x, _ in parts]), np.concatenate([f for _, f in parts])


def _pair_products(Z):
    """The pairwise row products of Z, shape (l * l, m), from which
    _gram_stack forms a stack of weighted Grams in one product; None where
    l is too large for that to pay or the products would take more than
    LANE_CHUNK_BYTES."""
    l, m = Z.shape
    if l <= STACKED_SOLVE_MAX_DIM and 8 * l * l * m <= LANE_CHUNK_BYTES:
        return (Z[:, None, :] * Z[None, :, :]).reshape(l * l, m)
    return None


def _gram_stack(Z, Q, P):
    """Stack of the weighted Gram matrices Z diag(q) Z', one per row q of Q,
    from Z's pair products P when _pair_products gave them."""
    if P is not None:
        # One product: far cheaper than a small product per lane when l is
        # small (and far dearer when not).
        return (Q @ P.T).reshape(-1, Z.shape[0], Z.shape[0])
    return (Z * Q[:, None, :]) @ Z.T


def _solve_direct(Z_own, Z_other, Q, U, c1, c2, pairs):
    """The stacked solves in lifted space: w = -c2 x for B x = Z_other u,
    the Grams formed from the pair products pairs = (own, other).  A Gram
    (Z q) Z' is symmetric only to rounding, so B stays in C order, which
    LAPACK factors in a copy: factoring its transpose instead
    changed every weight of a 100-feature reduced fit, by up to 2.9e-6
    relative."""
    l = Z_own.shape[0]
    diag = np.arange(l)
    P_own, P_other = pairs

    def system(sl):
        B = _gram_stack(Z_own, Q[sl], P_own)
        B += c2[sl, None, None] * _gram_stack(Z_other, U[sl], P_other)
        B[:, diag, diag] += c1[sl, None]
        return B, U[sl] @ Z_other.T

    X, fell = _psd_solve_stack(len(Q), 8 * l * (l + max(Z_own.shape[1], Z_other.shape[1])),
                               system)
    return -c2[:, None] * X, fell


def _solve_sample_space(Z_own, Z_other, Q, U, c1, c2, gram):
    """Stacked SMW solves in sample space.  With Z = [Z_own, Z_other],
    D = diag(q, c2 u) and gram = Z'Z, (c1 I + Z D Z')^{-1} Z D equals
    Z (gram + c1 D^{-1})^{-1}, so w = -Z (gram + c1 D^{-1})^{-1} [0; 1].  A
    zero weight drops its sample: identity row and column, zero right-hand side.

    Each system is exactly symmetric, since gram is numpy's syrk product
    Z'Z or its rolled copy and the masking and the ridge keep it so.  Its
    transpose is then the same matrix in the Fortran order LAPACK works in,
    so a large lane is factored in place, with no copy.  A chunk whose
    samples are all live copies gram instead of masking it."""
    a = Z_own.shape[1]
    D = np.hstack([Q, c2[:, None] * U])
    live = D != 0
    idx = np.arange(D.shape[1])
    ridge = np.divide(c1[:, None], D, out=np.ones_like(D), where=live)

    def system(sl):
        if live[sl].all():
            B = np.repeat(gram[None], len(live[sl]), axis=0)
        else:
            B = np.where(live[sl, :, None] & live[sl, None, :], gram, 0.0)
        B[:, idx, idx] += ridge[sl]
        return B.transpose(0, 2, 1), (live[sl] & (idx >= a)).astype(float)

    A, fell = _psd_solve_stack(len(D), 8 * D.shape[1] ** 2, system)
    return -(A[:, :a] @ Z_own.T + A[:, a:] @ Z_other.T), fell


def _sample_gram(Z_own, Z_other):
    """Gram matrix of the samples [Z_own, Z_other], for the SMW branch:
    exactly symmetric, since numpy forms Z'Z from one buffer with syrk."""
    Z = np.hstack([Z_own, Z_other])
    return Z.T @ Z


def update_w_plus(Z_own, Z_other, state: ReweightState, c1, c2, branch, consts):
    """Solve (Z_own diag(q) Z_own' + c1 I + c2 Z_other diag(u) Z_other') w
    = -c2 * Z_other u for every lane g (rows of state.q and state.u,
    entries of c1 and c2) by the given branch, on what it takes from the
    data alone, formed once per fit: consts is the sample Gram for SMW (see
    _sample_gram), the pair products (own, other) for the direct branch.

    Returns the solutions, shape (G, l), and each lane's count of
    factorizations that fell back to least squares.
    """
    solve = _solve_sample_space if branch == "smw" else _solve_direct
    return solve(Z_own, Z_other, state.q, state.u, c1, c2, consts)


def _mixed_loss_sum(a: np.ndarray, cap_eps, keep) -> np.ndarray:
    """Sum over the samples that keep marks of the loss the reweighting
    scheme descends on, at residuals of magnitude a: |r| below the cap,
    (eps/2) r^2 + eps - eps^3/2 above it (continuous at |r| = eps)."""
    e = cap_eps
    loss = np.square(a)
    loss *= 0.5 * e
    loss += e
    # Python's float power per cap: numpy's array power can differ in the last bit.
    loss -= 0.5 * np.array([x**3 for x in np.ravel(e).tolist()]).reshape(np.shape(e))
    np.copyto(loss, a, where=a <= e)
    loss *= keep
    return loss.sum(axis=-1)


def objective_plus(w, abs_residuals, abs_slacks, c1, c2, cap_eps, own, other):
    """Mixed-loss objective of the positive-surface subproblem for each lane,
    from the magnitudes of its iterate's residuals and slacks, counting the
    samples that the masks own and other mark."""
    return (_mixed_loss_sum(abs_residuals, cap_eps, own) + 0.5 * c1 * (w * w).sum(axis=-1)
            + c2 * _mixed_loss_sum(abs_slacks, cap_eps, other))


def _abs_residuals(W, Z_own, Z_other, R=None, S=None):
    """Magnitudes of each lane's own-class residuals W Z_own and slacks
    1 + W Z_other, the input of both the next weights and the objective;
    written over the buffers R and S when given."""
    R = np.matmul(W, Z_own, out=R)
    np.abs(R, out=R)
    S = np.matmul(W, Z_other, out=S)
    np.add(S, 1.0, out=S)
    np.abs(S, out=S)
    return R, S


@dataclass(frozen=True)
class _Lanes:
    """Each lane's settings in a stack of IRLS lanes: c1, c2, cap_eps (a
    column), max_iter, and the boolean masks own and other of the samples it
    trains on.  Indexing takes a subset of the lanes."""

    c1: np.ndarray
    c2: np.ndarray
    cap_eps: np.ndarray
    max_iter: np.ndarray
    own: np.ndarray
    other: np.ndarray

    def __getitem__(self, sel) -> _Lanes:
        return _Lanes(**{k: v[sel] for k, v in vars(self).items()})


def _irls_steps(Z_own, Z_other, lanes: _Lanes, solve):
    """The schedule of the capped-L1 IRLS of the positive subproblem over a
    stack of lanes, written once for the fit and for its report replay.  An
    unmarked sample of a lane's masks gets weight 0 in every state.

    solve(state, run) gives the running lanes' iterates and fallback flags.
    Each step yields (at, run, W_new, fell, state, stop, done): the running
    lanes' positions in the stack and their settings, solve's output, the
    weights it solved with (overwritten once the next step is asked for),
    the lanes that stop here and those that met the step rule.  A lane stops
    on its own step rule or at its own max_iter; only the running lanes are
    carried."""
    at = np.arange(lanes.c1.size)
    W_old = np.zeros((at.size, Z_own.shape[0]))
    # The zero start carries no residual information (own-class
    # reciprocals would all hit the division floor), so the first update
    # is a plain unweighted least-squares step on each lane's samples.
    state = ReweightState(q=lanes.own.astype(float), u=lanes.other.astype(float))
    for t in range(lanes.max_iter.max()):
        W_new, fell = solve(state, lanes)
        step = np.linalg.norm(W_new - W_old, axis=1)
        done = step <= CONV_TOL * (1.0 + np.linalg.norm(W_old, axis=1))
        stop = done | (lanes.max_iter <= t + 1)
        yield at, lanes, W_new, fell, state, stop, done
        if stop.all():
            return
        # The solve is done with the weights, so their buffers take |r|,
        # which the next weights are written over.
        R, S = _abs_residuals(W_new, Z_own, Z_other, state.q, state.u)
        if stop.any():
            run = ~stop
            at, lanes, W_new, R, S = at[run], lanes[run], W_new[run], R[run], S[run]
        W_old = W_new
        state = compute_weights_pos(R, S, lanes.cap_eps, lanes.own, lanes.other)


def _irls(Z_own, Z_other, lanes: _Lanes, branch, consts):
    """_irls_steps solved by update_w_plus on the given branch with its
    constants consts, keeping each step's solve output.  Returns the weight
    vectors, shape (G, l), each lane's count of least-squares fallbacks, and
    a callable that replays the kept iterates into one SubproblemReport per
    lane (see _replay)."""
    W = np.empty((lanes.c1.size, Z_own.shape[0]))
    fallbacks = np.zeros(lanes.c1.size, dtype=int)
    kept = []
    steps = _irls_steps(Z_own, Z_other, lanes, lambda state, run:
                        update_w_plus(Z_own, Z_other, state, run.c1, run.c2, branch, consts))
    # A penalty large enough to overflow gives a non-finite iterate, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (at, _, W_new, fell, _, stop, _) in enumerate(steps):
            if not np.isfinite(W_new).all():
                raise NumericError(f"non-finite iterate at iteration {t}")
            kept.append((W_new, fell))
            fallbacks[at] += fell
            W[at[stop]] = W_new[stop]
    return W, fallbacks, partial(_replay, kept, fallbacks, Z_own, Z_other, lanes, branch)


def _replay(kept, fallbacks, Z_own, Z_other, lanes: _Lanes, branch):
    """One SubproblemReport per lane of an _irls run: _irls_steps re-run with
    the kept solve outputs in place of the solves, so each lane stops where
    it stopped and each weight has its bits, recording each lane's objective
    trace, final state (the weights of its last solve) and peak weight."""
    G = lanes.c1.size
    trace = np.empty((len(kept), G))
    iters, converged, peak = np.zeros(G, dtype=int), np.zeros(G, dtype=bool), np.zeros(G)
    Q, U = np.empty(lanes.own.shape), np.empty(lanes.other.shape)
    outputs = iter(kept)
    steps = _irls_steps(Z_own, Z_other, lanes, lambda *_: next(outputs))
    for t, (at, run, W, _, state, stop, done) in enumerate(steps):
        peak[at] = np.maximum(peak[at], np.maximum(state.q.max(axis=1), state.u.max(axis=1)))
        fin = at[stop]
        Q[fin], U[fin], iters[fin], converged[fin] = state.q[stop], state.u[stop], t + 1, done[stop]
        R, S = _abs_residuals(W, Z_own, Z_other)
        trace[t, at] = objective_plus(W, R, S, run.c1, run.c2, run.cap_eps, run.own, run.other)
    return [
        SubproblemReport(
            objective_trace=trace[: iters[g], g].copy(),
            iterations_used=int(iters[g]),
            converged=bool(converged[g]),
            branch_used=branch,
            final_state=ReweightState(q=Q[g], u=U[g]),
            lstsq_fallbacks=int(fallbacks[g]),
            peak_weight=float(peak[g]),
        )
        for g in range(G)
    ]


def fit_grid(
    dataset: Dataset,
    cfgs,
    mode: LiftingMode = LiftingMode.FULL,
    scaler: NormalizationParams | None = None,
    mask=None,
) -> GridFit:
    """Train the capped-L1 twin classifier under each configuration of
    ``cfgs`` on one scaled and lifted copy of the dataset.

    Every configuration is a lane, starting cold from zero with its own
    c1, c2, cap_eps and max_iter; lanes split into stacked IRLS runs only by
    side and solve branch.  When ``scaler`` is None the [-1, 1] rescaling is
    fit on this dataset.

    ``mask``, when given, has one row per configuration over the samples
    in ``dataset.stacked()`` order (positives first): configuration g
    trains on the samples where mask[g] is nonzero, as if fit on that
    subset with the given ``scaler``, which a mask requires.  Each lane
    takes its solve branch from its own training count of the other class.
    """
    mode = lifting_mode(mode)
    if dataset.m_pos == 0 or dataset.m_neg == 0:
        raise InvalidInputError("both classes must be nonempty")
    if mask is None:
        mask = np.ones((len(cfgs), dataset.m), dtype=bool)
    elif scaler is None:
        # A scaler fit here would also see the samples the mask leaves out.
        raise InvalidInputError("a mask needs the scaler of the masked problem")
    mask = np.asarray(mask) != 0
    if mask.shape != (len(cfgs), dataset.m):
        raise InvalidInputError(f"mask shape {mask.shape} is not ({len(cfgs)}, {dataset.m})")
    masks = {"pos": mask[:, : dataset.m_pos], "neg": mask[:, dataset.m_pos :]}
    if not all(m.any(axis=1).all() for m in masks.values()):
        raise InvalidInputError("every masked configuration needs samples of both classes")
    if scaler is None:
        scaler = fit_scaler(dataset)
    scaled = scale_dataset(dataset, scaler)
    Z = {"pos": lift_matrix(scaled.X_pos, mode).T, "neg": lift_matrix(scaled.X_neg, mode).T}
    l = Z["pos"].shape[0]
    c1, c2, cap_eps, max_iter = (np.array([getattr(cfg, k) for cfg in cfgs])
                                 for k in ("c1", "c2", "cap_eps", "max_iter"))
    w = {side: np.empty((len(cfgs), l)) for side in Z}
    fallbacks = np.zeros(len(cfgs), dtype=int)
    replays = []
    consts = {}  # each branch's constants by side (see update_w_plus)
    for own, other in (("pos", "neg"), ("neg", "pos")):
        table = _Lanes(c1, c2, cap_eps[:, None], max_iter, masks[own], masks[other])
        # Under "auto", SMW factors an (m_own + m_other)-sized system on a Gram
        # formed once per fit, direct an l x l system formed each iteration.
        # Strictly greater: at equality the direct solve runs.
        branches = [("smw" if l > m else "direct") if cfg.branch == "auto" else cfg.branch
                    for m, cfg in zip(masks[other].sum(axis=1), cfgs)]
        for branch in dict.fromkeys(branches):
            lanes = np.flatnonzero(np.array(branches) == branch)
            if branch == "smw" and branch not in consts:
                gram = _sample_gram(Z["pos"], Z["neg"])
                # Swapping the classes swaps the Gram's blocks.
                rolled = np.roll(gram, (-Z["pos"].shape[1],) * 2, axis=(0, 1))
                consts[branch] = {"pos": gram, "neg": rolled}
            elif branch not in consts:
                P = _pair_products(Z["pos"]), _pair_products(Z["neg"])
                consts[branch] = {"pos": P, "neg": P[::-1]}
            w[own][lanes], fell, replay = _irls(Z[own], Z[other], table[lanes], branch,
                                                consts[branch][own])
            fallbacks[lanes] += fell
            replays.append((own, lanes, replay))
    return GridFit(
        scaler=scaler,
        mode=mode,
        pos=w["pos"],
        # The positive solve on swapped classes gives minus the negative surface.
        neg=-w["neg"],
        lstsq_fallbacks=fallbacks,
        replays=tuple(replays),
    )


def fit(dataset: Dataset, cfg: SolverConfig, mode: LiftingMode = LiftingMode.FULL):
    """Train the capped-L1 twin classifier, with the [-1, 1] rescaling fit on
    this dataset; returns (TrainedModel, FitReport)."""
    grid = fit_grid(dataset, [cfg], mode)
    return grid.model(0), grid.reports[0]
