"""Cross-validation, grid search, benchmark sweeps, metrics, and the
Nemenyi critical-difference test."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, fit_scaler
from .errors import InvalidInputError, check_int
from .lifting import LiftingMode, lifting_mode, unpack_weights
from .model import label_stack
from .solver_cl1 import SolverConfig, fit_grid
from .solver_lsq import fit_lsq_grid

# Studentized-range critical values over sqrt(2), alpha = 0.05.
Q_ALPHA_05 = {
    2: 1.959964,
    3: 2.343701,
    4: 2.569032,
    5: 2.727774,
    6: 2.849705,
    7: 2.948319,
    8: 3.030879,
    9: 3.101730,
    10: 3.163684,
}

# Nested selection's inner CV uses this many folds, or fewer where a class
# of the outer training split has fewer samples.
INNER_FOLDS = 5

# Under a shared scaler, nested selection fits the inner-CV lanes of as many
# consecutive outer folds as fit in this many lanes as one stack (a fold
# larger than that alone): one outer fold of the default capped-L1 grid,
# INNER_FOLDS x 121 lanes.  A stack's peak memory grows by about 5 KB per
# lane on 200 samples, and a default-grid sweep runs no faster in stacks of
# whole cells, so a larger bound would cost memory for no speed.
NESTED_STACK_LANES = 605


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def counts_stack(y_true: np.ndarray, labels: np.ndarray) -> list[ConfusionCounts]:
    """Confusion counts of each row of a (G, rows) label stack."""
    true_pos, true_neg = y_true == 1, y_true == -1
    pred_pos, pred_neg = labels == 1, labels == -1
    table = np.stack([(pred_pos & true_pos).sum(axis=1), (pred_neg & true_neg).sum(axis=1),
                      (pred_pos & true_neg).sum(axis=1), (pred_neg & true_pos).sum(axis=1)],
                     axis=1)
    return [ConfusionCounts(*row) for row in table.tolist()]


def counts_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    return counts_stack(np.asarray(y_true), np.asarray(y_pred)[None])[0]


def accuracy(counts: ConfusionCounts) -> float:
    if counts.total < 1:
        raise InvalidInputError("accuracy needs at least one sample")
    return (counts.tp + counts.tn) / counts.total


def f1(counts: ConfusionCounts) -> float:
    """F1 score; NaN when 2TP + FN + FP = 0 (no positives anywhere)."""
    if counts.total < 1:
        raise InvalidInputError("f1 needs at least one sample")
    denom = 2 * counts.tp + counts.fn + counts.fp
    if denom == 0:
        return float("nan")
    return 2 * counts.tp / denom


def _check_grid_keys(grid, allowed: set) -> None:
    """Raise InvalidInputError naming the first key of a grid point, in
    sorted order, that is not in allowed."""
    unknown = sorted({key for params in grid for key in params} - allowed)
    if unknown:
        raise InvalidInputError(f"unknown grid key {unknown[0]!r} (allowed: {sorted(allowed)})")


class CL1Trainer:
    """Grid-searchable wrapper around the capped-L1 solver: fit_split(train,
    grid, mode, scaler, mask=None) fits a grid of parameter dicts on the
    training split as one GridFit, lane g on the samples that mask[g] keeps
    (see fit_grid)."""

    name = "cl1qtsvm"

    @staticmethod
    def fit_split(train, grid, mode, scaler, mask=None):
        # A CV stack repeats its grid once per fold; each distinct point is
        # made and validated once.
        points = {tuple(p.items()): p for p in grid}
        _check_grid_keys(points.values(), {f.name for f in fields(SolverConfig)})
        configs = {key: SolverConfig(**p) for key, p in points.items()}
        return fit_grid(train, [configs[tuple(p.items())] for p in grid], mode, scaler, mask)


class LSQTrainer:
    """Grid-searchable wrapper around the least-squares baseline; fit_split
    as in CL1Trainer."""

    name = "lsqtsvm"

    @staticmethod
    def fit_split(train, grid, mode, scaler, mask=None):
        _check_grid_keys(grid, {"C"})
        if not all("C" in params for params in grid):
            raise InvalidInputError("every lsqtsvm grid point needs a 'C'")
        return fit_lsq_grid(train, [params["C"] for params in grid], mode=mode,
                            scaler=scaler, mask=mask)


def default_grid(method: str) -> list[dict]:
    """The 10^i, i = -5..5 hyperparameter grid for either method."""
    powers = [10.0**i for i in range(-5, 6)]
    if method == "cl1qtsvm":
        return [{"c1": a, "c2": b} for a in powers for b in powers]
    if method == "lsqtsvm":
        return [{"C": c} for c in powers]
    raise InvalidInputError(f"unknown method {method!r}")


@dataclass(frozen=True)
class CvSpec:
    """Cross-validation protocol: outer k-fold repeated r times, grid
    selection either nested (inner CV per outer split) or flat (one grid
    point chosen by mean outer CV accuracy)."""

    folds: int = 5
    repeats: int = 2
    seed: int = 0
    grid: tuple = ()
    mode: LiftingMode = LiftingMode.FULL
    selection: str = "nested"  # "nested" | "flat"
    normalize: str = "full"  # "full" | "per-fold"

    def __post_init__(self):
        check_int(self.folds, "folds", 2)
        check_int(self.repeats, "repeats", 1)
        check_int(self.seed, "seed", 0)
        if not self.grid:
            raise InvalidInputError("hyperparameter grid must be nonempty")
        for key, values in (("selection", ("nested", "flat")), ("normalize", ("full", "per-fold"))):
            if (value := getattr(self, key)) not in values:
                raise InvalidInputError(
                    f"{key!r} must be {' or '.join(map(repr, values))}, got {value!r}")
        object.__setattr__(self, "mode", lifting_mode(self.mode))


@dataclass(frozen=True)
class FoldRecord:
    repeat: int
    fold: int
    params: dict
    counts: ConfusionCounts


@dataclass(frozen=True)
class EvalResult:
    acc_mean: float
    acc_std: float
    f1_mean: float
    f1_std: float
    best_params: dict
    folds: tuple  # of FoldRecord


def _stratified_folds(m_pos, m_neg, k, seed_key):
    """Fold index per sample (positives first), stratified per class.

    Deterministic in seed_key; each class is permuted then dealt
    round-robin so every fold keeps both classes as balanced as possible.
    """
    rng = np.random.default_rng(seed_key)
    assign = np.empty(m_pos + m_neg, dtype=int)
    assign[:m_pos] = np.arange(m_pos) % k
    assign[:m_pos] = assign[:m_pos][rng.permutation(m_pos)]
    assign[m_pos:] = np.arange(m_neg) % k
    assign[m_pos:] = assign[m_pos:][rng.permutation(m_neg)]
    return assign


def _subset(dataset: Dataset, keep: np.ndarray) -> Dataset:
    """The samples that the boolean row mask keep marks, in dataset.stacked()
    order (positives first)."""
    return Dataset(X_pos=dataset.X_pos[keep[: dataset.m_pos]],
                   X_neg=dataset.X_neg[keep[dataset.m_pos :]])


def _stack_counts(trainer, dataset, mode, scaler, blocks):
    """Confusion counts of masked fits on the whole dataset, one list per
    block (grid, train, held) in grid order: the block's grid points are fit
    on the samples that the boolean row mask train marks and counted on the
    rows that held marks.  Under a shared scaler all blocks' lanes are one
    stack on the dataset scaled and lifted once, less the samples that no
    lane trains on; with per-fold scaling (scaler None) each block is a
    stack of its own under the scaler of its training split."""
    if scaler is None:
        return [counts for block in blocks
                for counts in _stack_counts(trainer, dataset, mode,
                                            fit_scaler(_subset(dataset, block[1])), [block])]
    grid = tuple(p for points, _, _ in blocks for p in points)
    mask = np.concatenate([np.broadcast_to(train, (len(points), dataset.m))
                           for points, train, _ in blocks])
    # A sample no lane trains on stays out of the fit, so a stack of one
    # outer fold's inner lanes is fit on that fold's training split.
    used = mask.any(axis=0)
    fitted = trainer.fit_split(_subset(dataset, used), grid, mode, scaler, mask=mask[:, used])
    X, y = dataset.stacked()
    # W is formed once for the whole stack; each block labels a slice of it.
    surfaces = [unpack_weights(w, dataset.n, fitted.mode) for w in (fitted.pos, fitted.neg)]
    per_block, start = [], 0
    for points, _, rows in blocks:
        lanes = slice(start, start + len(points))
        start += len(points)
        pos, neg = ([a[lanes] for a in side] for side in surfaces)
        per_block.append(counts_stack(y[rows], label_stack(fitted.scaler, pos, neg, X[rows])))
    return per_block


def _inner_folds(m_pos, m_neg, seed_key):
    """Inner-CV fold per sample of an outer training split with m_pos
    positives and m_neg negatives (positives first), and the fold count."""
    k = min(INNER_FOLDS, m_pos, m_neg)
    if k < 2:
        raise InvalidInputError(
            "training split too small for inner model selection; use fewer folds or flat selection"
        )
    return _stratified_folds(m_pos, m_neg, k, seed_key), k


def _best_point(grid, per_fold):
    """The grid point with the best mean accuracy over the folds' counts,
    the first one on a tie; grid may also be the columns of records of
    every outer fold (see _eval_result)."""
    accs = [[accuracy(c) for c in counts] for counts in per_fold]
    means = [float(np.mean(point)) for point in zip(*accs)]
    return grid[int(np.argmax(means))]


def cross_validate(dataset: Dataset, trainer, spec: CvSpec) -> EvalResult:
    """Stratified repeated k-fold evaluation with grid search: a sweep of
    one cell.

    Fold assignment and all derived seeds flow deterministically from
    spec.seed, so reruns (and any parallel evaluation order) reproduce
    the same result exactly.
    """
    return sweep_results([(dataset, trainer, spec)])[0]


def _cv_tasks(dataset, trainer, spec):
    """The work of one cell in repeat order, one task per repeat, each as
    the arguments of _task_records."""
    if dataset.m_pos < spec.folds or dataset.m_neg < spec.folds:
        raise InvalidInputError(
            f"each class needs at least {spec.folds} samples for "
            f"{spec.folds}-fold CV; use a smaller k"
        )
    scaler = fit_scaler(dataset) if spec.normalize == "full" else None
    return [(dataset, trainer, spec, scaler,
             _stratified_folds(dataset.m_pos, dataset.m_neg, spec.folds, [spec.seed, rep]), rep)
            for rep in range(spec.repeats)]


def _task_records(dataset, trainer, spec, scaler, assign, rep):
    """The records of repeat rep, one list per outer fold in grid order: each
    fold's grid fit on its training split and counted on its held-out rows,
    all folds as one masked stack (see _stack_counts for scaler None).  The
    two selections differ only in that grid: flat selection fits spec.grid
    in every fold, nested selection each fold's inner-CV pick alone (see
    _inner_picks), which is a one-point grid's point with no inner CV."""
    grids = ([(pick,) for pick in _inner_picks(dataset, trainer, spec, scaler, assign, rep)]
             if spec.selection == "nested" and len(spec.grid) > 1 else [spec.grid] * spec.folds)
    outer = _stack_counts(trainer, dataset, spec.mode, scaler,
                          [(grid, assign != f, assign == f) for f, grid in enumerate(grids)])
    return [[FoldRecord(repeat=rep, fold=f, params=params, counts=c)
             for params, c in zip(grid, counts)]
            for f, (grid, counts) in enumerate(zip(grids, outer))]


def _inner_picks(dataset, trainer, spec, scaler, assign, rep):
    """The grid point that nested selection picks for each outer fold of
    repeat rep, in fold order, by inner CV fit as masked stacks on the whole
    dataset (see _stack_counts for scaler None).

    Outer fold f deals its training split (assign != f) over inner folds
    (see _inner_folds), seeded [seed, rep, f, 1], so inner lane (f, j, g)
    is grid point g fit on that split less inner fold j and counted on
    inner fold j.  The inner lanes of consecutive outer folds share a stack
    up to NESTED_STACK_LANES lanes."""
    inner = []
    for f in range(spec.folds):
        train = assign != f
        dealt, k = _inner_folds(int(train[: dataset.m_pos].sum()),
                                int(train[dataset.m_pos :].sum()), [spec.seed, rep, f, 1])
        fold_of = np.full(dataset.m, -1)
        fold_of[train] = dealt
        inner.append([(spec.grid, train & (fold_of != j), fold_of == j) for j in range(k)])
    lanes = [len(spec.grid) * len(blocks) for blocks in inner]
    stacks = [[]]
    for f, n in enumerate(lanes):
        if stacks[-1] and sum(lanes[g] for g in stacks[-1]) + n > NESTED_STACK_LANES:
            stacks.append([])
        stacks[-1].append(f)
    picks = []
    for folds in stacks:
        counts = iter(_stack_counts(trainer, dataset, spec.mode, scaler,
                                    [block for f in folds for block in inner[f]]))
        picks += [_best_point(spec.grid, [next(counts) for _ in inner[f]]) for f in folds]
    return picks


def _eval_result(per_fold) -> EvalResult:
    """Summarise the outer folds' records, given in (repeat, fold) order, at
    the grid position with the best mean accuracy: under nested selection
    each fold's only record, its inner-CV pick."""
    records = _best_point(list(zip(*per_fold)), [[r.counts for r in recs] for recs in per_fold])
    accs = [accuracy(r.counts) for r in records]
    f1s = [f1(r.counts) for r in records]
    # Ties go to the grid point that occurs first in record order, so the
    # choice does not depend on the hash seed.
    chosen = [tuple(sorted(r.params.items())) for r in records]
    winner = max(chosen, key=chosen.count)
    return EvalResult(
        acc_mean=float(np.mean(accs)),
        acc_std=float(np.std(accs)),
        f1_mean=float(np.mean(f1s)),
        f1_std=float(np.std(f1s)),
        best_params=dict(winner),
        folds=tuple(records),
    )


def sweep_results(cells, jobs: int = 1) -> list[EvalResult]:
    """Cross-validate each cell, given as the (dataset, trainer, CvSpec)
    arguments of cross_validate; returns one EvalResult per cell, in order.
    Every cell's tasks (see _cv_tasks: one per repeat) are made before any
    task runs.  With more than one task and jobs > 1 they run in up to
    ``jobs`` processes, handed out one at a time so that a worker slowed by
    other load holds up the sweep by at most one task; each task is seeded
    on its own, so results do not depend on ``jobs``."""
    per_cell = [_cv_tasks(*cell) for cell in cells]
    tasks = [task for cell in per_cell for task in cell]
    if (workers := min(jobs, len(tasks))) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers) as pool:
            records = iter(list(pool.map(_task_records, *zip(*tasks))))
    else:
        records = (_task_records(*task) for task in tasks)
    return [_eval_result([recs for _ in cell for recs in next(records)]) for cell in per_cell]


def sweep_rows(results) -> list[dict]:
    """One results-file row per outer fold of each ((dataset, ratio, method),
    EvalResult) pair."""
    return [dict(dataset=ds_name, method=method, noise_ratio=ratio, fold=rec.fold,
                 repeat=rec.repeat, c1=rec.params.get("c1", ""),
                 c2=rec.params.get("c2", rec.params.get("C", "")),
                 acc=accuracy(rec.counts), f1=f1(rec.counts))
            for (ds_name, ratio, method), result in results for rec in result.folds]


def nemenyi_cd(k: int, N: int, q_alpha: float | None = None) -> float:
    """Critical difference q_alpha(k) * sqrt(k(k+1) / (6N))."""
    if k < 2:
        raise InvalidInputError("need at least two methods")
    if N < 1:
        raise InvalidInputError("need at least one dataset")
    # Written so that NaN fails too.
    if q_alpha is not None and not 0 < q_alpha < math.inf:
        raise InvalidInputError(f"q_alpha must be finite and > 0, got {q_alpha}")
    if q_alpha is None:
        if k not in Q_ALPHA_05:
            raise InvalidInputError(
                f"no tabulated critical value for k={k} (alpha=0.05, k<=10)"
            )
        q_alpha = Q_ALPHA_05[k]
    return q_alpha * np.sqrt(k * (k + 1) / (6.0 * N))


def mean_ranks(scores: np.ndarray) -> np.ndarray:
    """Mean rank per method (columns) over datasets (rows); rank 1 is the
    best score, ties get midranks, and a row with a NaN ranks NaN."""
    # The recipe of scipy.stats.rankdata(method="average"), whose results it
    # equals bit for bit, written out because scipy.stats would be most of a
    # cold start: sort each row, find where each run of equal values starts,
    # and give the run its first ordinal rank plus half its length less one.
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    order = np.argsort(-scores, axis=1, kind="stable")
    ordered = -np.take_along_axis(scores, order, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=ordered.size)
    mid = first % ordered.shape[1] + 1 + (counts - 1) / 2
    ranks = np.empty_like(ordered)
    np.put_along_axis(ranks, order, np.repeat(mid, counts).reshape(ordered.shape), axis=1)
    ranks[np.isnan(scores).any(axis=1)] = np.nan
    return ranks.mean(axis=0)


def nemenyi_test(scores: np.ndarray, q_alpha: float | None = None):
    """Mean ranks, CD, and the pairwise significance matrix
    |rank_i - rank_j| > CD."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    N, k = scores.shape
    cd = nemenyi_cd(k, N, q_alpha)
    ranks = mean_ranks(scores)
    diff = np.abs(ranks[:, None] - ranks[None, :])
    return ranks, cd, diff > cd
