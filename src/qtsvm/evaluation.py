"""Cross-validation, grid search, metrics, robustness sweeps, and the
Nemenyi critical-difference test."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, fit_scaler, inject_label_noise
from .errors import InvalidInputError
from .lifting import LiftingMode
from .model import predict_stack
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


class _GridTrainer:
    """A grid-searchable trainer.  Subclasses define
    fit_split(train, grid, mode, scaler), which fits a grid of parameter
    dicts on the training split as one GridFit."""

    def evaluate(self, train, test, grid, mode, scaler) -> list[ConfusionCounts]:
        """Fit one model per grid point on the training split, all in one
        stacked solve, and return the test split's confusion counts under
        each, in grid order."""
        fitted = self.fit_split(train, grid, mode, scaler)
        X, y = test.stacked()
        return counts_stack(y, predict_stack(fitted.scaler, fitted.pos, fitted.neg, X))


class CL1Trainer(_GridTrainer):
    """Grid-searchable wrapper around the capped-L1 solver."""

    name = "cl1qtsvm"

    @staticmethod
    def fit_split(train, grid, mode, scaler):
        return fit_grid(train, [SolverConfig(**params) for params in grid], mode, scaler)


class LSQTrainer(_GridTrainer):
    """Grid-searchable wrapper around the least-squares baseline."""

    name = "lsqtsvm"

    @staticmethod
    def fit_split(train, grid, mode, scaler):
        return fit_lsq_grid(train, [params["C"] for params in grid], mode=mode,
                            scaler=scaler)


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
    inner_folds: int = 5
    selection: str = "nested"  # "nested" | "flat"
    normalize: str = "full"  # "full" | "per-fold"

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidInputError("folds must be >= 2")
        if not self.grid:
            raise InvalidInputError("hyperparameter grid must be nonempty")
        if self.selection not in ("nested", "flat"):
            raise InvalidInputError(f"unknown selection {self.selection!r}")
        if self.normalize not in ("full", "per-fold"):
            raise InvalidInputError(f"unknown normalize mode {self.normalize!r}")


@dataclass(frozen=True)
class FoldRecord:
    repeat: int
    fold: int
    params: dict
    counts: ConfusionCounts
    seconds: float


@dataclass(frozen=True)
class EvalResult:
    acc_mean: float
    acc_std: float
    f1_mean: float
    f1_std: float
    best_params: dict
    wall_time: float  # seconds spent fitting and testing, summed over folds
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


def _split(dataset: Dataset, assign: np.ndarray, fold: int):
    pos_mask = assign[: dataset.m_pos] == fold
    neg_mask = assign[dataset.m_pos :] == fold
    test = Dataset(X_pos=dataset.X_pos[pos_mask], X_neg=dataset.X_neg[neg_mask],
                   provenance=dataset.provenance)
    train = Dataset(X_pos=dataset.X_pos[~pos_mask], X_neg=dataset.X_neg[~neg_mask],
                    provenance=dataset.provenance)
    return train, test


def _inner_select(trainer, train, spec: CvSpec, scaler, seed_key):
    """Pick the grid point with the best inner-CV mean accuracy."""
    k = min(spec.inner_folds, train.m_pos, train.m_neg)
    if k < 2:
        raise InvalidInputError(
            "training split too small for inner model selection; use fewer folds"
        )
    assign = _stratified_folds(train.m_pos, train.m_neg, k, seed_key)
    per_fold = []
    for fold in range(k):
        tr, te = _split(train, assign, fold)
        counts = trainer.evaluate(tr, te, spec.grid, spec.mode, scaler)
        per_fold.append([accuracy(c) for c in counts])
    means = [float(np.mean(accs)) for accs in zip(*per_fold)]
    return spec.grid[int(np.argmax(means))]


def cross_validate(dataset: Dataset, trainer, spec: CvSpec) -> EvalResult:
    """Stratified repeated k-fold evaluation with grid search.

    Fold assignment and all derived seeds flow deterministically from
    spec.seed, so reruns (and any parallel evaluation order) reproduce
    the same result exactly.
    """
    return _eval_result(spec.selection, [_fold_records(*fold)
                                         for fold in _outer_folds(dataset, trainer, spec)])


def _outer_folds(dataset, trainer, spec):
    """The outer folds of cross_validate in (repeat, fold) order, each as the
    arguments of _fold_records."""
    if dataset.m_pos < spec.folds or dataset.m_neg < spec.folds:
        raise InvalidInputError(
            f"each class needs at least {spec.folds} samples for "
            f"{spec.folds}-fold CV; use a smaller k"
        )
    full_scaler = fit_scaler(dataset) if spec.normalize == "full" else None
    folds = []
    for rep in range(spec.repeats):
        assign = _stratified_folds(dataset.m_pos, dataset.m_neg, spec.folds,
                                   [spec.seed, rep])
        folds += [(dataset, trainer, spec, full_scaler, assign, rep, fold)
                  for fold in range(spec.folds)]
    return folds


def _fold_records(dataset, trainer, spec, full_scaler, assign, rep, fold):
    """Records of one outer fold: with nested selection one, for the grid
    point its inner CV picks; with flat selection one per grid point."""
    t0 = time.perf_counter()
    train, test = _split(dataset, assign, fold)
    if spec.selection == "flat":
        counts = trainer.evaluate(train, test, spec.grid, spec.mode, full_scaler)
        # The grid is fit in one go; its time is shared out evenly.
        seconds = (time.perf_counter() - t0) / len(spec.grid)
        return [FoldRecord(repeat=rep, fold=fold, params=params, counts=c, seconds=seconds)
                for params, c in zip(spec.grid, counts)]
    params = _inner_select(trainer, train, spec, full_scaler, [spec.seed, rep, fold, 1])
    [counts] = trainer.evaluate(train, test, (params,), spec.mode, full_scaler)
    return [FoldRecord(repeat=rep, fold=fold, params=params, counts=counts,
                       seconds=time.perf_counter() - t0)]


def _eval_result(selection, per_fold) -> EvalResult:
    """Summarise the outer folds' records, given in (repeat, fold) order."""
    if selection == "flat":
        # One grid point for the whole run, chosen by mean CV accuracy.
        per_grid = list(zip(*per_fold))
        means = [float(np.mean([accuracy(r.counts) for r in recs])) for recs in per_grid]
        records = per_grid[int(np.argmax(means))]
    else:
        records = [rec for [rec] in per_fold]
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
        wall_time=sum(r.seconds for fold in per_fold for r in fold),
        folds=tuple(records),
    )


def sweep_results(datasets: dict, trainers: list, noise_ratios, spec: CvSpec,
                  grids: dict | None = None, jobs: int = 1) -> list[tuple]:
    """Cross-validate every (dataset, noise ratio, trainer) cell, datasets in
    name order; returns ((dataset, ratio, method), EvalResult) pairs in that
    order.  ``grids`` optionally maps trainer name to its grid (default
    spec.grid).  With jobs > 1 the cells' outer folds run in up to ``jobs``
    processes, handed out one at a time so that a worker slowed by other
    load holds up the sweep by at most one fold; each fold is seeded on its
    own, so results do not depend on ``jobs``."""
    keys = [(name, ratio, trainer) for name in sorted(datasets)
            for ratio in noise_ratios for trainer in trainers]
    cells = [_outer_folds(inject_label_noise(datasets[name], ratio, seed=spec.seed + 1),
                          trainer,
                          replace(spec, grid=tuple((grids or {}).get(trainer.name, spec.grid))))
             for name, ratio, trainer in keys]
    folds = [fold for cell in cells for fold in cell]
    if jobs > 1 and cells:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(min(jobs, len(cells))) as pool:
            records = iter(list(pool.map(_fold_records, *zip(*folds))))
    else:
        records = (_fold_records(*fold) for fold in folds)
    return [((name, ratio, trainer.name),
             _eval_result(spec.selection, [next(records) for _ in cell]))
            for (name, ratio, trainer), cell in zip(keys, cells)]


def sweep_rows(results) -> list[dict]:
    """One row per outer fold of each cell of ``sweep_results``."""
    return [dict(dataset=ds_name, method=method, noise_ratio=ratio, fold=rec.fold,
                 repeat=rec.repeat, c1=rec.params.get("c1", ""),
                 c2=rec.params.get("c2", rec.params.get("C", "")),
                 acc=accuracy(rec.counts), f1=f1(rec.counts), seconds=rec.seconds)
            for (ds_name, ratio, method), result in results for rec in result.folds]


def robustness_sweep(datasets: dict, trainers: list, noise_ratios, spec: CvSpec,
                     grids: dict | None = None) -> list[dict]:
    """Long-format table of (dataset, noise ratio, trainer) evaluations:
    the rows of ``sweep_results`` run serially."""
    return sweep_rows(sweep_results(datasets, trainers, noise_ratios, spec, grids))


def nemenyi_cd(k: int, N: int, q_alpha: float | None = None) -> float:
    """Critical difference q_alpha(k) * sqrt(k(k+1) / (6N))."""
    if k < 2:
        raise InvalidInputError("need at least two methods")
    if N < 1:
        raise InvalidInputError("need at least one dataset")
    if q_alpha is None:
        if k not in Q_ALPHA_05:
            raise InvalidInputError(
                f"no tabulated critical value for k={k} (alpha=0.05, k<=10)"
            )
        q_alpha = Q_ALPHA_05[k]
    return q_alpha * np.sqrt(k * (k + 1) / (6.0 * N))


def mean_ranks(scores: np.ndarray) -> np.ndarray:
    """Mean rank per method (columns) over datasets (rows); rank 1 is the
    best score, ties get midranks."""
    # Imported here: scipy.stats costs most of a cold import of the package.
    from scipy.stats import rankdata

    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    ranks = np.vstack([rankdata(-row, method="average") for row in scores])
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
