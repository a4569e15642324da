"""Least-squares quadratic-surface twin SVM baseline.

Each surface minimizes a proximal squared term on its own class plus a
squared slack penalty on the other class, with a small ridge that keeps
the system positive definite when the own-class Gram matrix is rank
deficient.  Its normal equations are those of the first, unweighted step
of the capped-L1 iteration with c1 = RIDGE and c2 = 2C, so the baseline is
fit as that one step of the capped-L1 solver.
"""

from __future__ import annotations

import math

from .data import Dataset, NormalizationParams
from .errors import InvalidInputError, NumericError
from .lifting import LiftingMode
from .model import TrainedModel
from .solver_cl1 import GridFit, SolverConfig, fit_grid

RIDGE = 1e-8


def fit_lsq_grid(
    dataset: Dataset,
    Cs,
    mode: LiftingMode = LiftingMode.FULL,
    scaler: NormalizationParams | None = None,
    mask=None,
) -> GridFit:
    """Train the least-squares twin classifier for each penalty C in ``Cs``
    in one stacked solve; ``mask`` restricts each lane's training samples
    as in ``fit_grid``.

    Raises NumericError when a system is not positive definite in floating
    point, rather than accept the capped-L1 solver's least-squares fallback.
    """
    if not all(0 < 2.0 * v < math.inf for v in Cs):
        raise InvalidInputError("C must be > 0 and 2C finite")
    cfgs = [SolverConfig(c1=RIDGE, c2=2.0 * C, max_iter=1, branch="direct") for C in Cs]
    grid = fit_grid(dataset, cfgs, mode, scaler, mask)
    if grid.lstsq_fallbacks.any():
        raise NumericError("least-squares system factorization failed: "
                           "not positive definite")
    return grid


def fit_lsq(
    dataset: Dataset,
    C: float,
    mode: LiftingMode = LiftingMode.FULL,
) -> TrainedModel:
    """Train the least-squares twin classifier in closed form, with the
    [-1, 1] rescaling fit on this dataset."""
    return fit_lsq_grid(dataset, [C], mode).model(0)
