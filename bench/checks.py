"""Checks on qtsvm outputs, computed apart from the program.

Nothing here imports qtsvm: surfaces are read from the model JSON with
``json``, lifting and scaling are rebuilt from their definitions in the
paper, and statistical claims are tested against the per-seed samples.
"""

from __future__ import annotations

import json
import math
import statistics

import numpy as np

# Criterion 3's tolerance: an objective trace may not rise by more than
# this, relative to 1 + |previous value|.
DESCENT_TOL = 1e-9

# Normwise backward error allowed for the weighted normal equations.  The
# direct branch reaches 1e-17; the SMW branch on the ill-conditioned
# full-lifting fits (weights near 1e9) reaches 6.5e-7.
NORMAL_EQ_TOL = 1e-5

# Distances closer than this (relative) are a tie under rounding, so the
# label there may go either way.
TIE_RTOL = 1e-9

# Criterion 5's band: the mean cl1qtsvm accuracy over the data seeds lies
# within this many points of the paper's figure...
ACCURACY_BAND_PTS = 3.0
# ...widened by this many standard errors of that mean, because per-seed
# accuracy on example 1 has a standard deviation of about 5 points and a
# five-seed mean misses the plain band on some seed sets.
SE_WIDTH = 3.0
# Criterion 6: capped L1 beats least squares by at least this many points
# (tested as "not rejected" at SE_WIDTH standard errors of the paired gap).
MIN_GAP_PTS = 8.0
# Significance level of the Nemenyi critical difference that qtsvm prints.
NEMENYI_ALPHA = 0.05


def read_model(path) -> dict:
    """Surfaces (W, b, c) and the scaler of a saved model, read with json."""
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    full = doc["mode"] == "full"
    surfaces = []
    for key in ("surface_pos", "surface_neg"):
        s = doc[key]
        head = np.asarray(s["w_head"], dtype=float)
        if full:
            W = np.zeros((n, n))
            W[np.triu_indices(n)] = head
            W = np.triu(W, 1).T + W
        else:
            W = np.diag(head)
        w = np.concatenate([head, s["b"], [s["c"]]])
        surfaces.append({"W": W, "b": np.asarray(s["b"], dtype=float),
                         "c": float(s["c"]), "w": w})
    return {
        "n": n,
        "full": full,
        "min": np.asarray(doc["scaler"]["min"], dtype=float),
        "max": np.asarray(doc["scaler"]["max"], dtype=float),
        "pos": surfaces[0],
        "neg": surfaces[1],
    }


def scale(model: dict, X: np.ndarray) -> np.ndarray:
    """Min-max map to [-1, 1]; a constant feature maps to 0."""
    span = model["max"] - model["min"]
    out = 2.0 * (X - model["min"]) / np.where(span > 0, span, 1.0) - 1.0
    return np.where(span > 0, out, 0.0)


def surface_distances(model: dict, X: np.ndarray) -> np.ndarray:
    """|1/2 x'Wx + b'x + c| / ||Wx + b|| to both surfaces, shape (rows, 2)."""
    Xs = scale(model, np.asarray(X, dtype=float))
    out = np.empty((Xs.shape[0], 2))
    for k, key in enumerate(("pos", "neg")):
        s = model[key]
        XW = Xs @ s["W"]
        value = 0.5 * np.sum(XW * Xs, axis=1) + Xs @ s["b"] + s["c"]
        grad = np.linalg.norm(XW + s["b"], axis=1)
        out[:, k] = np.abs(value) / np.maximum(grad, 1e-12)
    return out


def label_mismatches(model: dict, X: np.ndarray, labels: np.ndarray) -> int:
    """Rows whose label differs from the nearer surface (+1 on equal
    distance), not counting ties under rounding."""
    d = surface_distances(model, X)
    expected = np.where(d[:, 0] <= d[:, 1], 1, -1)
    tie = np.abs(d[:, 0] - d[:, 1]) <= TIE_RTOL * np.maximum(d[:, 0], d[:, 1])
    return int(np.sum((expected != np.asarray(labels)) & ~tie))


def lift(Xs: np.ndarray, full: bool) -> np.ndarray:
    """Columns z = [lvec(x); x; 1] (full) or [x*x/2; x; 1] (reduced), one per
    sample, so that hvec(W).lvec(x) = 1/2 x'Wx."""
    m, n = Xs.shape
    if full:
        cols = [Xs[:, i] * Xs[:, j] * (0.5 if i == j else 1.0)
                for i in range(n) for j in range(i, n)]
        head = np.column_stack(cols) if cols else np.empty((m, 0))
    else:
        head = 0.5 * Xs * Xs
    return np.hstack([head, Xs, np.ones((m, 1))]).T


def normal_eq_backward_error(w, Z_own, Z_other, q, u, c1, c2, sign) -> float:
    """Normwise backward error of w for
    (Z_own diag(q) Z_own' + c1 I + c2 Z_other diag(u) Z_other') w
        = sign * c2 * Z_other u,
    with trace(B) >= ||B||_2 as the matrix norm (B is positive semidefinite),
    applied without forming B."""
    Bw = (Z_own @ (q * (Z_own.T @ w)) + c1 * w
          + c2 * (Z_other @ (u * (Z_other.T @ w))))
    rhs = sign * c2 * (Z_other @ u)
    trace = (q @ np.sum(Z_own * Z_own, axis=0) + c1 * w.size
             + c2 * (u @ np.sum(Z_other * Z_other, axis=0)))
    denom = trace * np.linalg.norm(w) + np.linalg.norm(rhs)
    return float(np.linalg.norm(Bw - rhs) / denom)


def worst_rise(trace) -> float:
    """Largest step up of an objective trace, relative to 1 + |previous|;
    -inf for a trace of one value."""
    t = np.asarray(trace, dtype=float)
    if t.size < 2:
        return -math.inf
    return float(np.max(np.diff(t) / (1.0 + np.abs(t[:-1]))))


def descends(trace) -> bool:
    return worst_rise(trace) <= DESCENT_TOL


def stratified_fold_sizes(m_pos: int, m_neg: int, k: int) -> list[int]:
    """Test-fold sizes when each class is dealt round-robin into k folds."""
    return [m_pos // k + (f < m_pos % k) + m_neg // k + (f < m_neg % k)
            for f in range(k)]


def _mean_se(values):
    values = list(values)
    return statistics.fmean(values), statistics.stdev(values) / math.sqrt(len(values))


def accuracy_band_ok(per_seed_pct, target):
    """The paper's figure lies within ACCURACY_BAND_PTS of the mean over
    seeds, widened by SE_WIDTH standard errors of that mean.  Returns
    (ok, mean, limit)."""
    mean, se = _mean_se(per_seed_pct)
    limit = ACCURACY_BAND_PTS + SE_WIDTH * se
    return abs(mean - target) <= limit, mean, limit


def gap_ok(cl1_pct, lsq_pct):
    """Paired per-seed gap cl1 - lsq: positive beyond SE_WIDTH standard
    errors, and MIN_GAP_PTS not rejected at SE_WIDTH standard errors.
    Returns (ok, mean gap)."""
    mean, se = _mean_se(a - b for a, b in zip(cl1_pct, lsq_pct))
    return mean - SE_WIDTH * se > 0 and mean + SE_WIDTH * se >= MIN_GAP_PTS, mean


def nemenyi_cd(k: int, N: int, q_alpha: float) -> float:
    return q_alpha * math.sqrt(k * (k + 1) / (6.0 * N))


def q_alpha_two_methods() -> float:
    """Studentized-range critical value over sqrt(2) for k = 2 at
    NEMENYI_ALPHA, which is the two-sided normal quantile."""
    return statistics.NormalDist().inv_cdf(1.0 - NEMENYI_ALPHA / 2.0)
