"""Vectorization operators for quadratic surfaces.

A quadratic surface 1/2 x'Wx + b'x + c is the linear functional w.z of a
sample lifted to z = [head(x); x; 1], with w = [head(W); b; c]: one entry
per index pair (r, c) of W that the lifting keeps, W_rc and x_r x_c (halved
where r = c).  The full lifting keeps W's upper triangle, the reduced
lifting its diagonal (an axis-aligned quadric): 2n+1 lifted coordinates in
place of (n^2+3n+2)/2 for high-dimensional data.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InvalidInputError

SYMMETRY_TOL = 1e-10


class LiftingMode(str, Enum):
    FULL = "full"
    REDUCED = "reduced"


def lifting_mode(mode) -> LiftingMode:
    """``mode`` as a LiftingMode, given as a member or its value."""
    try:
        return LiftingMode(mode)
    except ValueError:
        raise InvalidInputError(
            f"unknown lifting mode {mode!r}: expected 'full' or 'reduced'") from None


def _pairs(n: int, mode):
    """The index pairs (rows, cols) of W that the lifting keeps, in head
    order: the row-major upper triangle (full) or the diagonal (reduced).
    The one place where the two liftings differ."""
    if lifting_mode(mode) is LiftingMode.FULL:
        return np.triu_indices(n)
    return np.diag_indices(n)


def lifted_dim(n: int, mode: LiftingMode) -> int:
    """Length of a lifted sample for feature dimension ``n``."""
    return _pairs(n, mode)[0].size + n + 1


def _head(A, mode) -> np.ndarray:
    """The kept entries of a square matrix A.  Raises InvalidInputError
    unless A is the matrix they rebuild, within SYMMETRY_TOL: symmetric
    (full) or diagonal (reduced)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    rows, cols = _pairs(A.shape[0], mode)
    head = A[rows, cols]
    rebuilt = np.zeros_like(A)
    rebuilt[rows, cols] = rebuilt[cols, rows] = head
    gap = np.max(np.abs(A - rebuilt), initial=0.0)
    if gap > SYMMETRY_TOL:
        raise InvalidInputError(f"matrix does not fit {lifting_mode(mode).value} lifting: "
                                f"it is {gap:.3e} off the matrix its kept entries rebuild")
    return head


def hvec(A: np.ndarray) -> np.ndarray:
    """Upper triangle of a symmetric matrix, row-major."""
    return _head(A, LiftingMode.FULL)


def dvec(A: np.ndarray) -> np.ndarray:
    """Diagonal of a diagonal matrix."""
    return _head(A, LiftingMode.REDUCED)


def _row_head(x, mode) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInputError("expected a nonempty 1-d vector")
    return lift_matrix(x, mode)[0, : -x.size - 1]


def lvec(x: np.ndarray) -> np.ndarray:
    """Head of the full lifting of x, so hvec(W).lvec(x) = 1/2 x'Wx."""
    return _row_head(x, LiftingMode.FULL)


def qvec(x: np.ndarray) -> np.ndarray:
    """Halved squares of x, so dvec(D).qvec(x) = 1/2 x'Dx."""
    return _row_head(x, LiftingMode.REDUCED)


def lift_matrix(X: np.ndarray, mode: LiftingMode = LiftingMode.FULL) -> np.ndarray:
    """Lift every row x of X to [lvec(x); x; 1] (full) or [qvec(x); x; 1]
    (reduced); returns an (m, lifted_dim) array."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows, cols = _pairs(X.shape[1], mode)
    head = X[:, rows] * X[:, cols]
    head[:, rows == cols] *= 0.5
    return np.hstack([head, X, np.ones((X.shape[0], 1))])


def pack_weights(W: np.ndarray, b: np.ndarray, c: float, mode: LiftingMode) -> np.ndarray:
    """Flatten a surface (W, b, c) into the lifted weight vector."""
    return np.concatenate([_head(W, mode), np.asarray(b, dtype=float), [float(c)]])


def unpack_weights(w: np.ndarray, n: int, mode: LiftingMode):
    """Rebuild (W, b, c) from a lifted weight vector; inverse of pack_weights.

    Returns a tuple (W, b, c) with W symmetric (full) or diagonal (reduced).
    A stack of vectors, shape (G, lifted_dim), gives stacks W (G, n, n),
    b (G, n) and c (G,).
    """
    w = np.asarray(w, dtype=float)
    rows, cols = _pairs(n, mode)
    k = rows.size
    if w.ndim not in (1, 2) or w.shape[-1] != k + n + 1:
        length = w.shape[-1] if w.ndim else w.size
        raise InvalidInputError(f"weight vector has length {length}, expected {k + n + 1} "
                                f"for n={n} in {lifting_mode(mode).value} mode")
    W = np.zeros(w.shape[:-1] + (n, n))
    W[..., rows, cols] = W[..., cols, rows] = w[..., :k]
    b = w[..., k : k + n].copy()
    c = float(w[-1]) if w.ndim == 1 else w[:, -1].copy()
    return W, b, c
