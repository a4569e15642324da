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
    The full pairs are np.triu_indices(n), found at a third of its cost for
    small n, where predict_stack pays it once per call."""
    if lifting_mode(mode) is LiftingMode.FULL:
        return np.nonzero(~np.tri(n, k=-1, dtype=bool))
    return np.diag_indices(n)


def lifted_dim(n: int, mode: LiftingMode) -> int:
    """Length of a lifted sample for feature dimension ``n``: the n(n+1)/2
    (full) or n (reduced) pairs of _pairs, then n + 1.  Counted, not
    gathered, so that checking a length allocates nothing."""
    head = n * (n + 1) // 2 if lifting_mode(mode) is LiftingMode.FULL else n
    return head + n + 1


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
    """Split a lifted weight vector into its surface (W, b, c); inverse of
    pack_weights.

    W is symmetric (full) or, under reduced lifting, given as its diagonal,
    shape (n,), which is all of it.  A stack of vectors, shape
    (G, lifted_dim), gives stacks W (G, n, n) or (G, n), b (G, n) and c (G,).
    """
    w = np.asarray(w, dtype=float)
    l = lifted_dim(n, mode)
    if w.ndim not in (1, 2) or w.shape[-1] != l:
        length = w.shape[-1] if w.ndim else w.size
        raise InvalidInputError(f"weight vector has length {length}, expected {l} "
                                f"for n={n} in {lifting_mode(mode).value} mode")
    k = l - n - 1
    b = w[..., k : k + n].copy()
    c = float(w[-1]) if w.ndim == 1 else w[:, -1].copy()
    if lifting_mode(mode) is LiftingMode.REDUCED:
        return w[..., :k].copy(), b, c
    rows, cols = _pairs(n, mode)
    W = np.zeros(w.shape[:-1] + (n, n))
    W[..., rows, cols] = W[..., cols, rows] = w[..., :k]
    return W, b, c
