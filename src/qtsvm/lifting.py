"""Vectorization operators for quadratic surfaces.

A quadratic surface 1/2 x'Wx + b'x + c becomes the linear functional w.z
once samples are lifted into monomial space.  Two pairings are supported:
the full lifting keeps every cross term of W, the reduced lifting keeps
only the diagonal (axis-aligned quadric), which shrinks the lifted
dimension from (n^2+3n+2)/2 to 2n+1 for high-dimensional data.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InvalidInputError

SYMMETRY_TOL = 1e-10


class LiftingMode(str, Enum):
    FULL = "full"
    REDUCED = "reduced"


def lifted_dim(n: int, mode: LiftingMode) -> int:
    """Length of a lifted sample for feature dimension ``n``."""
    if mode is LiftingMode.FULL:
        return n * (n + 1) // 2 + n + 1
    return 2 * n + 1


def _triu_indices(n: int):
    """Row-major upper-triangular index pair, shared by hvec and lvec.

    hvec and lvec must agree on ordering for the contraction identity
    hvec(W).lvec(x) = 1/2 x'Wx to hold, so both go through here.
    """
    return np.triu_indices(n)


def hvec(A: np.ndarray) -> np.ndarray:
    """Stack the upper triangle of a symmetric matrix row-major.

    Raises InvalidInputError if A is not square or not symmetric within
    an absolute tolerance of 1e-10.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    asym = np.max(np.abs(A - A.T)) if A.size else 0.0
    if asym > SYMMETRY_TOL:
        raise InvalidInputError(
            f"matrix is not symmetric: max |A_ij - A_ji| = {asym:.3e}"
        )
    return A[_triu_indices(A.shape[0])].copy()


def dvec(A: np.ndarray) -> np.ndarray:
    """Diagonal of a diagonal matrix.

    Raises InvalidInputError if any off-diagonal entry exceeds 1e-10.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    off = A - np.diag(np.diag(A))
    if A.size and np.max(np.abs(off)) > SYMMETRY_TOL:
        raise InvalidInputError(
            f"matrix is not diagonal: max off-diagonal = {np.max(np.abs(off)):.3e}"
        )
    return np.diag(A).copy()


def lvec(x: np.ndarray) -> np.ndarray:
    """Quadratic monomials of x: diagonal slots halved, cross terms plain.

    Ordering matches hvec, so hvec(W).lvec(x) = 1/2 x'Wx.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInputError("expected a nonempty 1-d vector")
    outer = np.outer(x, x)
    outer[np.diag_indices(x.size)] *= 0.5
    return outer[_triu_indices(x.size)]


def qvec(x: np.ndarray) -> np.ndarray:
    """Halved squares of x (cross-term-free counterpart of lvec)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInputError("expected a nonempty 1-d vector")
    return 0.5 * x * x


def lift_matrix(X: np.ndarray, mode: LiftingMode = LiftingMode.FULL) -> np.ndarray:
    """Lift every row x of X to [lvec(x); x; 1] (full) or [qvec(x); x; 1]
    (reduced); returns an (m, lifted_dim) array."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, n = X.shape
    if mode is LiftingMode.FULL:
        rows, cols = _triu_indices(n)
        head = X[:, rows] * X[:, cols]
        head[:, rows == cols] *= 0.5
    else:
        head = 0.5 * X * X
    return np.hstack([head, X, np.ones((m, 1))])


def pack_weights(W: np.ndarray, b: np.ndarray, c: float, mode: LiftingMode) -> np.ndarray:
    """Flatten a surface (W, b, c) into the lifted weight vector."""
    head = hvec(W) if mode is LiftingMode.FULL else dvec(W)
    return np.concatenate([head, np.asarray(b, dtype=float), [float(c)]])


def unpack_weights(w: np.ndarray, n: int, mode: LiftingMode):
    """Rebuild (W, b, c) from a lifted weight vector; inverse of pack_weights.

    Returns a tuple (W, b, c) with W symmetric (full) or diagonal (reduced).
    A stack of vectors, shape (G, lifted_dim), gives stacks W (G, n, n),
    b (G, n) and c (G,).
    """
    w = np.asarray(w, dtype=float)
    expected = lifted_dim(n, mode)
    if w.ndim not in (1, 2) or w.shape[-1] != expected:
        length = w.shape[-1] if w.ndim else w.size
        raise InvalidInputError(
            f"weight vector has length {length}, expected {expected} "
            f"for n={n} in {mode.value} mode"
        )
    W = np.zeros(w.shape[:-1] + (n, n))
    if mode is LiftingMode.FULL:
        k = n * (n + 1) // 2
        rows, cols = _triu_indices(n)
        W[..., rows, cols] = w[..., :k]
        W[..., cols, rows] = w[..., :k]
    else:
        k = n
        W[..., np.arange(n), np.arange(n)] = w[..., :k]
    b = w[..., k : k + n].copy()
    c = float(w[-1]) if w.ndim == 1 else w[:, -1].copy()
    return W, b, c
