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
    small n, where lift_matrix and unpack_weights pay it once per call."""
    if lifting_mode(mode) is LiftingMode.FULL:
        return np.nonzero(~np.tri(n, k=-1, dtype=bool))
    return np.diag_indices(n)


def lifted_dim(n: int, mode: LiftingMode) -> int:
    """Length of a lifted sample for feature dimension ``n``: the n(n+1)/2
    (full) or n (reduced) pairs of _pairs, then n + 1.  Counted, not
    gathered, so that checking a length allocates nothing."""
    head = n * (n + 1) // 2 if lifting_mode(mode) is LiftingMode.FULL else n
    return head + n + 1


def lift_matrix(X: np.ndarray, mode: LiftingMode = LiftingMode.FULL) -> np.ndarray:
    """Lift every row x of X to [head(x); x; 1], head(x) the products x_r x_c
    over the pairs of _pairs, halved where r = c: an (m, lifted_dim) array."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows, cols = _pairs(X.shape[1], mode)
    head = X[:, rows] * X[:, cols]
    head[:, rows == cols] *= 0.5
    return np.hstack([head, X, np.ones((X.shape[0], 1))])


def unpack_weights(w: np.ndarray, n: int, mode: LiftingMode):
    """Split a lifted weight vector w = [head(W); b; c] into its surface
    (W, b, c), so that w.z = 1/2 x'Wx + b'x + c for z the lifting of x.

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
