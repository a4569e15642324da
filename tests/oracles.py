"""Reference computations that the solver and prediction tests check
against, written independently of the stacked and column-wise code, and
one-lane wrappers of the solver's stacked step functions."""

import numpy as np

from qtsvm.model import GRADIENT_NORM_FLOOR
from qtsvm.solver_cl1 import (
    ReweightState,
    _pair_products,
    _sample_gram,
    compute_weights_pos,
    objective_plus,
    update_w_plus,
)


def stationarity_residual_plus(w_plus, Zp, Zm, state, cfg) -> float:
    """Norm of the weighted normal-equation gradient of the positive-surface
    subproblem at w_plus, under the weights of state.  The negative surface
    is the positive one at -w with the classes swapped."""
    grad = (
        Zp @ (state.q * (w_plus @ Zp))
        + cfg.c1 * w_plus
        + cfg.c2 * (Zm @ (state.u * (1.0 + w_plus @ Zm)))
    )
    return float(np.linalg.norm(grad))


def capped_loss_sum(values, cap_eps) -> float:
    """Sum of the capped-L1 loss min(|r|, eps)."""
    return float(np.minimum(np.abs(values), cap_eps).sum())


def _all_samples(Zp, Zm):
    """Masks own and other that keep every sample of one lane."""
    return np.ones(Zp.shape[1], dtype=bool), np.ones(Zm.shape[1], dtype=bool)


def weights_at(w_plus, Zp, Zm, cap_eps) -> ReweightState:
    """The positive-surface weights at one iterate w_plus, on every sample."""
    return compute_weights_pos(np.abs(w_plus @ Zp), np.abs(1.0 + w_plus @ Zm), cap_eps,
                               *_all_samples(Zp, Zm))


def solve_one(Zp, Zm, state, cfg) -> np.ndarray:
    """One closed-form positive-surface update under state, by cfg.branch."""
    lane = ReweightState(q=state.q[None], u=state.u[None])
    consts = (_sample_gram(Zp, Zm) if cfg.branch == "smw"
              else (_pair_products(Zp), _pair_products(Zm)))
    W, _ = update_w_plus(Zp, Zm, lane, np.array([cfg.c1]), np.array([cfg.c2]), cfg.branch,
                         consts)
    return W[0]


def objective_at(w_plus, Zp, Zm, cfg) -> float:
    """Objective of the positive-surface subproblem at one iterate w_plus,
    over every sample."""
    return float(objective_plus(w_plus, np.abs(w_plus @ Zp), np.abs(1.0 + w_plus @ Zm),
                                cfg.c1, cfg.c2, cfg.cap_eps, *_all_samples(Zp, Zm)))


def scaled_row_major(params, X) -> np.ndarray:
    """apply_scaler's [-1, 1] map, broadcast over whole rows."""
    span = params.maximum - params.minimum
    out = np.subtract(X, params.minimum)
    out *= 2.0
    out /= np.where(span > 0, span, 1.0)
    out -= 1.0
    out[..., span <= 0] = 0.0
    return out


def distances_row_major(Xs, W, b, c) -> np.ndarray:
    """Normalized distances of the rows Xs to a stack of surfaces, each row
    as one (n,) vector: an einsum for x'Wx and a reduction over the last
    axis for |Wx + b|.  W is (S, n, n), or its diagonals (S, n)."""
    XW = Xs @ W if W.ndim == 3 else Xs * W[:, None, :]
    vals = np.einsum("sij,ij->si", XW, Xs)
    vals *= 0.5
    vals += (Xs @ b[..., None])[..., 0]
    vals += c[:, None]
    norms = np.sqrt(np.add.reduce(np.square(XW + b[:, None, :]), axis=2))
    return np.abs(vals) / np.maximum(norms, GRADIENT_NORM_FLOOR)


# The lifting written per mode, as references for the one index-pair path:
# the full head from an outer product, the reduced head as (0.5 x) x, and
# one gather per mode.


def full_head_outer(X) -> np.ndarray:
    """Upper-triangle monomials of each row of X, row-major, from the outer
    product x x' with its diagonal halved."""
    X = np.atleast_2d(X)
    rows, cols = np.triu_indices(X.shape[1])
    outer = X[:, :, None] * X[:, None, :]
    diag = np.arange(X.shape[1])
    outer[:, diag, diag] *= 0.5
    return outer[:, rows, cols]


def reduced_head_halved(X) -> np.ndarray:
    """Halved squares of each row of X, halving x before the product."""
    return 0.5 * np.atleast_2d(X) * X


def lift_per_mode(X, full: bool) -> np.ndarray:
    X = np.atleast_2d(X)
    head = full_head_outer(X) if full else reduced_head_halved(X)
    return np.hstack([head, X, np.ones((X.shape[0], 1))])


def hvec_gather(A) -> np.ndarray:
    return A[np.triu_indices(A.shape[0])].copy()


def dvec_gather(A) -> np.ndarray:
    return np.diag(A).copy()


def unpack_per_mode(w, n, full: bool):
    """(W, b, c) from one lifted weight vector, W filled by index pair per mode."""
    W = np.zeros((n, n))
    if full:
        k = n * (n + 1) // 2
        rows, cols = np.triu_indices(n)
        W[rows, cols] = w[:k]
        W[cols, rows] = w[:k]
    else:
        k = n
        W[np.arange(n), np.arange(n)] = w[:k]
    return W, w[k : k + n].copy(), float(w[-1])
