"""Reference computations that the solver tests check against, written
independently of the solver's stacked code, and one-lane wrappers of the
solver's stacked step functions."""

import numpy as np

from qtsvm.solver_cl1 import (
    ReweightState,
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


def weights_at(w_plus, Zp, Zm, cap_eps) -> ReweightState:
    """The positive-surface weights at one iterate w_plus."""
    return compute_weights_pos(np.abs(w_plus @ Zp), np.abs(1.0 + w_plus @ Zm), cap_eps)


def solve_one(Zp, Zm, state, cfg) -> np.ndarray:
    """One closed-form positive-surface update under state, by cfg.branch."""
    lane = ReweightState(q=state.q[None], u=state.u[None])
    gram = _sample_gram(Zp, Zm) if cfg.branch == "smw" else None
    W, _ = update_w_plus(Zp, Zm, lane, np.array([cfg.c1]), np.array([cfg.c2]), cfg.branch, gram)
    return W[0]


def objective_at(w_plus, Zp, Zm, cfg) -> float:
    """Objective of the positive-surface subproblem at one iterate w_plus."""
    return float(objective_plus(w_plus, np.abs(w_plus @ Zp), np.abs(1.0 + w_plus @ Zm),
                                cfg.c1, cfg.c2, cfg.cap_eps))
