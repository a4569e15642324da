"""Reference computations that the solver tests check against, written
independently of the solver's stacked code."""

import numpy as np


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
