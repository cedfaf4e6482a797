"""Reference belief operations that no task runs: the unconditioned
one-step prediction and the total variation distance.

The filter tests check filter_update against them, for example the law
of total probability: the branch posteriors weighted by their cell
masses sum to the prediction.
"""
from __future__ import annotations

import numpy as np

from zdq.beliefs import GridBelief, SimplexBelief, _transition_kernel


def predict(belief, model):
    """Push the belief one step through the transition law (no conditioning)."""
    if isinstance(belief, GridBelief):
        K = _transition_kernel(model, belief.grid)
        raw = K @ (belief.grid.trapezoid_weights * belief.values)
        return GridBelief.from_unnormalized(belief.grid, raw)
    post = belief.probabilities @ model.transition
    return SimplexBelief(post / post.sum(), states=belief.states)


def tv_distance(b1, b2) -> float:
    """Total variation distance (mass-difference convention, range [0, 2])."""
    if isinstance(b1, GridBelief) and isinstance(b2, GridBelief):
        if b1.grid != b2.grid:
            raise ValueError("beliefs live on different grids")
        return float(b1.grid.trapezoid_weights @ np.abs(b1.values - b2.values))
    if isinstance(b1, SimplexBelief) and isinstance(b2, SimplexBelief):
        if b1.n_states != b2.n_states:
            raise ValueError("beliefs have different alphabet sizes")
        return float(np.abs(b1.probabilities - b2.probabilities).sum())
    raise TypeError(f"mismatched belief types {type(b1).__name__}, {type(b2).__name__}")
