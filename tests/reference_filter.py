"""Reference belief operations that no task runs: the unconditioned
one-step prediction, the total variation distance, the one-variate
inverse CDF of a grid belief and a one-draw sampler.

The filter tests check filter_update against them, for example the law
of total probability: the branch posteriors weighted by their cell
masses sum to the prediction. GridBelief.inverse_cdf must equal
invert_one on every variate, bit for bit, and inverse_cdf of a
Generator's next variate must be what sample_one draws from it. The segment solve squares as
the product x * x, the package's one rounding rule for squares; libm
pow rounds some squares differently, and on another C library would
move those draws.
"""
from __future__ import annotations

import math

import numpy as np

from zdq.beliefs import GridBelief, SimplexBelief, _transition_kernel


def predict(belief, model):
    """Push the belief one step through the transition law (no conditioning)."""
    if isinstance(belief, GridBelief):
        # the push's banded product over every column
        weighted = belief.grid.trapezoid_weights * belief.values
        raw = _transition_kernel(model, belief.grid).times(0, weighted)
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


def invert_one(belief: GridBelief, w: float) -> float:
    """The inverse-CDF draw of a grid belief at one variate w in [0, 1),
    by one scalar segment solve."""
    cum = _cumulative_mass(belief)
    return _solve_segment(belief, cum, cum[-1] * w)


def sample_one(belief, rng: np.random.Generator):
    """One draw of a belief from rng: a grid belief inverts
    rng.uniform(0, total mass) by the scalar segment solve, a simplex
    belief takes Generator.choice."""
    if isinstance(belief, SimplexBelief):
        return int(rng.choice(belief.n_states, p=belief.probabilities))
    cum = _cumulative_mass(belief)
    return _solve_segment(belief, cum, rng.uniform(0.0, cum[-1]))


def _cumulative_mass(belief: GridBelief) -> np.ndarray:
    v, d = belief.values, belief.grid.spacing
    return np.concatenate(([0.0], np.cumsum(0.5 * d * (v[:-1] + v[1:]))))


def _solve_segment(belief: GridBelief, cum: np.ndarray, target: float) -> float:
    v, x, d = belief.values, belief.grid.nodes, belief.grid.spacing
    p = int(np.searchsorted(cum, target, side="right") - 1)
    p = min(max(p, 0), len(cum) - 2)
    t = target - cum[p]
    v0, v1 = v[p], v[p + 1]
    slope = (v1 - v0) * d
    # solve d*(v0*u + (v1-v0)*u^2/2) = t for u in [0, 1]
    if abs(slope) < 1e-300:
        u = t / (d * v0) if v0 > 0 else 0.0
    else:
        dv0 = d * v0
        disc = dv0 * dv0 + 2.0 * slope * t
        u = (-dv0 + math.sqrt(max(disc, 0.0))) / slope
    return float(x[p] + min(max(u, 0.0), 1.0) * d)
