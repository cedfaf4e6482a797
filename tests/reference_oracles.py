"""Reference solvers that no task runs, kept beside the tests that use them.

exhaustive_admissible_search
                      exhaustive search over all deterministic encoder
                      maps with full symbol-history memory (no belief
                      feedback structure assumed); tractable for
                      two-stage problems on tiny alphabets. A3 checks
                      that the belief-feedback dynamic program matches it.
lloyd_max             classic centroid/midpoint alternation for the
                      one-shot (memoryless) quantizer baseline.

Like zdq.oracles, they share no code with the dynamic-programming
solver: encoder maps are enumerated inline, costs are written as
explicit sums, and quadrature refines node arrays with interpolated cut
points instead of the solver's node-moment weights. Only the belief
containers are shared.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from zdq.beliefs import GridBelief, SimplexBelief
from zdq.costs import CostModel
from zdq.quantizers import IntervalQuantizer


def exhaustive_admissible_search(
    chain,
    levels: int,
    horizon: int,
    cost: CostModel,
    initial=None,
) -> float:
    """Optimal cost over ALL deterministic encoders with full memory.

    The stage-t encoder may depend on the entire source and symbol
    history; the decoder sees the symbol history. No belief recursion is
    used anywhere: the value of each encoder pair is computed from the
    joint law by direct summation. Tractable only for horizon <= 2 on
    alphabets of <= 3 states with <= 2 cells, which is what the
    structural cross-checks need.
    """
    n = chain.n_states
    if horizon not in (1, 2):
        raise ValueError(f"admissible search supports horizon 1 or 2, got {horizon}")
    if n > 3 or levels > 2:
        raise ValueError("admissible search supports <= 3 states and <= 2 cells")
    probs0 = (
        initial.probabilities
        if isinstance(initial, SimplexBelief)
        else (chain.initial if initial is None else np.asarray(initial, dtype=float))
    )
    states = chain.state_values
    P = chain.transition
    symbols = range(1, levels + 1)

    def group_cost(weights) -> float:
        mass = sum(weights)
        if mass <= 0.0:
            return 0.0
        if cost.kind == "quadratic":
            mean = sum(w * states[i] for i, w in enumerate(weights)) / mass
            return sum(w * (states[i] - mean) ** 2 for i, w in enumerate(weights))
        return min(
            sum(w * cost.table[i, u] for i, w in enumerate(weights))
            for u in range(cost.table.shape[1])
        )

    best = None
    for enc0 in itertools.product(symbols, repeat=n):
        # stage-0 cost: decoder sees q0
        cost0 = 0.0
        for q0 in symbols:
            weights = [probs0[i] if enc0[i] == q0 else 0.0 for i in range(n)]
            cost0 += group_cost(weights)
        if horizon == 1:
            if best is None or cost0 < best:
                best = cost0
            continue
        # stage-1 encoder maps (q0, x1) -> q1; enumerate all of them
        for enc1 in itertools.product(symbols, repeat=levels * n):
            cost1 = 0.0
            for q0 in symbols:
                for q1 in symbols:
                    weights = [0.0] * n
                    for x0 in range(n):
                        if enc0[x0] != q0:
                            continue
                        for x1 in range(n):
                            if enc1[(q0 - 1) * n + x1] != q1:
                                continue
                            weights[x1] += probs0[x0] * P[x0, x1]
                    cost1 += group_cost(weights)
            value = (cost0 + cost1) / 2.0
            if best is None or value < best:
                best = value
    return best


@dataclass(frozen=True)
class LloydMaxResult:
    quantizer: IntervalQuantizer
    reconstructions: np.ndarray
    mse: float
    iterations: int
    converged: bool


def _refined(belief: GridBelief, cuts):
    """Node array with the cut points spliced in by linear interpolation."""
    x = belief.grid.nodes
    v = belief.values
    cuts = [c for c in cuts if belief.grid.lo < c < belief.grid.hi]
    if cuts:
        xr = np.sort(np.concatenate([x, np.asarray(cuts, dtype=float)]))
        vr = np.interp(xr, x, v)
        return xr, vr
    return x, v


def _gauss_integral(xs, vs, g):
    """Integral of g(x) * v(x) with v piecewise linear on the xs nodes.

    Two-point Gauss-Legendre per segment, exact through cubic
    integrands, so linear v against quadratic g carries no quadrature
    error at all.
    """
    xl, xh = xs[:-1], xs[1:]
    h = xh - xl
    mid = 0.5 * (xl + xh)
    off = 0.5 * h / np.sqrt(3.0)
    xa, xb = mid - off, mid + off
    safe = np.where(h > 0.0, h, 1.0)
    slope = (vs[1:] - vs[:-1]) / safe
    va = vs[:-1] + slope * (xa - xl)
    vb = vs[:-1] + slope * (xb - xl)
    return float(np.sum(0.5 * h * (g(xa) * va + g(xb) * vb)))


def _cell_stats(xr, vr, lo, hi):
    sel = (xr >= lo) & (xr <= hi)
    xs = xr[sel]
    vs = vr[sel]
    if len(xs) < 2:
        return 0.0, 0.0
    mass = _gauss_integral(xs, vs, lambda x: np.ones_like(x))
    mean_int = _gauss_integral(xs, vs, lambda x: x)
    return mass, mean_int


def lloyd_max(
    belief: GridBelief,
    levels: int,
    max_iter: int = 500,
    tol: float = 1e-10,
) -> LloydMaxResult:
    """Centroid/midpoint alternation for the one-shot quantizer.

    Starts from equal-mass thresholds and alternates cell centroids with
    threshold midpoints until the largest threshold movement is at most
    tol. Returns the quantizer, its reconstruction levels, and the mean
    squared error under the fitted quantizer, all computed with local
    trapezoid quadrature on cut-refined node arrays.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    x = belief.grid.nodes
    v = belief.values
    d = belief.grid.spacing
    if levels == 1:
        mass = _gauss_integral(x, v, lambda s: np.ones_like(s))
        mean = _gauss_integral(x, v, lambda s: s) / mass
        mse = _gauss_integral(x, v, lambda s: (s - mean) ** 2) / mass
        return LloydMaxResult(
            IntervalQuantizer(()), np.array([mean]), mse, 0, True
        )

    # equal-mass initialization from the cumulative distribution
    seg = 0.5 * d * (v[:-1] + v[1:])
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = cum[-1]
    thresholds = np.interp(
        [total * j / levels for j in range(1, levels)], cum, x
    )

    converged = False
    iterations = 0
    recons = np.zeros(levels)
    for iterations in range(1, max_iter + 1):
        xr, vr = _refined(belief, thresholds)
        edges = np.concatenate(([x[0]], thresholds, [x[-1]]))
        for m in range(levels):
            mass, mean_int = _cell_stats(xr, vr, edges[m], edges[m + 1])
            if mass <= 0.0:
                raise RuntimeError(
                    f"empty cell {m + 1} during Lloyd iteration {iterations}"
                )
            recons[m] = mean_int / mass
        new_thresholds = 0.5 * (recons[:-1] + recons[1:])
        delta = float(np.max(np.abs(new_thresholds - thresholds)))
        thresholds = new_thresholds
        if delta <= tol:
            converged = True
            break

    xr, vr = _refined(belief, thresholds)
    edges = np.concatenate(([x[0]], thresholds, [x[-1]]))
    mse = 0.0
    for m in range(levels):
        sel = (xr >= edges[m]) & (xr <= edges[m + 1])
        xs, vs = xr[sel], vr[sel]
        if len(xs) >= 2:
            u = recons[m]
            mse += _gauss_integral(xs, vs, lambda s: (s - u) ** 2)
    return LloydMaxResult(
        IntervalQuantizer(tuple(thresholds)), recons.copy(), mse, iterations, converged
    )
