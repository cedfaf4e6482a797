"""Reference grid moments that no task runs: GridBelief.cell_moments
without its cached cut weights, and window_weights, the weights of x^k
over one window in raw form, as the package once computed them.

Every cell_moments call finds the distinct cut points, rebuilds their
node_moment_weights and maps each quantizer's cuts to them. The cached
route must return the same bytes as cell_moments below, on every belief
and candidate set, and order 0 of node_moment_weights, which every grid
restriction reads, the bytes of window_weights of degree 0 below.
"""
from __future__ import annotations

import math

import numpy as np

from zdq.beliefs import node_moment_weights


def cell_moments(belief, quantizers, dtype=float):
    """((m0, m1, m2), center) of a grid belief, built from scratch: the
    product of its values times powers of (x - mean) over its support
    with the node moment weights up to every distinct cut. The sums are
    taken in dtype: np.longdouble takes the same sums of the same float
    inputs in extended precision, and the values are 0 off the support,
    so those are the sums over every node."""
    grid = belief.grid
    points = [-math.inf, *sorted({t for q in quantizers for t in q.thresholds}), math.inf]
    local = node_moment_weights(grid, -math.inf, np.array(points)).reshape(-1, grid.n_points)
    center = belief.mean
    lo, hi = belief.support
    values = belief.values[lo:hi].astype(dtype, copy=False)
    y = grid.nodes[lo:hi].astype(dtype) - center
    g = np.stack([values, y * values, y * (y * values)]) @ local[:, lo:hi].T.astype(dtype, copy=False)
    p = len(points)
    cum = np.stack([
        g[0, :p],
        g[1, :p] + g[0, p : 2 * p],
        g[2, :p] + (2.0 * g[1, p : 2 * p] + g[0, 2 * p :]),
    ])
    # each quantizer's cuts as point indices, padded with +inf
    slot = {t: i for i, t in enumerate(points)}
    levels = max(q.levels for q in quantizers)
    edges = np.full((len(quantizers), levels + 1), p - 1)
    edges[:, 0] = 0
    for k, q in enumerate(quantizers):
        edges[k, 1 : q.levels] = [slot[t] for t in q.thresholds]
    return np.diff(cum[:, edges], axis=-1), center


def window_weights(grid, lo: float, hi: float, degree: int = 0) -> np.ndarray:
    """Exact weights of x^degree over one window [lo, hi], one window per call."""
    x = grid.nodes
    d = grid.spacing
    a = max(lo, grid.lo)
    b = min(hi, grid.hi)
    out = np.zeros(grid.n_points)
    if b <= a:
        return out
    xl = x[:-1]
    u0 = np.clip((a - xl) / d, 0.0, 1.0)
    u1 = np.clip((b - xl) / d, 0.0, 1.0)
    s1 = u1 - u0
    s2 = 0.5 * (u1 * u1 - u0 * u0)
    w_lo = s1 - s2
    w_hi = s2
    if degree == 1:
        s3 = (u1**3 - u0**3) / 3.0
        w_lo, w_hi = xl * w_lo + d * (s2 - s3), xl * w_hi + d * s3
    elif degree == 2:
        s3 = (u1**3 - u0**3) / 3.0
        s4 = 0.25 * (u1**4 - u0**4)
        w_lo = xl * xl * w_lo + 2.0 * xl * d * (s2 - s3) + d * d * (s3 - s4)
        w_hi = xl * xl * w_hi + 2.0 * xl * d * s3 + d * d * s4
    out[:-1] += d * w_lo
    out[1:] += d * w_hi
    return out
