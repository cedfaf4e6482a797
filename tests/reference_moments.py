"""Reference grid moments that no task runs: GridBelief.cell_moments as
it was before its cut tables were cached per grid and candidate set,
and window_weights as it was before it took arrays of windows.

Every cell_moments call rebuilds the edge matrix, the clipped cuts,
their segment ids and the powers of their local offsets. The cached
route must return the same bytes as cell_moments below, on every belief
and candidate set, and every window of a broadcast window_weights call
the bytes of the one-window window_weights below.
"""
from __future__ import annotations

import math

import numpy as np


def cell_moments(belief, quantizers):
    """((m0, m1, m2), center) of a grid belief, built from scratch."""
    levels = max(q.levels for q in quantizers)
    edges = np.full((len(quantizers), levels + 1), math.inf)
    edges[:, 0] = -math.inf
    for k, q in enumerate(quantizers):
        edges[k, 1 : q.levels] = q.thresholds
    grid = belief.grid
    x = grid.nodes
    d = grid.spacing
    center = belief.mean
    y = x[:-1] - center
    dv = d * belief.values[:-1]
    ds = d * np.diff(belief.values)
    # poly[k, p - 1] multiplies u^p in the order-k moment of a segment
    poly = np.zeros((3, 4, grid.n_points - 1))
    poly[0, 0] = dv
    poly[0, 1] = 0.5 * ds
    poly[1, 0] = y * dv
    poly[1, 1] = 0.5 * (y * ds + d * dv)
    poly[1, 2] = d * ds / 3.0
    poly[2, 0] = y * poly[1, 0]
    poly[2, 1] = y * (0.5 * y * ds + d * dv)
    poly[2, 2] = d * (2.0 * y * ds + d * dv) / 3.0
    poly[2, 3] = 0.25 * d * d * ds
    table = np.zeros((3, grid.n_points))
    np.cumsum(poly.sum(axis=1), axis=1, out=table[:, 1:])
    t = np.minimum(np.maximum(edges, grid.lo), grid.hi)
    j = np.minimum(np.searchsorted(x, t, side="right") - 1, grid.n_points - 2)
    u = np.minimum((t - x[j]) / d, 1.0)
    powers = u ** np.arange(1, 5).reshape((4,) + (1,) * u.ndim)
    cum = table[:, j] + (poly[:, :, j] * powers).sum(axis=1)
    return np.diff(cum, axis=-1), center


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
