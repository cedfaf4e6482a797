"""Reference grid moments that no task runs: GridBelief.cell_moments as
it was before its cut tables were cached per grid and candidate set.

Every call rebuilds the edge matrix, the clipped cuts, their segment ids
and the powers of their local offsets. The cached route must return the
same bytes as cell_moments below, on every belief and candidate set.
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
