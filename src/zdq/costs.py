"""Per-stage distortion of a belief under a quantizer.

The encoder sends a cell index; the best decoder replies with the cell's
optimal reconstruction. Under squared error that is the conditional
mean, and the per-stage cost is the mass-weighted conditional variance
summed over cells. Bounded tabular costs restrict to finite alphabets
with a finite reconstruction set; the optimal reconstruction is then the
cost-minimizing column index.

cell_decisions is the one way from a belief and a candidate set to
every stage cost, cell mass and reconstruction; a greedy choice is the
first argmin of its stages. Every cell moment is linear in the belief
(the alpha-vector view of Smallwood & Sondik 1973), so a grid belief's
cell moments come from one product of cached cut weights with its
values. It takes a CandidateSet or any sequence of quantizers, and
sums a stage cost's cells in order (_sum_cells).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import EPS_MASS, SimplexBelief
from .quantizers import CandidateSet

__all__ = ["CostModel", "cell_decisions"]


@dataclass(frozen=True)
class CostModel:
    """Distortion model: 'quadratic' or 'bounded_tabular'.

    Tabular costs carry a (n_states, n_reconstructions) matrix of
    nonnegative finite entries; reconstructions are identified by column
    index.
    """

    kind: str
    table: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.kind not in ("quadratic", "bounded_tabular"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.kind == "bounded_tabular":
            if self.table is None:
                raise ValueError("bounded_tabular needs a cost table")
            table = np.asarray(self.table, dtype=float)
            if table.ndim != 2 or table.size == 0:
                raise ValueError("cost table must be a nonempty 2-d array")
            if not np.all(np.isfinite(table)) or np.any(table < 0.0):
                raise ValueError("cost table entries must be finite and >= 0")
            table.flags.writeable = False
            object.__setattr__(self, "table", table)
        elif self.table is not None:
            raise ValueError("quadratic cost takes no table")

    @classmethod
    def quadratic(cls) -> "CostModel":
        return cls("quadratic")

    @classmethod
    def bounded_tabular(cls, table) -> "CostModel":
        return cls("bounded_tabular", np.asarray(table, dtype=float))

    def pointwise(self, x, u):
        """Realized cost of reconstructing state x as u, elementwise on arrays.

        The square is the product d * d, which IEEE 754 rounds correctly,
        so realized costs have the same bits on every C library.
        """
        if self.kind == "quadratic":
            d = np.subtract(x, u, dtype=float)
            return d * d
        return self.table[np.asarray(x, dtype=int), np.asarray(u, dtype=int)]


def _tabular_cells(belief, quantizer, cost: CostModel) -> list:
    """Restricted expected cost of every reconstruction, cell by cell.

    Cells with (numerically) no mass give None. The belief must be a
    simplex belief over the cost table's rows.
    """
    if not isinstance(belief, SimplexBelief):
        raise TypeError("bounded tabular costs are defined on finite alphabets only")
    restricted = belief.restrict_cells(quantizer.membership)
    if cost.table.shape[0] != belief.n_states:
        raise ValueError("cost table rows must match the belief alphabet")
    return [r @ cost.table if float(r.sum()) > EPS_MASS else None for r in restricted]


def cell_decisions(belief, candidates, cost: CostModel):
    """(stages, masses, recon) of K candidates with at most L cells.

    stages[k] is candidates[k]'s expected one-stage distortion under the
    best decoder: the restricted expected cost at each cell's optimal
    reconstruction, summed over the cells of mass > EPS_MASS.
    masses[k, m - 1] is cell m's belief mass (0 past the levels), and
    recon[k, m - 1] its optimal reconstruction (NaN for a massless or
    padded cell): the conditional mean under quadratic cost, where the
    stage cost is the mass-weighted conditional variance; under a
    tabular cost the least-cost column index, lowest on ties, with each
    quantizer's cells walked once in order. All three come from one
    belief.cell_moments call; np.argmin over stages keeps the
    first-candidate tie rule. A grid belief whose mirror image is its
    canonical orientation (orientation 1), under a set closed under
    mirroring, takes the decisions of its mirror image, read off in
    the mirrored candidates and cells (CandidateMirror) with the
    reconstructions negated, so that a belief and its mirror image give
    mirrored decisions bit for bit.
    """
    candidates = CandidateSet.of(candidates)
    mirror = candidates.mirror
    if mirror is None or belief.orientation < 0:
        return _decisions(belief, belief.cell_moments(candidates), candidates, cost)
    # the mirror image's decisions, in mirrored candidates and cells
    stages, masses, recon = _decisions(belief, belief._canonical_moments(candidates), candidates, cost)
    images = stages.take(mirror.ids), masses.take(mirror.cells), -recon.take(mirror.cells)
    if belief.orientation > 0:
        return images
    # its own mirror image: of a candidate and its mirror image, the
    # later one takes the earlier one's decisions, mirrored
    later = mirror.ids < np.arange(len(candidates))
    for out, image in zip((stages, masses, recon), images):
        out[later] = image[later]
    return stages, masses, recon


def _decisions(belief, cell_moments, candidates, cost: CostModel):
    """cell_decisions of a CandidateSet from the cell moments, (moments,
    center), of the belief or, under a quadratic cost, its mirror image."""
    moments, center = cell_moments
    m0 = moments[0]
    if cost.kind == "quadratic":
        # _stage_costs_from(moments), sharing dead and mass with recon
        dead, mass = _masked(m0)
        m1 = moments[1]
        var = moments[2] - m1 * m1 / mass
        np.maximum(var, 0.0, out=var)
        np.putmask(var, dead, 0.0)
        recon = m1 / mass
        recon += center
        np.putmask(recon, dead, np.nan)
        return _sum_cells(var), m0, recon
    stages = np.zeros(len(candidates))
    recon = np.full(m0.shape, np.nan)
    for k, q in enumerate(candidates):
        total = 0.0
        for i, column_costs in enumerate(_tabular_cells(belief, q, cost)):
            if column_costs is not None:
                u = np.argmin(column_costs)
                recon[k, i] = u
                total += float(column_costs[u])
        stages[k] = total
    return stages, m0, recon


def _masked(m0):
    """(dead, mass): the cells of mass m0 not above EPS_MASS, and the
    mass a cell's moments are divided by, m0 with 1 at the dead cells."""
    dead = ~(m0 > EPS_MASS)
    mass = m0.copy()
    np.putmask(mass, dead, 1.0)
    return dead, mass


def _stage_costs_from(moments) -> np.ndarray:
    """Quadratic stage cost of every quantizer from its cell moments
    (m0, m1, m2), as cell_decisions computes it."""
    m0, m1, m2 = moments
    dead, mass = _masked(m0)
    var = m2 - m1 * m1 / mass
    np.maximum(var, 0.0, out=var)
    np.putmask(var, dead, 0.0)
    return _sum_cells(var)


def _sum_cells(terms) -> np.ndarray:
    """terms summed over axis 1, the cells, in order from cell 0.
    .sum(axis=1) does the same for up to 7 cells or strided cells, but
    adds 8 or more contiguous cells pairwise, so a (K, L) array and its
    (K, L, C) blocks would round apart."""
    if terms.shape[1] == 1:
        return terms[:, 0].copy()
    total = terms[:, 0] + terms[:, 1]
    for cell in range(2, terms.shape[1]):
        total += terms[:, cell]
    return total
