"""Per-stage distortion of a belief under a quantizer.

The encoder sends a cell index; the best decoder replies with the cell's
optimal reconstruction. Under squared error that is the conditional
mean, and the per-stage cost is the mass-weighted conditional variance
summed over cells. Bounded tabular costs restrict to finite alphabets
with a finite reconstruction set; the optimal reconstruction is then the
cost-minimizing column index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import EPS_MASS, SimplexBelief
from .quantizers import _cell_slot

__all__ = [
    "CostModel",
    "cell_decisions",
    "optimal_reconstruction",
    "stage_cost",
    "stage_costs",
]


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
        if np.ndim(x) == 0 and np.ndim(u) == 0:
            return float(self.table[int(x), int(u)])
        return self.table[np.asarray(x, dtype=int), np.asarray(u, dtype=int)]

    @property
    def bound(self) -> float:
        if self.kind != "bounded_tabular":
            raise ValueError("only bounded_tabular costs have a finite bound")
        return float(self.table.max())


def _tabular_cells(belief, quantizer, cost: CostModel) -> list:
    """Restricted expected cost of every reconstruction, cell by cell.

    Cells with (numerically) no mass give None. The belief must be a
    simplex belief over the cost table's rows.
    """
    if not isinstance(belief, SimplexBelief):
        raise TypeError("bounded tabular costs are defined on finite alphabets only")
    restricted = belief.restrict(quantizer.membership)
    if cost.table.shape[0] != belief.n_states:
        raise ValueError("cost table rows must match the belief alphabet")
    return [r @ cost.table if float(r.sum()) > EPS_MASS else None for r in restricted]


def optimal_reconstruction(belief, quantizer, m: int, cost: CostModel):
    """Best decoder output for cell m.

    Quadratic: the conditional mean of the belief restricted to the
    cell. Tabular: the column index minimizing the restricted expected
    cost, lowest index on ties. The cell must carry positive mass.
    """
    u = cell_decisions(belief, [quantizer], cost)[1][0, _cell_slot(quantizer, m)]
    if np.isnan(u):
        raise ValueError(f"cell {m} carries no mass; reconstruction undefined")
    return float(u) if cost.kind == "quadratic" else int(u)


def cell_decisions(belief, quantizers, cost: CostModel):
    """Stage cost of every quantizer and best decoder output of every cell.

    Returns (stages, recon): stages is stage_costs(belief, quantizers,
    cost), and recon[k, m - 1] is optimal_reconstruction(belief,
    quantizers[k], m, cost) bit for bit, or NaN where that cell carries
    no mass (padded cells included). Under quadratic cost both come from
    one belief.cell_moments call; tabular outputs are column indices.
    """
    if cost.kind == "quadratic":
        moments, center = belief.cell_moments(quantizers)
        m0, m1, _ = moments
        live = m0 > EPS_MASS
        recon = np.where(live, center + m1 / np.where(live, m0, 1.0), np.nan)
        return _stage_costs_from(moments, belief, quantizers, cost), recon
    recon = np.full((len(quantizers), max(q.levels for q in quantizers)), np.nan)
    for k, q in enumerate(quantizers):
        for i, column_costs in enumerate(_tabular_cells(belief, q, cost)):
            if column_costs is not None:
                recon[k, i] = np.argmin(column_costs)
    return _stage_costs_from(None, belief, quantizers, cost), recon


def _stage_costs_from(moments, belief, quantizers, cost: CostModel) -> np.ndarray:
    """stage_costs, given belief.cell_moments(quantizers)[0] (read only under
    quadratic cost)."""
    if cost.kind == "quadratic":
        m0, m1, m2 = moments
        live = m0 > EPS_MASS
        var = np.maximum(m2 - m1 * m1 / np.where(live, m0, 1.0), 0.0)
        return np.where(live, var, 0.0).sum(axis=1)
    return np.array([
        sum((float(np.min(c)) for c in _tabular_cells(belief, q, cost) if c is not None), 0.0)
        for q in quantizers
    ])


def stage_costs(belief, quantizers, cost: CostModel) -> np.ndarray:
    """Stage cost of every quantizer at one belief, as a length-K array.

    Sums over cells the restricted expected cost at that cell's optimal
    reconstruction; cells with (numerically) no mass contribute 0. Under
    quadratic cost this is the mass-weighted conditional variance, which
    never exceeds the belief's second moment, and every cell of every
    candidate comes from one belief.cell_moments call. np.argmin over
    the result keeps the first-candidate tie rule.
    """
    moments = belief.cell_moments(quantizers)[0] if cost.kind == "quadratic" else None
    return _stage_costs_from(moments, belief, quantizers, cost)


def _stage_costs_and_masses(belief, quantizers, cost: CostModel):
    """stage_costs and quantizers.cell_masses from one cell_moments call.

    The numbers are those of the two public calls, bit for bit; a grid
    belief builds its prefix table once instead of twice.
    """
    moments, _ = belief.cell_moments(quantizers)
    return _stage_costs_from(moments, belief, quantizers, cost), moments[0]


def stage_cost(belief, quantizer, cost: CostModel) -> float:
    """Expected one-stage distortion under the best decoder (see stage_costs)."""
    return float(stage_costs(belief, [quantizer], cost)[0])
