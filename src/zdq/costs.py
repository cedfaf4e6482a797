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

from .beliefs import GridBelief, SimplexBelief, cell_moments
from .quantizers import interval_edges

__all__ = ["CostModel", "optimal_reconstruction", "stage_cost", "stage_costs"]

_EPS_CELL = 1e-12


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

    def pointwise(self, x, u) -> float:
        """Realized cost of reconstructing state x as u."""
        if self.kind == "quadratic":
            return float((x - u) ** 2)
        return float(self.table[int(x), int(u)])

    @property
    def bound(self) -> float:
        if self.kind != "bounded_tabular":
            raise ValueError("only bounded_tabular costs have a finite bound")
        return float(self.table.max())


def _cell_moments_simplex(belief: SimplexBelief, quantizer, m: int):
    mask = quantizer.member_mask(m)
    if mask.shape != belief.probabilities.shape:
        raise ValueError("partition and belief alphabet sizes differ")
    r = belief.probabilities * mask
    m0 = float(r.sum())
    m1 = float(r @ belief.states)
    m2 = float(r @ (belief.states**2))
    return m0, m1, m2


def optimal_reconstruction(belief, quantizer, m: int, cost: CostModel):
    """Best decoder output for cell m.

    Quadratic: the conditional mean of the belief restricted to the
    cell. Tabular: the column index minimizing the restricted expected
    cost, lowest index on ties. The cell must carry positive mass.
    """
    if cost.kind == "quadratic":
        if isinstance(belief, GridBelief):
            moments, center = cell_moments(belief, np.array(quantizer.cell_interval(m)))
            m0, m1 = moments[:2, 0]
            if m0 <= _EPS_CELL:
                raise ValueError(f"cell {m} carries no mass; reconstruction undefined")
            return float(center + m1 / m0)
        if not isinstance(belief, SimplexBelief):
            raise TypeError(f"unsupported belief type {type(belief).__name__}")
        m0, m1, _ = _cell_moments_simplex(belief, quantizer, m)
        if m0 <= _EPS_CELL:
            raise ValueError(f"cell {m} carries no mass; reconstruction undefined")
        return m1 / m0
    if not isinstance(belief, SimplexBelief):
        raise TypeError("bounded tabular costs are defined on finite alphabets only")
    mask = quantizer.member_mask(m)
    r = belief.probabilities * mask
    if float(r.sum()) <= _EPS_CELL:
        raise ValueError(f"cell {m} carries no mass; reconstruction undefined")
    if cost.table.shape[0] != belief.n_states:
        raise ValueError("cost table rows must match the belief alphabet")
    return int(np.argmin(r @ cost.table))


def stage_costs(belief, quantizers, cost: CostModel) -> np.ndarray:
    """Stage cost of every quantizer at one belief, as a length-K array.

    Grid beliefs under quadratic cost take every cell of every candidate
    from one prefix moment table (see beliefs.cell_moments); other
    pairs go through stage_cost one candidate at a time. Entries match
    stage_cost, so np.argmin keeps the first-candidate tie rule.
    """
    if isinstance(belief, GridBelief) and cost.kind == "quadratic":
        (m0, m1, m2), _ = cell_moments(belief, interval_edges(quantizers))
        live = m0 > _EPS_CELL
        var = np.maximum(m2 - m1 * m1 / np.where(live, m0, 1.0), 0.0)
        return np.where(live, var, 0.0).sum(axis=1)
    return np.array([stage_cost(belief, q, cost) for q in quantizers])


def stage_cost(belief, quantizer, cost: CostModel) -> float:
    """Expected one-stage distortion under the best decoder.

    Sums over cells the restricted expected cost at that cell's optimal
    reconstruction; cells with (numerically) no mass contribute 0. Under
    quadratic cost this is the mass-weighted conditional variance, which
    never exceeds the belief's second moment.
    """
    if isinstance(belief, GridBelief) and cost.kind == "quadratic":
        return float(stage_costs(belief, [quantizer], cost)[0])
    total = 0.0
    if cost.kind == "quadratic":
        if not isinstance(belief, SimplexBelief):
            raise TypeError(f"unsupported belief type {type(belief).__name__}")
        for m in range(1, quantizer.levels + 1):
            m0, m1, m2 = _cell_moments_simplex(belief, quantizer, m)
            if m0 <= _EPS_CELL:
                continue
            total += max(m2 - m1 * m1 / m0, 0.0)
        return total
    if not isinstance(belief, SimplexBelief):
        raise TypeError("bounded tabular costs are defined on finite alphabets only")
    if cost.table.shape[0] != belief.n_states:
        raise ValueError("cost table rows must match the belief alphabet")
    for m in range(1, quantizer.levels + 1):
        r = belief.probabilities * quantizer.member_mask(m)
        if float(r.sum()) <= _EPS_CELL:
            continue
        total += float(np.min(r @ cost.table))
    return total
