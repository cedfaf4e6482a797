"""Quantizers with convex cells.

Cells are indexed 1..levels. Scalar quantizers are threshold quantizers
with right-closed cells: cell m is (t_{m-1}, t_m], so a point sitting
exactly on a threshold goes to the lower cell. Vector quantizers are
given by one separating hyperplane per unordered cell pair; points on a
hyperplane go to the lowest admissible cell. Finite-alphabet quantizers
are plain partitions of the state set.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .beliefs import GridBelief, SimplexBelief, cell_moments

__all__ = [
    "IntervalQuantizer",
    "HyperplaneQuantizer",
    "FinitePartition",
    "cell_mass",
    "cell_masses",
    "interval_edges",
    "enumerate_interval_candidates",
    "enumerate_finite_partitions",
    "quantizer_from_json",
]


@dataclass(frozen=True)
class IntervalQuantizer:
    """Threshold quantizer on the real line with levels = len(thresholds) + 1."""

    thresholds: tuple

    def __post_init__(self) -> None:
        t = tuple(float(v) for v in self.thresholds)
        object.__setattr__(self, "thresholds", t)
        if any(not math.isfinite(v) for v in t):
            raise ValueError("thresholds must be finite")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"thresholds must be strictly increasing, got {t}")

    @property
    def levels(self) -> int:
        return len(self.thresholds) + 1

    def classify(self, x):
        """Cell index of x; x exactly on a threshold goes to the lower cell."""
        idx = np.searchsorted(np.asarray(self.thresholds), x, side="left") + 1
        if np.isscalar(x) or np.ndim(x) == 0:
            return int(idx)
        return idx.astype(int)

    def cell_interval(self, m: int):
        """Cell m as the interval (lo, hi], with infinities at the ends."""
        if not 1 <= m <= self.levels:
            raise ValueError(f"cell index {m} out of range 1..{self.levels}")
        lo = self.thresholds[m - 2] if m >= 2 else -math.inf
        hi = self.thresholds[m - 1] if m <= self.levels - 1 else math.inf
        return lo, hi

    def describe(self) -> str:
        return "thresholds=" + "|".join(f"{t:g}" for t in self.thresholds)

    def to_json(self) -> dict:
        return {
            "type": "interval",
            "levels": self.levels,
            "thresholds": list(self.thresholds),
        }


@dataclass(frozen=True)
class HyperplaneQuantizer:
    """Convex-cell vector quantizer cut by pairwise separating hyperplanes.

    hyperplanes maps each pair (i, j) with i < j to (normal, offset) with
    a unit-norm normal; cell i lies on the side normal . x <= offset.
    Supports classification and simulation; cell masses in dimension > 1
    are out of scope.
    """

    dim: int
    levels: int
    hyperplanes: dict

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        planes = {}
        expected = {
            (i, j)
            for i in range(1, self.levels + 1)
            for j in range(i + 1, self.levels + 1)
        }
        if set(self.hyperplanes.keys()) != expected:
            raise ValueError(
                f"need one hyperplane per cell pair, expected {sorted(expected)}"
            )
        for (i, j), (normal, offset) in self.hyperplanes.items():
            normal = np.asarray(normal, dtype=float)
            if normal.shape != (self.dim,):
                raise ValueError(f"normal for pair {(i, j)} must have shape ({self.dim},)")
            if abs(float(np.linalg.norm(normal)) - 1.0) > 1e-9:
                raise ValueError(f"normal for pair {(i, j)} must have unit norm")
            normal.flags.writeable = False
            planes[(i, j)] = (normal, float(offset))
        object.__setattr__(self, "hyperplanes", planes)

    def classify(self, x) -> int:
        """Lowest cell whose every pairwise half-space constraint holds."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {x.shape}")
        for m in range(1, self.levels + 1):
            ok = True
            for (i, j), (normal, offset) in self.hyperplanes.items():
                side = float(normal @ x)
                if i == m and side > offset:
                    ok = False
                    break
                if j == m and side < offset:
                    ok = False
                    break
            if ok:
                return m
        raise ValueError(f"hyperplane arrangement leaves {x} with no admissible cell")

    def describe(self) -> str:
        return f"hyperplanes(dim={self.dim}, levels={self.levels})"

    def to_json(self) -> dict:
        return {
            "type": "hyperplane",
            "dim": self.dim,
            "levels": self.levels,
            "hyperplanes": [
                {"i": i, "j": j, "normal": list(normal), "offset": offset}
                for (i, j), (normal, offset) in sorted(self.hyperplanes.items())
            ],
        }


@dataclass(frozen=True)
class FinitePartition:
    """Partition of a finite state set into cells 1..levels.

    assignment[state] is the cell of that state. Cells may be empty; a
    canonical assignment uses cells in order of first appearance.
    """

    assignment: tuple
    levels: int

    def __post_init__(self) -> None:
        a = tuple(int(v) for v in self.assignment)
        object.__setattr__(self, "assignment", a)
        if not a:
            raise ValueError("assignment must be nonempty")
        if any(not 1 <= v <= self.levels for v in a):
            raise ValueError(
                f"assignment cells must lie in 1..{self.levels}, got {a}"
            )

    @property
    def n_states(self) -> int:
        return len(self.assignment)

    def classify(self, state) -> int:
        return self.assignment[int(state)]

    def member_mask(self, m: int) -> np.ndarray:
        """Indicator vector over states of membership in cell m."""
        if not 1 <= m <= self.levels:
            raise ValueError(f"cell index {m} out of range 1..{self.levels}")
        return (np.asarray(self.assignment) == m).astype(float)

    def describe(self) -> str:
        return "assignment=" + "".join(str(v) for v in self.assignment)

    def to_json(self) -> dict:
        return {
            "type": "finite_partition",
            "levels": self.levels,
            "assignment": list(self.assignment),
        }


def interval_edges(quantizers) -> np.ndarray:
    """Cell boundaries of interval quantizers as a (K, L + 1) array.

    Row k is (-inf, thresholds of quantizer k, +inf), padded with +inf up
    to the largest level count L, so padded cells are empty. Lists may
    mix level counts.
    """
    levels = max(q.levels for q in quantizers)
    edges = np.full((len(quantizers), levels + 1), math.inf)
    edges[:, 0] = -math.inf
    for k, q in enumerate(quantizers):
        edges[k, 1 : q.levels] = q.thresholds
    return edges


def cell_masses(belief, quantizers) -> np.ndarray:
    """Belief mass of every cell of every quantizer, as a (K, L) array.

    L is the largest level count; entries past a quantizer's own levels
    are 0. Grid beliefs take all masses from one prefix moment table
    (see beliefs.cell_moments); simplex beliefs sum per cell.
    """
    if isinstance(belief, GridBelief):
        moments, _ = cell_moments(belief, interval_edges(quantizers))
        return moments[0]
    if isinstance(belief, SimplexBelief):
        out = np.zeros((len(quantizers), max(q.levels for q in quantizers)))
        for k, q in enumerate(quantizers):
            out[k, : q.levels] = [cell_mass(belief, q, m) for m in range(1, q.levels + 1)]
        return out
    raise TypeError(f"unsupported belief type {type(belief).__name__}")


def cell_mass(belief, quantizer, m: int) -> float:
    """Belief mass of cell m.

    Grid beliefs integrate the piecewise-linear density over the cell
    interval exactly (boundary segments are split, so thresholds between
    nodes and on nodes are both handled without bias). Simplex beliefs
    sum exactly.
    """
    if isinstance(belief, GridBelief):
        moments, _ = cell_moments(belief, np.array(quantizer.cell_interval(m)))
        return float(moments[0, 0])
    if isinstance(belief, SimplexBelief):
        mask = quantizer.member_mask(m)
        if mask.shape != belief.probabilities.shape:
            raise ValueError("partition and belief alphabet sizes differ")
        return float(belief.probabilities @ mask)
    raise TypeError(f"unsupported belief type {type(belief).__name__}")


def enumerate_interval_candidates(levels: int, lo: float, hi: float, steps: int):
    """All threshold quantizers with levels cells on a uniform candidate grid.

    Thresholds are chosen as (levels - 1)-subsets of the steps-point grid
    on [lo, hi], enumerated lexicographically. levels = 1 yields the
    single cell-free quantizer.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if steps < levels - 1:
        raise ValueError(
            f"steps = {steps} cannot support {levels - 1} distinct thresholds"
        )
    if levels == 1:
        return [IntervalQuantizer(())]
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    points = np.linspace(lo, hi, steps)
    return [
        IntervalQuantizer(combo)
        for combo in itertools.combinations(points.tolist(), levels - 1)
    ]


def canonical_assignment(assignment) -> tuple:
    """Relabel cells so they appear in order of first use."""
    relabel = {}
    out = []
    for cell in assignment:
        if cell not in relabel:
            relabel[cell] = len(relabel) + 1
        out.append(relabel[cell])
    return tuple(out)


def enumerate_finite_partitions(n_states: int, levels: int):
    """All partitions of n_states states into at most levels cells.

    Partitions are deduplicated up to cell relabeling by canonical form
    (cells numbered in order of first use) and returned in a fixed
    deterministic order.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    seen = {}
    for combo in itertools.product(range(1, levels + 1), repeat=n_states):
        canon = canonical_assignment(combo)
        if canon not in seen:
            seen[canon] = FinitePartition(canon, levels)
    return list(seen.values())


def quantizer_from_json(data: dict):
    kind = data.get("type")
    if kind == "interval":
        return IntervalQuantizer(tuple(data["thresholds"]))
    if kind == "finite_partition":
        return FinitePartition(tuple(data["assignment"]), int(data["levels"]))
    if kind == "hyperplane":
        planes = {
            (int(h["i"]), int(h["j"])): (np.asarray(h["normal"], dtype=float), float(h["offset"]))
            for h in data["hyperplanes"]
        }
        return HyperplaneQuantizer(int(data["dim"]), int(data["levels"]), planes)
    raise ValueError(f"unknown quantizer type {kind!r}")
