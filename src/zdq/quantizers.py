"""Quantizers with convex cells.

Cells are indexed 1..levels. Scalar quantizers are threshold quantizers
with right-closed cells: cell m is (t_{m-1}, t_m], so a point sitting
exactly on a threshold goes to the lower cell. Finite-alphabet
quantizers are plain partitions of the state set, with a cached 0/1
membership matrix (one row per cell).

The enumerations return a CandidateSet, the ordered set a design
chooses from. It carries its level count, a batch classifier, a hash
taken once, which the caches keyed by a set, in beliefs.py and
sources.py, read, and its mirror map under x -> -x (CandidateMirror),
None unless every candidate's mirror image is in the set. Points on an
interval [-c, c] (symmetric_points) are exact negations of each other,
so an enumeration on such an interval is closed under mirroring.

Quantizers know their cells only; the mass and the moments of every
cell come from the belief's own cell_moments method (through
costs.cell_decisions), so no function here looks at a belief.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntervalQuantizer",
    "FinitePartition",
    "CandidateSet",
    "CandidateMirror",
    "enumerate_interval_candidates",
    "enumerate_finite_partitions",
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
        # an attribute, not a field: read on every filter step
        object.__setattr__(self, "levels", len(t) + 1)

    @staticmethod
    def _stacked(candidates):
        # the thresholds below x, as searchsorted(side="left") counts; +inf pads
        cuts = np.full((len(candidates), candidates.levels - 1), math.inf)
        for k, q in enumerate(candidates):
            cuts[k, : q.levels - 1] = q.thresholds
        return lambda ids, x: 1 + np.add.reduce(cuts[ids] < x[:, None], axis=1)

    @staticmethod
    def _mirror_keys(candidates):
        # each candidate's thresholds and its mirror image's
        return [(q.thresholds, q.mirror.thresholds) for q in candidates]

    @functools.cached_property
    def mirror(self) -> "IntervalQuantizer":
        """The mirror image under x -> -x: the thresholds negated, in
        reverse order, so that its cell levels + 1 - m is (-hi, -lo) for
        cell m = (lo, hi)."""
        return IntervalQuantizer(tuple(-t for t in reversed(self.thresholds)))

    def cell_interval(self, m: int):
        """Cell m as the interval (lo, hi], with infinities at the ends."""
        _cell_slot(self, m)
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

    @staticmethod
    def _stacked(candidates):
        cells = np.array([q.assignment for q in candidates], dtype=np.intp)
        return lambda ids, states: cells[ids, states]

    @staticmethod
    def _mirror_keys(candidates):
        # a chain's states have no mirror image
        return None

    @functools.cached_property
    def membership(self) -> np.ndarray:
        """(levels, n_states) 0/1 matrix; row m - 1 marks the states of cell m."""
        cells = np.arange(1, self.levels + 1)[:, None]
        out = (cells == np.asarray(self.assignment)).astype(float)
        out.flags.writeable = False
        return out

    def member_mask(self, m: int) -> np.ndarray:
        """Indicator vector over states of membership in cell m."""
        return self.membership[_cell_slot(self, m)]

    def describe(self) -> str:
        return "assignment=" + "".join(str(v) for v in self.assignment)

    def to_json(self) -> dict:
        return {
            "type": "finite_partition",
            "levels": self.levels,
            "assignment": list(self.assignment),
        }


def _cell_slot(quantizer, m: int) -> int:
    """Row of cell m (1-based) in per-cell arrays; raises when out of range."""
    if not 1 <= m <= quantizer.levels:
        raise ValueError(f"cell index {m} out of range 1..{quantizer.levels}")
    return m - 1


class CandidateSet(tuple):
    """The ordered, nonempty candidate quantizers of one family: a tuple
    that carries levels, the largest level count, and a batch classify.
    Its order is the tie rule (the first candidate among equal costs
    wins); its hash, the tuple's, is taken once, when the set is built.
    """

    def __new__(cls, quantizers):
        self = super().__new__(cls, quantizers)
        if not self:
            raise ValueError("candidate set must be nonempty")
        self.levels = max(q.levels for q in self)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, candidates) -> "CandidateSet":
        """candidates as a set: a set itself, any other sequence converted."""
        return candidates if isinstance(candidates, cls) else cls(candidates)

    @functools.cached_property
    def classify(self):
        """classify(ids, x): the cell of every x[i] under self[ids[i]], in
        one array operation: the count of thresholds below x plus 1 for a
        threshold quantizer, so a point on a threshold goes to the lower
        cell, and the state's assignment for a partition."""
        return type(self[0])._stacked(self)

    @functools.cached_property
    def mirror(self):
        """The set's CandidateMirror, or None when the set is not closed
        under exact negation of the thresholds (and for partitions)."""
        keys = type(self[0])._mirror_keys(self)
        if keys is None:
            return None
        return CandidateMirror.of(self, keys)


class CandidateMirror:
    """The mirror map k -> k̄ of a candidate set closed under x -> -x.

    Candidate k̄ has the thresholds of candidate k negated, in reverse
    order, so its cell m is the mirror image of cell levels + 1 - m of
    candidate k. The j-th copy of a quantizer in the set maps to the
    j-th copy of its mirror image, so the map is an involution. ids (K,)
    holds k̄ for every k. cells (K, L) holds, for cell m - 1 of candidate
    k, the flat index into a (K, L) array of the mirrored cell:
    k̄ L + levels - m, and for a padded cell its own slot in row k̄. So
    a (K, L) array a of a belief's cells gives the array of its mirror
    image's cells as a.take(cells), up to the sign of odd moments.
    Both arrays are read-only.
    """

    def __init__(self, ids, cells):
        self.ids, self.cells = ids, cells
        for a in (ids, cells):
            a.flags.writeable = False

    @classmethod
    def of(cls, candidates, keys):
        """The map of candidates from (thresholds, mirrored thresholds)
        per candidate; None when some quantizer's copies and its mirror
        image's copies differ in number."""
        copies = {}
        for k, (key, _) in enumerate(keys):
            copies.setdefault(key, []).append(k)
        seen = {}
        ids = []
        for key, image in keys:
            j = seen.get(key, 0)
            seen[key] = j + 1
            twins = copies.get(image, ())
            if len(twins) != len(copies[key]):
                return None
            ids.append(twins[j])
        ids = np.array(ids, dtype=np.intp)
        levels = candidates.levels
        cells = np.empty((len(candidates), levels), dtype=np.intp)
        for k, q in enumerate(candidates):
            cells[k] = ids[k] * levels + np.arange(levels)
            cells[k, : q.levels] = cells[k, q.levels - 1 :: -1]
        return cls(ids, cells)


def symmetric_points(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n), except that on an interval [-c, c] the
    points are exact negations of each other: the upper half is the
    lower half negated, and an odd n has 0 in the middle."""
    x = np.linspace(lo, hi, n)
    if lo == -hi and n > 1:
        half = n // 2
        x[n - half :] = -x[half - 1 :: -1]
        if n % 2:
            x[half] = 0.0
    return x


def enumerate_interval_candidates(levels: int, lo: float, hi: float, steps: int):
    """All threshold quantizers with levels cells on a uniform candidate grid.

    Thresholds are chosen as (levels - 1)-subsets of the steps-point grid
    on [lo, hi] (symmetric_points, so on [-c, c] the set is closed under
    mirroring), enumerated lexicographically. levels = 1 yields the
    single cell-free quantizer.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if steps < levels - 1:
        raise ValueError(
            f"steps = {steps} cannot support {levels - 1} distinct thresholds"
        )
    if levels == 1:
        return CandidateSet((IntervalQuantizer(()),))
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    points = symmetric_points(lo, hi, steps)
    return CandidateSet(
        IntervalQuantizer(combo)
        for combo in itertools.combinations(points.tolist(), levels - 1)
    )


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
    return CandidateSet(seen.values())
