"""Belief states, their cell moments, and the shared filter entry point.

A belief is the conditional law of the current source state given the
symbols sent so far. Continuous sources carry a GridBelief: a density
sampled on a fixed uniform grid and read as its piecewise-linear
interpolant, so integrals against quantizer cells can be taken exactly
even when a cell boundary falls between nodes. Finite chains carry a
SimplexBelief, where everything is exact arithmetic. Each belief class
answers for itself what the rest of the package reads off a belief:
key(), mean and std, cell_moments, draws by inverse_cdf, its
description in policy_tree.json (to_json) and its row in a rollout's
trajectory log (log_row). A grid belief is one immutable buffer: its
key() bytes, of which values is a read-only view, so a belief the
dynamic program stores costs one copy of its values, and its mean and
std are computed once.

Every cell mass and every moment behind a stage cost comes from one
method per belief family, cell_moments(candidates), which returns the
moments of orders 0..2 of every cell of a whole candidate set (a
quantizers.CandidateSet) as (K, L) arrays; costs.cell_decisions turns
them into stage costs, cell masses and reconstructions. A grid belief
builds a prefix table: the exact moments of the piecewise-linear
density, accumulated node by node in coordinates centred on the belief
mean, so the moments up to a cut are a table lookup plus a closed-form
term for the partial segment. A simplex belief multiplies its
probabilities by each partition's cached 0/1 membership matrix. A grid
belief also has a cheaper, less exact route, cut_moments: node-local
weights up to every distinct cut of a candidate set (CutWeights.local,
node_moment_weights) times its values and their products with powers
of (x - mean) give the cumulative moments about its mean at every cut,
in one product; costs.greedy_decision ranks candidates by it (a
simplex belief's cut_moments is None). _kernel_cut_moments is the
product of the cut set's window weights of x^k (CutWeights.matrix)
with the transition kernel, kept per source, grid and candidate set:
times a restriction it gives the cumulative raw moments of that
restriction's prediction at every cut, from which the sources
(sources.py) read the dynamic program's stage-cost floor and the
last-stage costs of a belief's children. Every route takes its
cumulative moments at the set's distinct cuts (CutWeights.points) and
reads every cell off them by CutWeights.cells.

The filter step is the usual two-stage update: restrict the belief to
the decoded cell, renormalize, then push through the one-step transition
law. filter_update is the one entry point for every family: it checks
that the belief is of the source's family and that the cell carries
mass, and leaves the restriction and the push to the source class
(sources.py). A grid restriction uses per-node window weights, which
integrate the same piecewise-linear density exactly, so the law of total
probability (summing the branch posteriors against the branch masses
reproduces the one-step prediction) holds to rounding. What depends on
the grid and the quantizers only is built once and kept read-only: the
cuts of a candidate set and the weights up to them (_cut_weights), their
product with the kernel (_kernel_cut_moments), the window weights of a
cell (_cell_weights) and the transition kernel (_transition_kernel),
each in a bounded LRU cache; the first two find a candidate set by the
hash it took when built. The kernel is banded (_BandedKernel): it keeps
each column's entries of at least 2^-60 of the column's largest, in
column-major blocks of 64 columns over the union of their rows, and
never holds the dense kernel. A restriction is the entries on its
cell's weight support, (start, part), so the push reads the cell's
columns as a run of blocks, one product of at most 64 columns per block
added into that block's rows; no such product is wide enough for a
threaded BLAS path, so a push gives the same bytes on any thread count.
W @ K multiplies row-major copies of 32 of a block's columns at a time,
over the block's rows only: on OpenBLAS a product with a column-major
block took the threaded path in some processes, 100 times slower. This
module imports nothing from sources.py; a source names its belief class.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .quantizers import CandidateSet

__all__ = [
    "Grid",
    "GridBelief",
    "SimplexBelief",
    "SMembershipReport",
    "ZeroMassSymbolError",
    "default_grid",
    "window_weights",
    "node_moment_weights",
    "filter_update",
    "check_S_membership",
]

DEFAULT_GRID_POINTS = 801
DEFAULT_SPAN_STDS = 8.0
EPS_MASS = 1e-12


class ZeroMassSymbolError(ValueError):
    """Raised when conditioning on a symbol whose cell carries no belief mass.

    The update is undefined there; callers are expected to never reach a
    zero-probability symbol (the dynamic program prunes such branches).
    """


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [lo, hi] with n_points nodes."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("grid bounds must be finite")
        if self.hi <= self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")
        if self.n_points < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n_points}")

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.lo, self.hi, self.n_points)
        x.flags.writeable = False
        return x

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n_points - 1)

    @functools.cached_property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.flags.writeable = False
        return w

    @functools.cached_property
    def moment_weights(self) -> tuple:
        """Full-range window weights of degrees 0, 1, 2 (belief-independent)."""
        out = tuple(window_weights(self, -math.inf, math.inf, k) for k in range(3))
        for w in out:
            w.flags.writeable = False
        return out


def default_grid(
    model,
    n_points: int = DEFAULT_GRID_POINTS,
    span_stds: float = DEFAULT_SPAN_STDS,
) -> Grid:
    """Grid covering +/- span_stds stationary standard deviations of a
    linear-Gaussian source."""
    half = span_stds * model.stationary_std
    return Grid(-half, half, n_points)


def window_weights(grid: Grid, lo, hi, degree: int = 0) -> np.ndarray:
    """Exact integration weights of x^degree over [lo, hi] for PL densities.

    Returns w such that w . values = integral over [lo, hi] of
    x^degree * f(x) dx, where f is the piecewise-linear interpolant of
    values on the grid. Segments cut by the window are integrated over
    the covered part only, so cell boundaries need not sit on nodes.
    Summed over the cells of a partition these weights reproduce the
    trapezoid weights exactly. degree in {0, 1, 2}. lo and hi may be
    arrays of one shape, which gives every window's weights at once, of
    that shape plus (n_points,); each row is the one its scalar window
    gives, bit for bit, and an empty window's row is 0.
    """
    if degree not in (0, 1, 2):
        raise ValueError(f"degree must be 0, 1, or 2, got {degree}")
    x = grid.nodes
    d = grid.spacing
    a = np.maximum(lo, grid.lo)[..., None]
    b = np.minimum(hi, grid.hi)[..., None]
    xl = x[:-1]
    # covered fraction of each segment, in local coordinate u in [0, 1]
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
    out = np.zeros(np.broadcast(a, b).shape[:-1] + (grid.n_points,))
    out[..., :-1] += d * w_lo
    out[..., 1:] += d * w_hi
    out[(b <= a)[..., 0]] = 0.0
    return out


def node_moment_weights(grid: Grid, lo, hi) -> np.ndarray:
    """Exact integration weights of (x - x_j)^m against node j's hat.

    Returns w of shape (3,) + the shape of lo and hi + (n_points,) with
    w[m] . values = sum over nodes j of values_j times the integral over
    [lo, hi] of (x - x_j)^m phi_j(x) dx, m = 0, 1, 2, where phi_j is the
    hat of node j, so that f = sum_j values_j phi_j is the
    piecewise-linear density. Expanding (x - c)^k about each node gives
    the moment of order k of f about any center c over [lo, hi] as
      sum over m of binom(k, m) w[m] . ((x - c)^(k - m) values),
    x the nodes: every term is nonnegative or of order spacing^m, so a
    density far from 0 loses no digits to cancellation between
    terms, as raw moments about 0 do. w[0] is window_weights(grid, lo,
    hi, 0); rows are broadcast as in window_weights.
    """
    d = grid.spacing
    xl = grid.nodes[:-1]
    a = np.maximum(lo, grid.lo)[..., None]
    b = np.minimum(hi, grid.hi)[..., None]
    u0 = np.clip((a - xl) / d, 0.0, 1.0)
    u1 = np.clip((b - xl) / d, 0.0, 1.0)
    s1 = u1 - u0
    s2 = 0.5 * (u1 * u1 - u0 * u0)
    s3 = (u1**3 - u0**3) / 3.0
    s4 = 0.25 * (u1**4 - u0**4)
    # on a segment x = x_s + d u, so x - x_s = d u and x - x_{s+1} = d (u - 1)
    pieces = (
        (s1 - s2, s2),
        (d * (s2 - s3), d * (s3 - s2)),
        (d * d * (s3 - s4), d * d * (s4 - 2.0 * s3 + s2)),
    )
    out = np.zeros((3,) + np.broadcast(a, b).shape[:-1] + (grid.n_points,))
    for w, (w_lo, w_hi) in zip(out, pieces):
        w[..., :-1] += d * w_lo
        w[..., 1:] += d * w_hi
        w[(b <= a)[..., 0]] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class GridBelief:
    """Density belief on a fixed grid, normalized to trapezoid integral 1.

    The belief holds one buffer: the bytes of its values, which key()
    returns, and values is a read-only view of them. It copies the array
    it is built from, so the caller may go on to change that array.
    == is identity; two beliefs compare by value through key().
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},), "
                f"got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0.0):
            raise ValueError("density values must be >= 0")
        z = float(self.grid.trapezoid_weights @ values)
        if abs(z - 1.0) > 1e-9:
            raise ValueError(f"density must integrate to 1 within 1e-9, got {z}")
        self._hold(values)

    def _hold(self, values: np.ndarray) -> None:
        key = values.tobytes()
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "values", np.frombuffer(key))

    @classmethod
    def _normalized(cls, grid: Grid, values: np.ndarray) -> "GridBelief":
        """A belief of float values that pass __post_init__'s checks by
        construction, built without running them again."""
        belief = object.__new__(cls)
        object.__setattr__(belief, "grid", grid)
        belief._hold(values)
        return belief

    @classmethod
    def from_unnormalized(cls, grid: Grid, values: np.ndarray) -> "GridBelief":
        values = np.asarray(values, dtype=float)
        z = float(grid.trapezoid_weights @ values)
        if z < sys.float_info.min and np.max(values, initial=0.0) > 0.0:
            # a subnormal or underflowed mass loses the precision that
            # dividing by it needs; rescale by the largest value first
            values = values / np.max(values)
            z = float(grid.trapezoid_weights @ values)
        if z <= 0.0:
            raise ValueError("cannot normalize: nonpositive total mass")
        return cls(grid, values / z)

    @classmethod
    def normal(cls, grid: Grid, mean: float, std: float) -> "GridBelief":
        if std <= 0.0:
            raise ValueError(f"std must be > 0, got {std}")
        u = (grid.nodes - mean) / std
        values = np.exp(-0.5 * u * u) / (std * math.sqrt(2.0 * math.pi))
        return cls.from_unnormalized(grid, values)

    @classmethod
    def uniform(cls, grid: Grid, lo: float, hi: float) -> "GridBelief":
        if not (grid.lo <= lo < hi <= grid.hi):
            raise ValueError("uniform support must lie inside the grid")
        values = np.where((grid.nodes >= lo) & (grid.nodes <= hi), 1.0, 0.0)
        return cls.from_unnormalized(grid, values)

    @classmethod
    def point_mass(cls, grid: Grid, x0: float) -> "GridBelief":
        """Single-node spike at the grid node nearest x0.

        Under the PL reading this is a narrow triangle, not a true atom;
        moments are exact up to the node snap plus O(spacing^2).
        """
        if not (grid.lo <= x0 <= grid.hi):
            raise ValueError(f"point mass {x0} outside grid [{grid.lo}, {grid.hi}]")
        i = int(round((x0 - grid.lo) / grid.spacing))
        values = np.zeros(grid.n_points)
        values[i] = 1.0 / grid.trapezoid_weights[i]
        return cls(grid, values)

    def key(self) -> bytes:
        """Byte-exact identity of the belief, for memoization: the
        buffer values views, not a copy."""
        return self._key

    @functools.cached_property
    def mean(self) -> float:
        """Exact first moment of the piecewise-linear density, consistent
        with cell masses and stage costs."""
        return float(self.grid.moment_weights[1] @ self.values)

    @functools.cached_property
    def std(self) -> float:
        mean = self.mean
        var = float(self.grid.moment_weights[2] @ self.values) - mean * mean
        return math.sqrt(max(var, 0.0))

    def to_json(self) -> dict:
        """Description of the belief in policy_tree.json."""
        return {
            "type": "grid",
            "mean": self.mean,
            "std": self.std,
            "n_points": self.grid.n_points,
        }

    def log_row(self) -> list:
        """The belief's columns in a trajectory log: mean and std."""
        return [self.mean, self.std]

    def cell_moments(self, candidates):
        """Exact moments of orders 0..2 of the PL density over every cell.

        candidates is a sequence of interval quantizers, possibly with
        mixed level counts, taken as a CandidateSet. Quantizer k cuts at
        (-inf, its thresholds, +inf), padded with +inf up to the largest
        level count L, so padded cells are empty. Cut points are clipped to the grid,
        so the infinities close the outer cells.

        On the segment starting at node j, the moments over the local
        coordinate range [0, u] are polynomials in u of degree <= 4 whose
        coefficients depend on the two node values. One prefix table holds
        the whole-segment moments summed up to every node, so the moments
        up to any cut are a table lookup plus that polynomial at the cut,
        and a cell's moments are the difference at its two cuts. The
        segment ids and offset powers of the candidate set's distinct cut
        points depend on the grid and the thresholds only
        (CutWeights.segments); only the table is built per call.

        Returns ((m0, m1, m2), center) with (K, L) moment arrays; the
        first and second moments are taken about center, the belief mean,
        which keeps m2 - m1^2 / m0 free of cancellation for beliefs far
        from 0.
        """
        candidates = CandidateSet.of(candidates)
        grid = self.grid
        x = grid.nodes
        d = grid.spacing
        center = self.mean
        y = x[:-1] - center
        dv = d * self.values[:-1]
        ds = d * np.diff(self.values)
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
        weights = _cut_weights(grid, candidates)
        j, powers = weights.segments
        cumulative = table[:, j] + (poly[:, :, j] * powers).sum(axis=1)
        return weights.cells(cumulative.ravel()), center

    def cut_moments(self, candidates):
        """Moments of orders 0..2 of every cell of the candidates (any
        sequence, taken as a CandidateSet) about the belief mean, from one
        product.

        With y = x - center at the nodes (center = mean), the product of
        the set's CutWeights.local (node_moment_weights G_m up to every
        point) with the columns v, y v and y^2 v of the values v gives
        the cumulative moments about the center at every point,
          C_0 = G_0 v,  C_1 = G_0 (y v) + G_1 v,
          C_2 = G_0 (y^2 v) + 2 G_1 (y v) + G_2 v,
        and a cell's moments are the difference at its two cuts. This is
        cheaper than cell_moments' prefix table but less exact: a moment
        from -inf carries the rounding of the whole sum up to its cut
        (costs.greedy_decision bounds it). Returns ((m0, m1, m2), center,
        spread) with (K, L) arrays, and spread the square root of C_2 at
        +inf (the variance) plus the grid spacing: the scale the
        product's order-1 sums are bounded by.
        """
        grid = self.grid
        weights = _cut_weights(grid, CandidateSet.of(candidates))
        center = self.mean
        y = grid.nodes - center
        columns = np.empty((3, grid.n_points))
        columns[0] = self.values
        np.multiply(y, self.values, out=columns[1])
        np.multiply(y, columns[1], out=columns[2])
        g = columns @ weights.local.T
        p = len(weights.points)
        cumulative = np.empty(3 * p)
        cumulative[:p] = g[0, :p]
        np.add(g[1, :p], g[0, p : 2 * p], out=cumulative[p : 2 * p])
        np.add(g[2, :p], 2.0 * g[1, p : 2 * p] + g[0, 2 * p :], out=cumulative[2 * p :])
        spread = math.sqrt(max(cumulative[-1], 0.0)) + grid.spacing
        return weights.cells(cumulative), center, spread

    def inverse_cdf(self, v) -> np.ndarray:
        """The draw of the belief at every uniform variate v in [0, 1).

        Each variate v is mapped to the point where the cumulative mass
        of the piecewise-linear density reaches v times the total mass:
        its segment by a search, its place in the segment by solving
        d*(v0*u + (v1-v0)*u^2/2) = t for u in [0, 1].
        """
        cum = self._cumulative_mass()
        target = cum[-1] * np.asarray(v, dtype=float)
        p = np.searchsorted(cum, target, side="right") - 1
        p = np.minimum(np.maximum(p, 0), len(cum) - 2)
        d = self.grid.spacing
        t = target - cum[p]
        v0 = self.values[p]
        dv0 = d * v0
        slope = (self.values[p + 1] - v0) * d
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(
                np.abs(slope) < 1e-300,
                np.where(v0 > 0, t / dv0, 0.0),
                (-dv0 + np.sqrt(np.maximum(dv0 * dv0 + 2.0 * slope * t, 0.0))) / slope,
            )
        return self.grid.nodes[p] + np.minimum(np.maximum(u, 0.0), 1.0) * d

    def _cumulative_mass(self) -> np.ndarray:
        v = self.values
        seg = 0.5 * self.grid.spacing * (v[:-1] + v[1:])
        return np.concatenate(([0.0], np.cumsum(seg)))


@dataclass(eq=False)
class SimplexBelief:
    """Probability vector over a finite alphabet with real state values.

    == is identity; two beliefs compare by value through key(), the
    bytes of their probabilities.
    """

    probabilities: np.ndarray
    states: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.probabilities.ndim != 1:
            raise ValueError("probabilities must be a vector")
        if not np.all(np.isfinite(self.probabilities)):
            raise ValueError("probabilities must be finite")
        if np.any(self.probabilities < 0.0):
            raise ValueError("probabilities must be >= 0")
        if abs(self.probabilities.sum() - 1.0) > 1e-9:
            raise ValueError(
                f"probabilities must sum to 1, got {self.probabilities.sum()}"
            )
        n = self.probabilities.shape[0]
        if self.states is None:
            self.states = np.arange(n, dtype=float)
        else:
            self.states = np.asarray(self.states, dtype=float)
            if self.states.shape != (n,):
                raise ValueError(
                    f"states must have shape ({n},), got {self.states.shape}"
                )

    @property
    def n_states(self) -> int:
        return self.probabilities.shape[0]

    def key(self) -> bytes:
        return self.probabilities.tobytes()

    @property
    def mean(self) -> float:
        return float(self.probabilities @ self.states)

    @property
    def std(self) -> float:
        mean = self.mean
        var = float(self.probabilities @ (self.states * self.states)) - mean * mean
        return math.sqrt(max(var, 0.0))

    def to_json(self) -> dict:
        """Description of the belief in policy_tree.json, in full."""
        return {
            "type": "simplex",
            "probabilities": self.probabilities.tolist(),
            "states": self.states.tolist(),
        }

    def log_row(self) -> list:
        """The belief's columns in a trajectory log: mean, std, then the
        probabilities."""
        return [self.mean, self.std, *self.probabilities.tolist()]

    def restrict(self, membership: np.ndarray) -> np.ndarray:
        """The probabilities restricted to cells given as 0/1 rows (..., n_states).

        Raises ValueError when the rows cover another alphabet, before
        any broadcast could hide it.
        """
        if membership.shape[-1] != self.n_states:
            raise ValueError("partition and belief alphabet sizes differ")
        return membership * self.probabilities

    def cell_moments(self, candidates):
        """Moments of orders 0..2 of every cell of every partition.

        Each partition's (levels, n_states) membership matrix restricts
        the belief to all of its cells at once. The moments are computed
        partition by partition, so a single-candidate read rounds exactly
        like its entry in a batch, then padded with empty cells up to the
        largest level count L. candidates is any sequence of partitions,
        taken as a CandidateSet. Returns ((m0, m1, m2), center) with (K, L)
        arrays of raw moments, so center is 0.
        """
        candidates = CandidateSet.of(candidates)
        s, s2 = self.states, self.states * self.states
        out = np.zeros((3, len(candidates), candidates.levels))
        for k, q in enumerate(candidates):
            r = self.restrict(q.membership[None])
            out[:, k : k + 1, : q.levels] = r.sum(axis=-1), r @ s, r @ s2
        return out, 0.0

    def cut_moments(self, candidates):
        """None: a simplex belief's cell_moments is already one product
        per partition, so it has no cheaper product route."""
        return None

    def inverse_cdf(self, v) -> np.ndarray:
        """The state drawn at every uniform variate v in [0, 1).

        This is the draw of Generator.choice(n_states, p=probabilities)
        when v is its one uniform variate: the count of normalized
        cumulative sums that are <= v.
        """
        cdf = self.probabilities.cumsum()
        cdf /= cdf[-1]
        return (cdf <= np.asarray(v)[:, None]).sum(axis=1)


@dataclass(frozen=True)
class SMembershipReport:
    """Measured density bounds against the admissible class."""

    max_density: float
    max_slope: float
    sup_bound: float
    slope_bound: float
    passed: bool


_CUT_SETS = 64  # candidate sets whose CutWeights are kept
_CELL_WEIGHTS = 256  # cells whose window weights are kept


class CutWeights:
    """Where the cuts of a candidate set fall on a grid, and the weights
    up to every distinct cut.

    The points are -inf, the distinct thresholds in increasing order and
    +inf (P of them). slots[k, i] (K, L + 1) is the point of quantizer
    k's cut i: -inf, its thresholds, then +inf up to the largest level
    count L. ends (2, 3, K, L) indexes a flat array of cumulative
    moments, order by order and point by point, at the lower and the
    upper cut of every cell, which cells reads. Built on first use:
      segments  (j, powers): the segment j (P,) of each point clipped to
                the grid, and powers (4, P) of its offset u in [0, 1]
                there, u^1 .. u^4 (cell_moments);
      matrix    window_weights of x^k, k = 0, 1, 2 (_kernel_cut_moments);
      local     node_moment_weights of orders 0, 1, 2 (cut_moments);
    both (3 P, n_points), from -inf up to every point. All arrays are
    read-only.
    """

    def __init__(self, grid: Grid, candidates):
        self.grid = grid
        cuts = sorted({t for q in candidates for t in q.thresholds})
        self.points = np.array([-math.inf, *cuts, math.inf])
        slot = {t: i for i, t in enumerate(self.points.tolist())}
        slots = np.full((len(candidates), candidates.levels + 1), len(self.points) - 1)
        slots[:, 0] = 0
        for k, q in enumerate(candidates):
            slots[k, 1 : q.levels] = [slot[t] for t in q.thresholds]
        flat = len(self.points) * np.arange(3)[:, None, None] + slots
        self.slots, self.ends = slots, np.stack([flat[..., :-1], flat[..., 1:]])
        for a in (self.points, self.slots, self.ends):
            a.flags.writeable = False

    def cells(self, cumulative) -> np.ndarray:
        """Moments of every cell, (3, K, L) + trailing axes, from
        cumulative moments at every point, (3 P,) + trailing axes: the
        difference at each cell's two cuts."""
        lower, upper = self.ends
        return cumulative.take(upper, axis=0) - cumulative.take(lower, axis=0)

    @functools.cached_property
    def segments(self):
        grid = self.grid
        x = grid.nodes
        t = np.minimum(np.maximum(self.points, grid.lo), grid.hi)
        j = np.minimum(np.searchsorted(x, t, side="right") - 1, grid.n_points - 2)
        u = np.minimum((t - x[j]) / grid.spacing, 1.0)
        powers = u ** np.arange(1, 5)[:, None]
        j.flags.writeable = powers.flags.writeable = False
        return j, powers

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        out = np.concatenate(
            [window_weights(self.grid, -math.inf, self.points, k) for k in range(3)]
        )
        out.flags.writeable = False
        return out

    @functools.cached_property
    def local(self) -> np.ndarray:
        out = node_moment_weights(self.grid, -math.inf, self.points).reshape(-1, self.grid.n_points)
        out.flags.writeable = False
        return out


@functools.lru_cache(maxsize=_CUT_SETS)
def _cut_weights(grid: Grid, candidates) -> CutWeights:
    """The CandidateSet's CutWeights on grid, for both cell-moment
    routes, _kernel_cut_moments and the products of the sources."""
    return CutWeights(grid, candidates)


@functools.lru_cache(maxsize=_CELL_WEIGHTS)
def _cell_weights(grid: Grid, lo: float, hi: float):
    """window_weights(grid, lo, hi, 0) over its support, for a restriction.

    Returns (start, w): w holds the entries start .. start + len(w) - 1,
    read-only, and every other entry is 0 (w is empty for an empty cell).
    """
    w = window_weights(grid, lo, hi, 0)
    nz = np.flatnonzero(w)
    start, stop = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
    w = w[start:stop].copy()  # a copy, so the full array is freed
    w.flags.writeable = False
    return start, w


_KERNEL_COLUMNS = 64  # kernel columns per stored block
# noise variances a band's squared radius reaches past its peak's squared
# distance: an entry there is exp(-_BAND_VARIANCES / 2) = 2^-60 of the peak
_BAND_VARIANCES = 120.0 * math.log(2.0)


class _BandedKernel:
    """The transition kernel K[j, i] = transition density at node j given
    node i, holding only each column's band.

    Column i is centred at c = a x_i; with d the distance from c to the
    nearest node, where the column is largest, and s the noise std, its
    band is the rows j with (x_j - c)^2 <= d^2 + 120 ln 2 s^2: the
    entries at least 2^-60 of the column's largest. The band's ends come
    in closed form from searchsorted, its radius widened by one part in
    10^12 so that rounding at the threshold keeps an entry rather than
    drops it. The columns are held in blocks of _KERNEL_COLUMNS:
    blocks[b] is (r0, block), block the rows r0 .. r0 + len(block) - 1
    of columns b _KERNEL_COLUMNS onward, the union of their bands, dense,
    column-major and read-only. Each block is built in place by the
    elementwise formula u = (x_j - a x_i) / s, exp((-0.5 * u) * u) / norm,
    so every kept entry is the one-shot formula's bit for bit; the
    dense kernel is never built.
    """

    def __init__(self, model, grid: Grid):
        model.require_noise()
        s = model.noise_std
        x = grid.nodes
        ax = model.a * x
        norm = s * math.sqrt(2.0 * math.pi)
        right = np.minimum(np.searchsorted(x, ax), grid.n_points - 1)
        left = np.maximum(right - 1, 0)
        d = np.minimum(np.abs(ax - x[right]), np.abs(ax - x[left]))
        radius = np.sqrt(d * d + _BAND_VARIANCES * (s * s)) * (1.0 + 1e-12)
        first = np.searchsorted(x, ax - radius, side="left")
        stop = np.searchsorted(x, ax + radius, side="right")
        blocks = []
        for i in range(0, grid.n_points, _KERNEL_COLUMNS):
            cols = slice(i, i + _KERNEL_COLUMNS)
            r0, r1 = int(first[cols].min()), int(stop[cols].max())
            u = np.subtract(x[None, r0:r1], ax[cols, None])
            np.divide(u, s, out=u)
            h = np.multiply(-0.5, u)
            np.multiply(h, u, out=u)
            np.exp(u, out=u)
            np.divide(u, norm, out=u)
            u.flags.writeable = False
            blocks.append((r0, u.T))
        self.n_points = grid.n_points
        self.blocks = tuple(blocks)

    def times(self, start: int, part: np.ndarray) -> np.ndarray:
        """K[:, start : start + len(part)] @ part over the bands: block by
        block, in increasing column order, each block's product added into
        its rows. No product has more than _KERNEL_COLUMNS columns, so none
        takes a threaded BLAS path."""
        out = np.zeros(self.n_points)
        stop = start + len(part)
        for b in range(start // _KERNEL_COLUMNS, -(-stop // _KERNEL_COLUMNS)):
            i = b * _KERNEL_COLUMNS
            r0, block = self.blocks[b]
            c0, c1 = max(start, i), min(stop, i + _KERNEL_COLUMNS)
            out[r0 : r0 + len(block)] += block[:, c0 - i : c1 - i] @ part[c0 - start : c1 - start]
        return out


@functools.lru_cache(maxsize=8)
def _transition_kernel(model, grid: Grid) -> _BandedKernel:
    """The source's banded transition kernel on grid, read-only."""
    return _BandedKernel(model, grid)


_PRODUCT_COLUMNS = 32  # kernel columns per weight-matrix product


@functools.lru_cache(maxsize=_CUT_SETS)
def _kernel_cut_moments(model, grid: Grid, candidates) -> np.ndarray:
    """W @ K, read-only: the candidate set's window weights up to every
    cut (_cut_weights(...).matrix, (3 P, n_points)) times the transition
    kernel, kept per (model, grid, candidate set).

    Column i holds the raw moments of orders 0..2 of the one-step density
    from node i up to every cut, order by order (the order-0 row at +inf
    is its trapezoid integral); W @ K @ r does the same for the
    prediction K r of any restriction r. The product is taken in blocks
    of _PRODUCT_COLUMNS kernel columns, each over its kernel block's rows
    only (matrix[:, r0:r1]): narrow products stay on one BLAS thread,
    and on a 2-core Xeon the threaded 39 x 801 x 801 product took 30 ms,
    these 26 took 2 ms. Each block is a row-major copy of the kernel
    block's columns: times a column-major block, OpenBLAS took its
    threaded path in some processes (about 200 ms against 2 ms).
    """
    matrix = _cut_weights(grid, candidates).matrix
    out = np.hstack([
        matrix[:, r0 : r0 + len(block)] @ np.ascontiguousarray(block[:, j : j + _PRODUCT_COLUMNS])
        for r0, block in _transition_kernel(model, grid).blocks
        for j in range(0, block.shape[1], _PRODUCT_COLUMNS)
    ])
    out.flags.writeable = False
    return out


def _check_pair(belief, model) -> None:
    """Raise TypeError unless belief is of the family model's beliefs are."""
    if not isinstance(belief, model.belief_type):
        raise TypeError(
            f"a {type(model).__name__} has {model.belief_type.__name__} beliefs, "
            f"got a {type(belief).__name__}"
        )


def filter_update(belief, model, quantizer, symbol: int):
    """One filter step: condition on the decoded cell, then predict.

    model.restrict gives the belief restricted to the cell, as the
    entries (start, part) that can be nonzero, and model.push the
    renormalized one-step prediction of it. Returns the next-step belief.
    Raises TypeError when belief is not of model's family, and
    ZeroMassSymbolError when the cell mass does not exceed EPS_MASS; the
    caller must not condition on a zero-probability symbol.
    """
    _check_pair(belief, model)
    start, part = model.restrict(belief, quantizer, symbol)
    mass = float(part.sum())
    if mass <= EPS_MASS:
        raise ZeroMassSymbolError(
            f"zero-probability symbol {symbol}: cell mass {mass} <= {EPS_MASS}"
        )
    return model.push(belief, start, part, mass)


def check_S_membership(belief: GridBelief, bounds, tol: float = 0.0) -> SMembershipReport:
    """Check the belief against uniform sup/slope bounds.

    The slope is measured by first differences on the grid, so a
    discretization allowance of order spacing * slope_bound is expected
    on top of the continuum bounds.
    """
    if not isinstance(belief, GridBelief):
        raise TypeError("S-membership is defined for density beliefs")
    max_density = float(belief.values.max())
    max_slope = float(np.abs(np.diff(belief.values)).max() / belief.grid.spacing)
    passed = (max_density <= bounds.sup_density + tol) and (
        max_slope <= bounds.slope_bound + tol
    )
    return SMembershipReport(
        max_density=max_density,
        max_slope=max_slope,
        sup_bound=bounds.sup_density,
        slope_bound=bounds.slope_bound,
        passed=passed,
    )
