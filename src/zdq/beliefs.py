"""Belief states, their cell moments and restrictions, and the shared
filter entry point.

A belief is the conditional law of the current source state given the
symbols sent so far. Continuous sources carry a GridBelief: a density
sampled on a fixed uniform grid and read as its piecewise-linear
interpolant, so integrals against quantizer cells can be taken exactly
even when a cell boundary falls between nodes. Finite chains carry a
SimplexBelief, where everything is exact arithmetic. Each belief class
answers for itself what the rest of the package reads off a belief:
key(), mean and std, cell_moments, its restriction to a cell
(restrict), draws by inverse_cdf, its
description in policy_tree.json (to_json) and its row in a rollout's
trajectory log (log_row). A grid belief is one immutable buffer: its
key() bytes, of which values is a read-only view, so a belief the
dynamic program stores costs one copy of its values; its mean is taken
when it is built, and its std once, on first use.

Every cell mass and every moment behind a stage cost comes from one
method per belief family, cell_moments(candidates), which returns the
moments of orders 0..2 of every cell of a whole candidate set (a
quantizers.CandidateSet) as (K, L) arrays; costs.cell_decisions turns
them into stage costs, cell masses and reconstructions. Every cell
moment is linear in the belief, so a grid belief takes them all from
one product: node-local weights up to every distinct cut of the set
(CutWeights.local, node_moment_weights) times its values and their
products with powers of (x - mean) give the cumulative moments about
its mean at every cut (CutWeights.points), and CutWeights.cells reads
every cell off them. A simplex belief multiplies its probabilities by
each partition's cached 0/1 membership matrix.

The filter step is the usual two-stage update: restrict the belief to
the decoded cell, renormalize, then push through the one-step transition
law. filter_update is the one entry point for every family: it checks
that the belief is of the source's family, takes the belief's
restriction to the cell (restrict), checks that it carries mass, and
leaves the push to the source class (sources.py), which holds the
transition law. A restriction is (start, part), the entries from start
on that can be nonzero: on a grid, the cell's weight support within the
belief's support; on a simplex, every state.

Every grid integral is a weight vector times the values, from one
closed form, node_moment_weights: the exact integrals of (x - x_j)^m,
m = 0, 1, 2, against each node's hat over a window. Order 0 is a cell's
mass weights (restrict), so the branch posteriors summed against the
branch masses give the one-step prediction to rounding; the weights of
x and x^2 (Grid.moment_weights, CutWeights.matrix) follow by the
binomial expansion about each node (_raw_moment_weights). The cuts of a
candidate set and the weights up to them (_cut_weights, which finds a
set by the hash it took when built) and a cell's mass weights
(_cell_weights) are built once per grid, kept read-only in bounded LRU
caches. Outside its support a grid belief is exactly 0, so what reads
only the support is exact, not an approximation: mean, std,
cell_moments and restrict sum over it. This module imports nothing
from sources.py; a source names its belief class.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .quantizers import CandidateSet, symmetric_points

__all__ = [
    "Grid",
    "GridBelief",
    "SimplexBelief",
    "ZeroMassSymbolError",
    "default_grid",
    "filter_update",
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
        # the fields' hash, taken once: grids key the per-grid caches
        object.__setattr__(self, "_hash", hash((self.lo, self.hi, self.n_points)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def symmetric(self) -> bool:
        """Whether the grid is [-c, c], whose nodes are exact negations of
        each other: nodes[n - 1 - i] == -nodes[i]."""
        return self.lo == -self.hi

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        x = symmetric_points(self.lo, self.hi, self.n_points)
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
    def moment_weights(self) -> np.ndarray:
        """Whole-line weights of 1, x and x^2, (3, n_points), read-only."""
        return _raw_moment_weights(self, node_moment_weights(self, -math.inf, math.inf))


def default_grid(
    model,
    n_points: int = DEFAULT_GRID_POINTS,
    span_stds: float = DEFAULT_SPAN_STDS,
) -> Grid:
    """Grid covering +/- span_stds stationary standard deviations of a
    linear-Gaussian source."""
    half = span_stds * model.stationary_std
    return Grid(-half, half, n_points)


def node_moment_weights(grid: Grid, lo, hi, orders: int = 3) -> np.ndarray:
    """Exact integration weights of (x - x_j)^m against node j's hat,
    the one closed form of the grid's integrals.

    Returns w of shape (orders,) + the shape of lo and hi + (n_points,)
    with w[m] . values = sum over nodes j of values_j times the integral
    over [lo, hi] of (x - x_j)^m phi_j(x) dx, m = 0 .. orders - 1 (at
    most 2), where phi_j is the hat of node j, so that f = sum_j
    values_j phi_j is the piecewise-linear density; a window may cut a
    segment anywhere. The orders a caller leaves out are not computed,
    and those it takes have the same bits as in a call of all three.
    Expanding (x - c)^k about each node gives the moment of order k of f
    about any center c over [lo, hi] as
      sum over m of binom(k, m) w[m] . ((x - c)^(k - m) values),
    x the nodes: every term is nonnegative or of order spacing^m, so a
    density far from 0 loses no digits to cancellation between terms,
    as raw moments about 0 do. Each window of arrays lo and hi gets the
    row its scalar call gives, bit for bit; an empty window's row is 0.
    """
    d = grid.spacing
    xl = grid.nodes[:-1]
    a = np.maximum(lo, grid.lo)[..., None]
    b = np.minimum(hi, grid.hi)[..., None]
    u0 = np.clip((a - xl) / d, 0.0, 1.0)
    u1 = np.clip((b - xl) / d, 0.0, 1.0)
    s1 = u1 - u0
    s2 = 0.5 * (u1 * u1 - u0 * u0)
    # on a segment x = x_s + d u, so x - x_s = d u and x - x_{s+1} = d (u - 1)
    pieces = [(s1 - s2, s2)]
    if orders > 1:
        s3 = (u1**3 - u0**3) / 3.0
        pieces.append((d * (s2 - s3), d * (s3 - s2)))
    if orders > 2:
        s4 = 0.25 * (u1**4 - u0**4)
        pieces.append((d * d * (s3 - s4), d * d * (s4 - 2.0 * s3 + s2)))
    out = np.zeros((orders,) + np.broadcast(a, b).shape[:-1] + (grid.n_points,))
    for w, (w_lo, w_hi) in zip(out, pieces):
        w[..., :-1] += d * w_lo
        w[..., 1:] += d * w_hi
        w[(b <= a)[..., 0]] = 0.0
    return out


def _raw_moment_weights(grid: Grid, g) -> np.ndarray:
    """Weights of 1, x and x^2, read-only, from node_moment_weights g of the
    same windows: x^k = sum over m of binom(k, m) x_j^(k - m) (x - x_j)^m."""
    x = grid.nodes
    g0, g1, g2 = g
    out = np.stack([g0, x * g0 + g1, x * (x * g0) + 2.0 * (x * g1) + g2])
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class GridBelief:
    """Density belief on a fixed grid, normalized to trapezoid integral 1.

    The belief holds one buffer: the bytes of its values, which key()
    returns, and values is a read-only view of them. It copies the array
    it is built from, so the caller may go on to change that array; a
    mirror image (mirror) views its twin's buffer until its key() is
    first read. == is identity; two beliefs compare by value through
    key().

    support = (lo, hi) is the node range outside which the values are 0:
    the extent of the nonzero values. The filter's push (sources.py)
    trims its product's tails below TAIL = 2^-60 of its largest entry to
    0 and hands the belief the range between; every other constructor
    finds it from the values. mean, std, cell_moments and restrict read
    the values on it only.

    On a grid [-c, c] a belief has a mirror image under x -> -x, its
    values reversed (mirror). orientation is 1 when the mirror image is
    the canonical one, the smaller by (first support node, bytes), 0
    when the belief is its own mirror image and -1 otherwise (always -1
    on other grids). mean and std are taken in the canonical
    orientation, so a mirror image's mean is the negated mean bit for
    bit; filter_update and costs.cell_decisions read the canonical
    orientation too, through a reversed view of the values when it is
    the mirror image's (_canonical), and a dot product reads a
    contiguous copy of such a view (_contiguous).
    """

    grid: Grid
    values: np.ndarray
    support: tuple = field(init=False, repr=False)
    mean: float = field(init=False, repr=False)

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
        nz = np.flatnonzero(values)
        self._hold(values, (int(nz[0]), int(nz[-1]) + 1))

    def _hold(self, values: np.ndarray, support: tuple, mirror: bool = False) -> None:
        # hold the contiguous values, 0 off the node range support, or
        # with mirror their mirror image, as one buffer, the key
        grid = self.grid
        lo, hi = support
        n = grid.n_points
        own = values
        if mirror:
            own, lo, hi = values[::-1], n - hi, n - lo
        key = own.tobytes()
        own = np.frombuffer(key)
        orientation = -1
        if grid.symmetric:
            orientation = _order(lo, n - hi) or _order(key, own[::-1].tobytes())
        # the exact first moment of the piecewise-linear density,
        # consistent with cell masses and stage costs, taken in the
        # canonical orientation, so that a mirror image's is its negation;
        # with mirror, values are that image
        if orientation > 0:
            c_lo, c_hi = n - hi, n - lo
            x = values[c_lo:c_hi] if mirror else own[::-1][c_lo:c_hi]
            mean = -float(grid.moment_weights[1][c_lo:c_hi] @ _contiguous(x))
        else:
            mean = float(grid.moment_weights[1][lo:hi] @ own[lo:hi])
        self.__dict__.update(
            _key=key, values=own, support=(lo, hi), orientation=orientation, mean=mean
        )

    def mirror(self) -> "GridBelief":
        """The mirror image of the belief under x -> -x on its symmetric
        grid: the values reversed, the mean negated; the belief itself
        when it is its own mirror image.

        It builds no array: its values are a reversed view of the
        belief's buffer, and its key() bytes are taken on first use,
        when its values move to that buffer of their own."""
        if not self.grid.symmetric:
            raise ValueError("only a belief on a grid [-c, c] has a mirror image")
        if self.orientation == 0:
            return self
        n = self.grid.n_points
        lo, hi = self.support
        belief = object.__new__(GridBelief)
        belief.__dict__.update(
            grid=self.grid, values=self.values[::-1], support=(n - hi, n - lo),
            orientation=-self.orientation, mean=-self.mean,
        )
        if "std" in self.__dict__:
            belief.__dict__["std"] = self.std
        return belief

    @functools.cached_property
    def _key(self) -> bytes:
        # a mirror image's key: its values' bytes, which it then views
        key = self.values.tobytes()
        self.__dict__["values"] = np.frombuffer(key)
        return key

    @classmethod
    def _normalized(cls, grid: Grid, values: np.ndarray, support: tuple, mirror: bool = False) -> "GridBelief":
        """A belief of float values that pass __post_init__'s checks by
        construction, 0 outside the node range support = (lo, hi), or
        with mirror their mirror image, built without running the checks
        again."""
        belief = object.__new__(cls)
        object.__setattr__(belief, "grid", grid)
        belief._hold(values, support, mirror)
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
    def std(self) -> float:
        # in the canonical orientation, as the mean
        values, (lo, hi), mean = self._canonical()
        second = float(self.grid.moment_weights[2][lo:hi] @ _contiguous(values[lo:hi]))
        var = second - mean * mean
        return math.sqrt(max(var, 0.0))

    def _canonical(self):
        """(values, support, mean) in the canonical orientation: the
        belief's own, or when its orientation is 1 its mirror image's, a
        reversed view of its values."""
        if self.orientation > 0:
            n = self.grid.n_points
            lo, hi = self.support
            return self.values[::-1], (n - hi, n - lo), -self.mean
        return self.values, self.support, self.mean

    def expect(self, f: np.ndarray) -> float:
        """The trapezoid rule of the belief times f, a function given by
        its values at the nodes: the sum over the support of w_j values_j
        f_j, w the trapezoid weights, which the cells' mass weights of
        restrict add up to."""
        lo, hi = self.support
        return float((self.grid.trapezoid_weights[lo:hi] * self.values[lo:hi]) @ f[lo:hi])

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
        """Moments of orders 0..2 of the PL density over every cell, about
        the belief mean, from one product.

        candidates is a sequence of interval quantizers, possibly with
        mixed level counts, taken as a CandidateSet. Quantizer k cuts at
        (-inf, its thresholds, +inf), padded with +inf up to the largest
        level count L, so padded cells are empty. With y = x - center at
        the nodes (center = mean), the product of the set's
        CutWeights.local (node_moment_weights G_m up to every distinct cut
        point, clipped to the grid) with the columns v, y v and y^2 v of
        the values v gives the cumulative moments about the center at
        every point,
          C_0 = G_0 v,  C_1 = G_0 (y v) + G_1 v,
          C_2 = G_0 (y^2 v) + 2 G_1 (y v) + G_2 v,
        and a cell's moments are the difference at its two cuts. The
        values are 0 off the support, so the product runs over the
        support's nodes only, and each entry is a sum of at most n terms
        (n nodes) whose magnitudes add up to at most 1, s and s^2 for
        orders 0, 1, 2 (order 1 by Cauchy-Schwarz), s the belief's std
        plus the grid spacing. tests/test_moments.py checks every cell
        moment of order k within 16 u s^k (u = 2^-53) of the same sums
        taken in extended precision.

        Returns ((m0, m1, m2), center) with (K, L) moment arrays; moments
        about the mean keep m2 - m1^2 / m0 free of cancellation for
        beliefs far from 0.
        """
        moments = self._moments(self.values, self.support, self.mean, CandidateSet.of(candidates))
        return moments, self.mean

    def _canonical_moments(self, candidates):
        """cell_moments of a CandidateSet in the canonical orientation: the
        belief's own, or its mirror image's (self.mirror()) bit for bit,
        read off the canonical values without building it."""
        values, support, mean = self._canonical()
        return self._moments(values, support, mean, candidates), mean

    def _moments(self, values, support, center, candidates) -> np.ndarray:
        # the (3, K, L) moments of cell_moments, about center, of the
        # density values, 0 off the node range support, for a CandidateSet
        grid = self.grid
        weights = _cut_weights(grid, candidates)
        lo, hi = support
        columns = np.empty((3, hi - lo))
        columns[0] = values[lo:hi]
        y = np.subtract(grid.nodes[lo:hi], center, out=columns[2])
        np.multiply(y, columns[0], out=columns[1])
        columns[2] *= columns[1]  # y (y v), in place of y
        local = weights.local[:, lo:hi]
        if 3 * (hi - lo) * len(local) <= _SMALL_PRODUCT:  # _product_columns' one product
            g = columns @ local.T
        else:
            width = _product_columns(3, hi - lo, len(local))
            g = np.hstack([columns @ local[j : j + width].T for j in range(0, len(local), width)])
        # C_0, C_1 and C_2 at every point, in place in the first P
        # entries of g's rows, then every cell's difference at its cuts
        p = len(weights.points)
        g[1, :p] += g[0, p : 2 * p]
        rest = g[1, p : 2 * p]
        rest *= 2.0
        rest += g[0, 2 * p :]
        g[2, :p] += rest
        lower, upper = g.take(weights.product_ends)
        return upper - lower

    def restrict(self, quantizer, symbol: int):
        """The density over cell symbol as (start, part): the per-node
        mass weights node_moment_weights(grid, lo, hi)[0] * values, bit
        for bit, are part at nodes start .. start + len(part) - 1 and 0
        elsewhere.

        The cell's mass weights are kept per (grid, cell) over their
        support only (_cell_weights). The values are 0 outside the
        belief's support, so part is the product of both over the
        intersection of the two node ranges (empty when it is empty).
        """
        return self._restricted(self.values, self.support, quantizer, symbol)

    def _canonical_restrict(self, quantizer, symbol: int):
        """restrict in the canonical orientation: the belief's own, or its
        mirror image's (self.mirror()) bit for bit, read off the canonical
        values without building it."""
        values, support, _ = self._canonical()
        return self._restricted(values, support, quantizer, symbol)

    def _restricted(self, values, support, quantizer, symbol: int):
        # restrict's (start, part) of the density values, 0 off support
        lo, hi = quantizer.cell_interval(symbol)
        start, w = _cell_weights(self.grid, lo, hi)
        first = max(start, support[0])
        stop = max(first, min(start + len(w), support[1]))
        return first, w[first - start : stop - start] * values[first:stop]

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

    # a chain's states have no mirror image (GridBelief.orientation)
    orientation = -1

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

    def expect(self, f: np.ndarray) -> float:
        """The expectation of f, given by its value at every state."""
        return float(self.probabilities @ f)

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

    def restrict(self, quantizer, symbol: int):
        """The probabilities inside cell symbol, 0 elsewhere, as (start,
        part) = (0, every state's entry)."""
        return 0, self.restrict_cells(quantizer.member_mask(symbol))

    def restrict_cells(self, membership: np.ndarray) -> np.ndarray:
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
            r = self.restrict_cells(q.membership[None])
            out[:, k : k + 1, : q.levels] = r.sum(axis=-1), r @ s, r @ s2
        return out, 0.0

    def inverse_cdf(self, v) -> np.ndarray:
        """The state drawn at every uniform variate v in [0, 1).

        This is the draw of Generator.choice(n_states, p=probabilities)
        when v is its one uniform variate: the count of normalized
        cumulative sums that are <= v.
        """
        cdf = self.probabilities.cumsum()
        cdf /= cdf[-1]
        return (cdf <= np.asarray(v)[:, None]).sum(axis=1)


_CUT_SETS = 64  # candidate sets whose CutWeights are kept
_CELL_WEIGHTS = 256  # cells whose mass weights are kept
# OpenBLAS 0.3.31 on a 2-core Xeon multiplied an (m, k) by a (k, n)
# matrix in its small-matrix kernel, on one thread, while m k n <= 10^6,
# and a larger product in its blocked GEMM, threaded, whose bytes depend
# on the thread count. A BLAS build without that kernel may thread
# smaller products; the CI step "Artifacts do not depend on the BLAS
# thread count" is what checks a runner's build
_SMALL_PRODUCT = 10**6


def _product_columns(m: int, k: int, cap: int) -> int:
    """Columns n, at most cap, of each product of an (m, k) matrix that
    keeps m k n within _SMALL_PRODUCT (at least 1)."""
    return max(1, min(cap, _SMALL_PRODUCT // (m * k)))


class CutWeights:
    """Where the cuts of a candidate set fall on a grid, and the weights
    up to every distinct cut.

    The points are -inf, the distinct thresholds in increasing order and
    +inf (P of them). slots[k, i] (K, L + 1) is the point of quantizer
    k's cut i: -inf, its thresholds, then +inf up to the largest level
    count L. ends (2, 3, K, L) indexes a flat array of cumulative
    moments, order by order and point by point, at the lower and the
    upper cut of every cell, which cells reads; product_ends indexes the
    same moments in the (3, 3 P) product of GridBelief._moments, whose
    row of order m holds them in its first P entries. Built on first use:
      local     node_moment_weights of orders 0, 1, 2 (cell_moments);
      matrix    the weights of 1, x and x^2 derived from local
                (_raw_moment_weights; the sources' kernel products);
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
        orders = len(self.points) * np.arange(3)[:, None, None]
        flat = orders + slots
        self.slots, self.ends = slots, np.stack([flat[..., :-1], flat[..., 1:]])
        self.product_ends = self.ends + 2 * orders
        for a in (self.points, self.slots, self.ends, self.product_ends):
            a.flags.writeable = False

    def cells(self, cumulative) -> np.ndarray:
        """Moments of every cell, (3, K, L) + trailing axes, from
        cumulative moments at every point, (3 P,) + trailing axes: the
        difference at each cell's two cuts."""
        lower, upper = cumulative.take(self.ends, axis=0)
        return upper - lower

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        n = self.grid.n_points
        return _raw_moment_weights(self.grid, self.local.reshape(3, -1, n)).reshape(-1, n)

    @functools.cached_property
    def local(self) -> np.ndarray:
        out = node_moment_weights(self.grid, -math.inf, self.points).reshape(-1, self.grid.n_points)
        out.flags.writeable = False
        return out


@functools.lru_cache(maxsize=_CUT_SETS)
def _cut_weights(grid: Grid, candidates) -> CutWeights:
    """The CandidateSet's CutWeights on grid, for GridBelief.cell_moments
    and the kernel products of the sources."""
    return CutWeights(grid, candidates)


@functools.lru_cache(maxsize=_CELL_WEIGHTS)
def _cell_weights(grid: Grid, lo: float, hi: float):
    """The mass weights node_moment_weights(grid, lo, hi)[0] over their
    support, for GridBelief.restrict.

    Returns (start, w): w holds the entries start .. start + len(w) - 1,
    read-only, and every other entry is 0 (w is empty for an empty cell).
    """
    w = node_moment_weights(grid, lo, hi, 1)[0]
    nz = np.flatnonzero(w)
    start, stop = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
    w = w[start:stop].copy()  # a copy, so the full array is freed
    w.flags.writeable = False
    return start, w


def _contiguous(x: np.ndarray) -> np.ndarray:
    """x, or a contiguous copy of a reversed view: numpy's dot product
    of a reversed view does not call BLAS, and rounds otherwise."""
    return x if x.strides[0] > 0 else x.copy()


def _order(a, b) -> int:
    """1 if a > b, -1 if a < b, 0 if they are equal."""
    return (a > b) - (a < b)


def _check_pair(belief, model) -> None:
    """Raise TypeError unless belief is of the family model's beliefs are."""
    if not isinstance(belief, model.belief_type):
        raise TypeError(
            f"a {type(model).__name__} has {model.belief_type.__name__} beliefs, "
            f"got a {type(belief).__name__}"
        )


def filter_update(belief, model, quantizer, symbol: int):
    """One filter step: condition on the decoded cell, then predict.

    belief.restrict gives the belief restricted to the cell, as the
    entries (start, part) that can be nonzero, and model.push the
    renormalized one-step prediction of it through the source's
    transition law. Returns the next-step belief.
    On a grid [-c, c] the step reads the canonical orientation: the
    belief and the cell, or their mirror images (the belief reversed,
    the cell (-hi, -lo)) when the belief's orientation is 1, or when it
    is its own mirror image and the mirror cell comes first; the
    prediction of the mirror images is then mirrored back. The
    transition law of every source of grid beliefs commutes with x -> -x
    (LinearGaussianSource.mirror_symmetric), so this is the same step,
    and a belief's mirror image, filtered through the mirror cell, gives
    the mirror image of its posterior bit for bit.
    Raises TypeError when belief is not of model's family, and
    ZeroMassSymbolError when the cell mass does not exceed EPS_MASS; the
    caller must not condition on a zero-probability symbol.
    """
    _check_pair(belief, model)
    # the canonical orientation of the belief and the cell
    flip = belief.orientation > 0 or (
        belief.orientation == 0 and _mirror_cell_first(quantizer, symbol)
    )
    if flip:
        start, part = belief._canonical_restrict(quantizer.mirror, quantizer.levels + 1 - symbol)
    else:
        start, part = belief.restrict(quantizer, symbol)
    mass = float(np.add.reduce(part))  # part.sum(), in fewer calls
    if mass <= EPS_MASS:
        raise ZeroMassSymbolError(
            f"zero-probability symbol {symbol}: cell mass {mass} <= {EPS_MASS}"
        )
    # the push reads only the belief's grid, which its mirror image
    # shares; after a canonical step it builds the mirror image of the
    # prediction, with no second belief
    if flip:
        return model.push(belief, start, part, mass, mirror=True)
    return model.push(belief, start, part, mass)


def _mirror_cell_first(quantizer, symbol: int) -> bool:
    """Whether the mirror image (-hi, -lo) of cell symbol, (lo, hi),
    comes before the cell itself."""
    lo, hi = quantizer.cell_interval(symbol)
    return (-hi, -lo) < (lo, hi)
