"""Belief states and the nonlinear filter.

A belief is the conditional law of the current source state given the
symbols sent so far. Continuous sources carry a GridBelief: a density
sampled on a fixed uniform grid and read as its piecewise-linear
interpolant, so integrals against quantizer cells can be taken exactly
even when a cell boundary falls between nodes. Finite chains carry a
SimplexBelief, where everything is exact arithmetic.

Cell masses and the moments behind stage costs come from a prefix
table (cell_moments): the exact moments of orders 0..2 of the
piecewise-linear density, accumulated node by node in coordinates
centred on the belief mean. Any cell's moments are two table lookups
plus a closed-form term for the partial segment at each cut, so all
cells of a whole candidate set cost one table build and a few array
operations.

The filter step is the usual two-stage update: restrict the belief to
the decoded cell, renormalize, then push through the one-step transition
law. Restriction uses per-node window weights, which integrate the same
piecewise-linear density exactly, so the law of total probability
(summing the branch posteriors against the branch masses reproduces the
one-step prediction) holds to rounding.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .sources import FiniteChain, LinearGaussianSource

__all__ = [
    "Grid",
    "GridBelief",
    "SimplexBelief",
    "SMembershipReport",
    "ZeroMassSymbolError",
    "default_grid",
    "window_weights",
    "cell_moments",
    "filter_update",
    "predict",
    "tv_distance",
    "moment",
    "check_S_membership",
]

logger = logging.getLogger(__name__)

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
    model: LinearGaussianSource,
    n_points: int = DEFAULT_GRID_POINTS,
    span_stds: float = DEFAULT_SPAN_STDS,
) -> Grid:
    """Grid covering +/- span_stds stationary standard deviations."""
    half = span_stds * model.stationary_std
    return Grid(-half, half, n_points)


def window_weights(grid: Grid, lo: float, hi: float, degree: int = 0) -> np.ndarray:
    """Exact integration weights of x^degree over [lo, hi] for PL densities.

    Returns w such that w . values = integral over [lo, hi] of
    x^degree * f(x) dx, where f is the piecewise-linear interpolant of
    values on the grid. Segments cut by the window are integrated over
    the covered part only, so cell boundaries need not sit on nodes.
    Summed over the cells of a partition these weights reproduce the
    trapezoid weights exactly. degree in {0, 1, 2}.
    """
    if degree not in (0, 1, 2):
        raise ValueError(f"degree must be 0, 1, or 2, got {degree}")
    x = grid.nodes
    d = grid.spacing
    a = max(lo, grid.lo)
    b = min(hi, grid.hi)
    out = np.zeros(grid.n_points)
    if b <= a:
        return out
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
    out[:-1] += d * w_lo
    out[1:] += d * w_hi
    return out


_POWERS = np.arange(1, 5)


def cell_moments(belief: "GridBelief", edges):
    """Exact moments of orders 0..2 of the PL density over many cells.

    edges is an (..., L + 1) array of nondecreasing cut points; cell i
    is (edges[..., i], edges[..., i + 1]]. Cut points are clipped to the
    grid, so -inf and +inf close the outer cells and repeated cut points
    give empty cells.

    On the segment starting at node j, the moments over the local
    coordinate range [0, u] are polynomials in u of degree <= 4 whose
    coefficients depend on the two node values. One prefix table holds
    the whole-segment moments summed up to every node, so the moments
    up to any cut are a table lookup plus that polynomial at the cut,
    and a cell's moments are the difference at its two cuts.

    Returns (moments, center): moments has shape (3, ..., L) and takes
    the first and second moments about center, the belief mean, which
    keeps m2 - m1^2 / m0 free of cancellation for beliefs far from 0.
    """
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
    powers = u ** _POWERS.reshape((4,) + (1,) * u.ndim)
    cum = table[:, j] + (poly[:, :, j] * powers).sum(axis=1)
    return np.diff(cum, axis=-1), center


@dataclass
class GridBelief:
    """Density belief on a fixed grid, normalized to trapezoid integral 1."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},), "
                f"got {self.values.shape}"
            )
        if np.any(self.values < 0.0):
            raise ValueError("density values must be >= 0")
        z = float(self.grid.trapezoid_weights @ self.values)
        if abs(z - 1.0) > 1e-9:
            raise ValueError(f"density must integrate to 1 within 1e-9, got {z}")

    @classmethod
    def from_unnormalized(cls, grid: Grid, values: np.ndarray) -> "GridBelief":
        values = np.asarray(values, dtype=float)
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
        """Byte-exact identity of the belief, for memoization."""
        return self.values.tobytes()

    @property
    def mean(self) -> float:
        return float(moment(self, 1))

    @property
    def std(self) -> float:
        mean = self.mean
        var = float(moment(self, 2)) - mean**2
        return math.sqrt(max(var, 0.0))

    def sample(self, rng: np.random.Generator) -> float:
        """Inverse-CDF draw from the piecewise-linear density."""
        x = self.grid.nodes
        d = self.grid.spacing
        v = self.values
        seg = 0.5 * d * (v[:-1] + v[1:])
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        target = rng.uniform(0.0, cum[-1])
        p = int(np.searchsorted(cum, target, side="right") - 1)
        p = min(max(p, 0), len(seg) - 1)
        t = target - cum[p]
        v0, v1 = v[p], v[p + 1]
        slope = (v1 - v0) * d
        # solve d*(v0*u + (v1-v0)*u^2/2) = t for u in [0, 1]
        if abs(slope) < 1e-300:
            u = t / (d * v0) if v0 > 0 else 0.0
        else:
            disc = (d * v0) ** 2 + 2.0 * slope * t
            u = (-d * v0 + math.sqrt(max(disc, 0.0))) / slope
        return float(x[p] + min(max(u, 0.0), 1.0) * d)

    def to_csv(self, path) -> None:
        data = np.column_stack([self.grid.nodes, self.values])
        np.savetxt(path, data, delimiter=",", header="grid_x,density", comments="")


@dataclass
class SimplexBelief:
    """Probability vector over a finite alphabet with real state values."""

    probabilities: np.ndarray
    states: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.probabilities.ndim != 1:
            raise ValueError("probabilities must be a vector")
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
        m2 = float(self.probabilities @ (self.states**2))
        var = m2 - self.mean**2
        return math.sqrt(max(var, 0.0))

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.n_states, p=self.probabilities))

    def to_csv(self, path) -> None:
        data = np.column_stack([self.states, self.probabilities])
        np.savetxt(path, data, delimiter=",", header="state,probability", comments="")


@dataclass(frozen=True)
class SMembershipReport:
    """Measured density bounds against the admissible class."""

    max_density: float
    max_slope: float
    sup_bound: float
    slope_bound: float
    passed: bool


@functools.lru_cache(maxsize=8)
def _transition_kernel(model: LinearGaussianSource, grid: Grid) -> np.ndarray:
    """Dense kernel K[j, i] = transition density at node j given node i."""
    model.require_noise()
    s = model.noise_std
    x = grid.nodes
    u = (x[:, None] - model.a * x[None, :]) / s
    K = np.exp(-0.5 * u * u) / (s * math.sqrt(2.0 * math.pi))
    K.flags.writeable = False
    return K


def _restriction(belief: GridBelief, quantizer, symbol: int) -> np.ndarray:
    lo, hi = quantizer.cell_interval(symbol)
    return window_weights(belief.grid, lo, hi, 0) * belief.values


def filter_update(belief, model, quantizer, symbol: int, eps_mass: float = EPS_MASS):
    """One filter step: condition on the decoded cell, then predict.

    Returns the next-step belief. Raises ZeroMassSymbolError when the
    cell mass does not exceed eps_mass; the caller must not condition on
    a zero-probability symbol.
    """
    if isinstance(belief, GridBelief):
        if not isinstance(model, LinearGaussianSource):
            raise TypeError("GridBelief filtering needs a LinearGaussianSource")
        r = _restriction(belief, quantizer, symbol)
        mass = float(r.sum())
        if mass <= eps_mass:
            raise ZeroMassSymbolError(
                f"zero-probability symbol {symbol}: cell mass {mass} <= {eps_mass}"
            )
        K = _transition_kernel(model, belief.grid)
        nz = np.flatnonzero(r)
        i0, i1 = nz[0], nz[-1] + 1  # interval cells give contiguous support
        raw = (K[:, i0:i1] @ r[i0:i1]) / mass
        z = float(belief.grid.trapezoid_weights @ raw)
        if z <= 0.0:
            raise ZeroMassSymbolError(
                f"zero-probability symbol {symbol}: predicted mass {z}"
            )
        logger.debug("filter renormalization drift %.3e", z - 1.0)
        return GridBelief(belief.grid, raw / z)
    if isinstance(belief, SimplexBelief):
        if not isinstance(model, FiniteChain):
            raise TypeError("SimplexBelief filtering needs a FiniteChain")
        mask = quantizer.member_mask(symbol)
        if mask.shape != belief.probabilities.shape:
            raise ValueError("partition and belief alphabet sizes differ")
        r = belief.probabilities * mask
        mass = float(r.sum())
        if mass <= eps_mass:
            raise ZeroMassSymbolError(
                f"zero-probability symbol {symbol}: cell mass {mass} <= {eps_mass}"
            )
        post = (r @ model.transition) / mass
        z = float(post.sum())
        logger.debug("filter renormalization drift %.3e", z - 1.0)
        return SimplexBelief(post / z, states=belief.states)
    raise TypeError(f"unsupported belief type {type(belief).__name__}")


def predict(belief, model):
    """Push the belief one step through the transition law (no conditioning)."""
    if isinstance(belief, GridBelief):
        if not isinstance(model, LinearGaussianSource):
            raise TypeError("GridBelief prediction needs a LinearGaussianSource")
        K = _transition_kernel(model, belief.grid)
        raw = K @ (belief.grid.trapezoid_weights * belief.values)
        return GridBelief.from_unnormalized(belief.grid, raw)
    if isinstance(belief, SimplexBelief):
        if not isinstance(model, FiniteChain):
            raise TypeError("SimplexBelief prediction needs a FiniteChain")
        post = belief.probabilities @ model.transition
        return SimplexBelief(post / post.sum(), states=belief.states)
    raise TypeError(f"unsupported belief type {type(belief).__name__}")


def tv_distance(b1, b2) -> float:
    """Total variation distance (mass-difference convention, range [0, 2])."""
    if isinstance(b1, GridBelief) and isinstance(b2, GridBelief):
        if b1.grid != b2.grid:
            raise ValueError("beliefs live on different grids")
        return float(b1.grid.trapezoid_weights @ np.abs(b1.values - b2.values))
    if isinstance(b1, SimplexBelief) and isinstance(b2, SimplexBelief):
        if b1.n_states != b2.n_states:
            raise ValueError("beliefs have different alphabet sizes")
        return float(np.abs(b1.probabilities - b2.probabilities).sum())
    raise TypeError(
        f"mismatched belief types {type(b1).__name__}, {type(b2).__name__}"
    )


def moment(belief, k: int) -> float:
    """k-th raw moment of the belief.

    Grid beliefs integrate the piecewise-linear density exactly for
    k <= 2, consistent with cell masses and stage costs (so the variance
    bound on stage costs holds identically); higher orders fall back to
    plain trapezoid on x^k * density.
    """
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    if isinstance(belief, GridBelief):
        if k <= 2:
            return float(belief.grid.moment_weights[k] @ belief.values)
        x = belief.grid.nodes
        return float(belief.grid.trapezoid_weights @ (x**k * belief.values))
    if isinstance(belief, SimplexBelief):
        return float(belief.probabilities @ (belief.states**k))
    raise TypeError(f"unsupported belief type {type(belief).__name__}")


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
