"""Markov source models.

Two families are supported: scalar linear-Gaussian sources
x_{t+1} = a x_t + w_t with w_t ~ N(0, noise_std^2), and finite-alphabet
Markov chains given by a row-stochastic transition matrix. Both expose
the same small surface: a one-step transition law, a sampler, an
invariant distribution, and (for the Gaussian family) uniform bounds on
the transition density and its slope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

__all__ = [
    "LinearGaussianSource",
    "FiniteChain",
    "DensityBounds",
    "transition_density",
    "sample_next",
    "invariant_distribution",
    "density_bounds",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class LinearGaussianSource:
    """Scalar AR(1) source with Gaussian innovations.

    The initial state is N(init_mean, init_std^2); init_std = 0 encodes a
    point mass at init_mean. noise_std = 0 is tolerated by the sampler
    only (deterministic-dynamics tests); every density-based operation
    rejects it because the one-step law is then degenerate.
    """

    a: float
    noise_std: float
    init_mean: float = 0.0
    init_std: float = 1.0

    def __post_init__(self) -> None:
        for name in ("a", "noise_std", "init_mean", "init_std"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.noise_std < 0.0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.init_std < 0.0:
            raise ValueError(f"init_std must be >= 0, got {self.init_std}")

    def require_noise(self) -> None:
        # density-based paths need a nondegenerate one-step law
        if self.noise_std == 0.0:
            raise ValueError(
                "noise_std = 0 has no transition density; "
                "only sample_next supports the degenerate source"
            )

    @property
    def stationary_std(self) -> float:
        if abs(self.a) >= 1.0:
            raise ValueError(
                f"|a| = {abs(self.a)} >= 1: no stable invariant distribution"
            )
        return self.noise_std / math.sqrt(1.0 - self.a * self.a)


@dataclass
class FiniteChain:
    """Finite-alphabet Markov chain.

    transition is row-stochastic: transition[i, j] = P(next = j | now = i).
    initial is the time-0 distribution. state_values are the real numbers
    the states stand for under quadratic cost; they default to 0..n-1.
    """

    transition: np.ndarray
    initial: np.ndarray
    state_values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.transition = np.asarray(self.transition, dtype=float)
        self.initial = np.asarray(self.initial, dtype=float)
        P = self.transition
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"transition must be square, got shape {P.shape}")
        n = P.shape[0]
        if np.any(P < 0.0):
            raise ValueError("transition entries must be >= 0")
        row_sums = P.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > 1e-12:
            raise ValueError(
                f"transition rows must sum to 1 within 1e-12, got {row_sums}"
            )
        if self.initial.shape != (n,):
            raise ValueError(
                f"initial must have shape ({n},), got {self.initial.shape}"
            )
        if np.any(self.initial < 0.0) or abs(self.initial.sum() - 1.0) > 1e-12:
            raise ValueError("initial must be a probability vector")
        if self.state_values is None:
            self.state_values = np.arange(n, dtype=float)
        else:
            self.state_values = np.asarray(self.state_values, dtype=float)
            if self.state_values.shape != (n,):
                raise ValueError(
                    f"state_values must have shape ({n},), "
                    f"got {self.state_values.shape}"
                )

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def strictly_positive(self) -> bool:
        """True when every one-step transition has positive probability."""
        return bool(np.all(self.transition > 0.0))


@dataclass(frozen=True)
class DensityBounds:
    """Uniform bounds on a transition density family.

    sup_density bounds the density values, slope_bound its Lipschitz
    constant in the arrival coordinate; both hold uniformly over the
    conditioning state.
    """

    sup_density: float
    slope_bound: float


def transition_density(model: LinearGaussianSource, z: float, x: float) -> float:
    """One-step transition density value P(x_{t+1} = z | x_t = x)."""
    model.require_noise()
    s = model.noise_std
    u = (z - model.a * x) / s
    return math.exp(-0.5 * u * u) / (s * _SQRT_2PI)


def sample_next(model, x, rng: np.random.Generator):
    """Draw x_{t+1} given x_t = x from the model's one-step law.

    The draw consumes exactly one variate from rng, so sequences are
    reproducible given the seed stream position. For a FiniteChain, x is
    the current state index and the return value is the next index.
    """
    if isinstance(model, LinearGaussianSource):
        return model.a * x + model.noise_std * rng.standard_normal()
    if isinstance(model, FiniteChain):
        row = model.transition[int(x)]
        return int(rng.choice(model.n_states, p=row))
    raise TypeError(f"unsupported model type {type(model).__name__}")


def invariant_distribution(model, grid=None):
    """Stationary distribution of the source.

    Gaussian case: N(0, noise_std^2 / (1 - a^2)) sampled on grid
    (default: the model's default belief grid); requires |a| < 1 and
    noise_std > 0. Finite case: the unique left eigenvector of the
    transition matrix for eigenvalue 1; a chain without a unique stable
    stationary law (reducible, or with a second unit-modulus eigenvalue)
    is rejected.
    """
    if isinstance(model, LinearGaussianSource):
        model.require_noise()
        std = model.stationary_std  # raises when |a| >= 1
        from .beliefs import GridBelief, default_grid

        if grid is None:
            grid = default_grid(model)
        return GridBelief.normal(grid, 0.0, std)
    if isinstance(model, FiniteChain):
        eigvals, eigvecs = np.linalg.eig(model.transition.T)
        unit = np.abs(eigvals - 1.0) < 1e-9
        if unit.sum() != 1:
            raise ValueError("no stable invariant distribution: reducible chain")
        others = np.abs(eigvals[~unit])
        if others.size and np.max(others) >= 1.0 - 1e-12:
            raise ValueError(
                "no stable invariant distribution: second unit-modulus eigenvalue"
            )
        v = np.real(eigvecs[:, unit].ravel())
        v = np.abs(v)
        pi = v / v.sum()
        from .beliefs import SimplexBelief

        return SimplexBelief(pi, states=model.state_values)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def density_bounds(model: LinearGaussianSource) -> DensityBounds:
    """Uniform sup and slope bounds for the transition density family.

    The sup is attained at the mean. The slope bound is the maximum of
    |d/dz density| over z, found numerically to ~1e-10; by shift
    invariance the conditioning state drops out.
    """
    model.require_noise()
    s = model.noise_std
    sup_density = 1.0 / (s * _SQRT_2PI)

    def neg_slope(z: float) -> float:
        return -(abs(z) / (s * s)) * math.exp(-0.5 * (z / s) ** 2) / (s * _SQRT_2PI)

    res = minimize_scalar(
        neg_slope, bounds=(0.0, 8.0 * s), method="bounded",
        options={"xatol": 1e-12},
    )
    return DensityBounds(sup_density=sup_density, slope_bound=-res.fun)
