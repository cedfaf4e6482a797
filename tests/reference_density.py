"""The density class of the existence proof, and a uniform density belief.

A5 checks that filtered densities stay in the bounded-density class:
densities bounded by the transition density's sup and with slopes
bounded by its slope bound (density_bounds), which check_S_membership
measures on a grid belief. No task runs them. uniform_belief is the
uniform density on [lo, hi] as a grid belief.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from zdq.beliefs import Grid, GridBelief
from zdq.sources import LinearGaussianSource

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def uniform_belief(grid: Grid, lo: float, hi: float) -> GridBelief:
    if not (grid.lo <= lo < hi <= grid.hi):
        raise ValueError("uniform support must lie inside the grid")
    values = np.where((grid.nodes >= lo) & (grid.nodes <= hi), 1.0, 0.0)
    return GridBelief.from_unnormalized(grid, values)


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


def density_bounds(model: LinearGaussianSource) -> DensityBounds:
    """Uniform sup and slope bounds for the transition density family.

    By shift invariance the conditioning state drops out, so both are
    bounds of the N(0, s^2) density f(z) = exp(-z^2 / (2 s^2)) / (s
    sqrt(2 pi)), s = noise_std. The sup is f(0) = 1 / (s sqrt(2 pi)).
    The slope is f'(z) = -(z / s^2) f(z), and
      d/dz |f'(z)| = (1 - z^2 / s^2) f(z) / s^2   (z > 0)
    vanishes only at z = s, one std from the mean, so the largest |f'|
    is |f'(s)| = exp(-1/2) / (s^2 sqrt(2 pi)) = 1 / (s^2 sqrt(2 pi e)).
    """
    model.require_noise()
    s = model.noise_std
    return DensityBounds(
        sup_density=1.0 / (s * _SQRT_2PI),
        slope_bound=1.0 / (s * s * math.sqrt(2.0 * math.pi * math.e)),
    )


@dataclass(frozen=True)
class SMembershipReport:
    """Measured density bounds against the admissible class."""

    max_density: float
    max_slope: float
    sup_bound: float
    slope_bound: float
    passed: bool


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
