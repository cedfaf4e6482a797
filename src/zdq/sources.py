"""Markov source models, one class per family.

Two families are supported: scalar linear-Gaussian sources
x_{t+1} = a x_t + w_t with w_t ~ N(0, noise_std^2), whose beliefs are
GridBeliefs, and finite-alphabet Markov chains given by a
row-stochastic transition matrix, whose beliefs are SimplexBeliefs.
Each class names its belief class (belief_type) and owns every operation
that depends on the family, with the same names on both:

- draws: sample_next (one step), step_variates (a path's variates, or
  every rollout path's, in bulk) and state_paths (every path's states
  from those variates);
- beliefs: invariant_distribution and initial_belief, on a grid given
  as an argument for the Gaussian family (default: its default grid);
- the filter's family half: restrict (the belief restricted to a cell,
  as (start, part), the entries from start on that can be nonzero: a
  grid cell's weight support, or every state of a chain) and push (the
  renormalized one-step prediction of a restriction, through the kernel
  columns or transition rows start .. start + len(part) - 1), which
  beliefs.filter_update runs around its shared checks;
- stage_floor, the least stage cost at the prediction columns that
  bounds the dynamic program's later stages, and last_stage_costs, the
  least stage cost of every child of a belief from one product, with
  which the dynamic program ranks candidates one stage before the last
  (None on a chain);
- real_values, the real numbers realized costs are taken at, and
  scan_width, the entries state_paths holds per path and step.

The Gaussian family also has uniform bounds on the transition density
and its slope (density_bounds). _PathStreams holds one seed stream of
every rollout path, numpy's SeedSequence children: their PCG64 states
are uint64 arrays over paths, seeded and drawn from with array
arithmetic, bit for bit numpy's. A chain's uniforms come from those
arrays in one pass over all paths; the Gaussian family's normals go
path by path through one reused Generator.
"""
from __future__ import annotations

import functools
import logging
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .beliefs import (
    EPS_MASS,
    GridBelief,
    SimplexBelief,
    ZeroMassSymbolError,
    _cell_weights,
    _cut_weights,
    _kernel_cut_moments,
    _transition_kernel,
    default_grid,
)
from .costs import _stage_costs_from, cell_decisions
from .quantizers import CandidateSet

__all__ = [
    "LinearGaussianSource",
    "FiniteChain",
    "DensityBounds",
    "transition_density",
    "density_bounds",
]

logger = logging.getLogger(__name__)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_CHILD_COLUMNS = 16  # children per product in last_stage_costs
# cut entries per block of _least_stage_costs; small blocks stay in cache (the
# floor of 210 three-level candidates, 2-core Xeon: 7 ms, and 17 ms at 1 << 18)
_MOMENT_BLOCK = 1 << 14


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

    belief_type = GridBelief
    scan_width = 1

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

    def sample_next(self, x, rng: np.random.Generator):
        """Draw x_{t+1} given x_t = x, consuming one standard normal of rng."""
        return self.a * x + self.noise_std * rng.standard_normal()

    def step_variates(self, rng, out: np.ndarray) -> np.ndarray:
        """Fill out with the standard normals of sample_next calls: rng is
        a Generator and out one path's variates, or a rollout's
        _PathStreams and out (n_paths, steps)."""
        return rng.standard_normal(out=out)

    def state_paths(self, x0, v) -> np.ndarray:
        """States x_1 .. x_steps of every path, as sample_next gives them.

        x0 holds every path's state and v its (n_paths, steps) variates
        from step_variates; the recursion runs step by step on all paths.
        """
        out = np.empty(v.shape)
        x = x0
        for j in range(v.shape[1]):
            x = out[:, j] = self.a * x + self.noise_std * v[:, j]
        return out

    def real_values(self, states):
        """The real numbers states stand for: the states themselves."""
        return states

    def invariant_distribution(self, grid=None) -> GridBelief:
        """N(0, noise_std^2 / (1 - a^2)) on grid (default: default_grid).

        Requires |a| < 1 and noise_std > 0.
        """
        self.require_noise()
        std = self.stationary_std  # raises when |a| >= 1
        return GridBelief.normal(default_grid(self) if grid is None else grid, 0.0, std)

    def initial_belief(self, grid=None) -> GridBelief:
        """The time-0 law on grid (default: default_grid); init_std = 0 is
        a point mass."""
        if grid is None:
            grid = default_grid(self)
        if self.init_std == 0.0:
            return GridBelief.point_mass(grid, self.init_mean)
        return GridBelief.normal(grid, self.init_mean, self.init_std)

    def restrict(self, belief: GridBelief, quantizer, symbol: int):
        """The belief's density over cell symbol as (start, part): the
        per-node weights window_weights(grid, lo, hi, 0) * values, bit
        for bit, are part at nodes start .. start + len(part) - 1 and 0
        elsewhere.

        The cell's window weights are kept per (grid, cell) over their
        support only (_cell_weights), and part is their product with the
        values there (empty for an empty cell).
        """
        lo, hi = quantizer.cell_interval(symbol)
        start, w = _cell_weights(belief.grid, lo, hi)
        return start, w * belief.values[start : start + len(w)]

    def push(self, belief: GridBelief, start: int, part: np.ndarray, mass: float) -> GridBelief:
        """The restriction (start, part) over its mass, pushed through the
        transition kernel on the belief's grid and renormalized to
        integral 1. The kernel holds each column's band in blocks of
        columns, so the columns the restriction reads, start .. start +
        len(part) - 1, are a run of blocks, each multiplied over its own
        rows (beliefs._BandedKernel.times)."""
        raw = _transition_kernel(self, belief.grid).times(start, part) / mass
        z = float(belief.grid.trapezoid_weights @ raw)
        if z <= 0.0:
            raise ZeroMassSymbolError(f"zero-probability symbol: predicted mass {z}")
        logger.debug("filter renormalization drift %.3e", z - 1.0)
        if sys.float_info.min <= z < math.inf:
            # a finite nonnegative product over a normal mass: raw / z is
            # finite, nonnegative and integrates to 1 up to rounding
            return GridBelief._normalized(belief.grid, raw / z)
        # an overflowed kernel (a subnormal noise_std) or a subnormal
        # mass, which loses the precision dividing by it needs
        return GridBelief(belief.grid, raw / z)

    def stage_floor(self, belief: GridBelief, candidates, cost) -> float:
        """Least quadratic stage cost over every normalized kernel column
        on the belief's grid, read off the cached W K (_kernel_cut_moments)
        by _least_stage_costs (a grid belief has no tabular cost);
        candidates is any sequence, taken as a CandidateSet."""
        candidates = CandidateSet.of(candidates)
        weights = _cut_weights(belief.grid, candidates)
        product = _kernel_cut_moments(self, belief.grid, candidates)
        return float(_least_stage_costs(weights, product).min())

    def last_stage_costs(self, belief: GridBelief, candidates, cost, kept):
        """Least quadratic stage cost of every kept child of the belief,
        without building the children; None when nothing is kept.

        kept (K, L) marks the children filter_update(belief, self,
        candidates[k], m + 1) to cost, of the candidates (any sequence,
        taken as a CandidateSet).
        Their restrictions are the belief times the differences of the
        order-0 window weights up to their cells' two cuts
        (CutWeights.matrix), restrict's up to rounding.
        The cached W K (_kernel_cut_moments) times them gives every
        child's raw moments about 0 up to every cut, in blocks of
        _CHILD_COLUMNS children so that each product stays on one BLAS
        thread, and _least_stage_costs every child's least stage cost
        over the candidates, as in stage_floor. Returns (least, scale,
        error): least (K, L), 0 where not kept; scale the largest E[x^2]
        of a kept child; error the bound of dp's module docstring on how
        far least is from the cost of the child filter_update builds,
        levels (9 e + EPS_MASS) X^2 with e = 2 n_points 2^-53 and X the
        largest |grid node|.
        """
        if cost.kind != "quadratic" or not kept.any():
            return None
        candidates = CandidateSet.of(candidates)
        grid = belief.grid
        weights = _cut_weights(grid, candidates)
        product = _kernel_cut_moments(self, grid, candidates)
        lower, upper = weights.slots[:, :-1][kept], weights.slots[:, 1:][kept]
        restricted = (weights.matrix[upper] - weights.matrix[lower]) * belief.values
        cumulative = np.hstack([
            product @ restricted[j : j + _CHILD_COLUMNS].T
            for j in range(0, len(restricted), _CHILD_COLUMNS)
        ])
        least = np.zeros(kept.shape)
        least[kept] = _least_stage_costs(weights, cumulative)
        scale = float((cumulative[-1] / cumulative[len(weights.points) - 1]).max())
        x = max(abs(grid.lo), abs(grid.hi))
        e = 2.0 * grid.n_points * 2.0**-53
        error = candidates.levels * (9.0 * e + EPS_MASS) * x * x
        return least, scale, error


def _least_stage_costs(weights, cumulative) -> np.ndarray:
    """(C,): the least quadratic stage cost over the candidates of
    weights (CutWeights) of every column of cumulative, (3 P, C) raw
    moments of orders 0..2 up to every point, once normalized by its
    order-0 entry at +inf. Columns go in blocks of about _MOMENT_BLOCK
    cut entries; the result does not depend on the blocks."""
    p = len(weights.points)
    n_blocks = -(-cumulative.shape[1] * weights.slots.size // _MOMENT_BLOCK)
    return np.concatenate([
        _stage_costs_from(weights.cells(block / block[p - 1])).min(axis=0)
        for block in np.array_split(cumulative, n_blocks, axis=1)
    ])


@dataclass(frozen=True)
class FiniteChain:
    """Finite-alphabet Markov chain.

    transition is row-stochastic: transition[i, j] = P(next = j | now = i).
    initial is the time-0 distribution. state_values are the real numbers
    the states stand for under quadratic cost; they default to 0..n-1.
    The chain keeps a read-only copy of transition, so the cached row_cdf
    cannot go stale.
    """

    transition: np.ndarray
    initial: np.ndarray
    state_values: np.ndarray = field(default=None)  # type: ignore[assignment]

    belief_type = SimplexBelief

    def __post_init__(self) -> None:
        P = np.array(self.transition, dtype=float)
        P.flags.writeable = False
        object.__setattr__(self, "transition", P)
        object.__setattr__(self, "initial", np.asarray(self.initial, dtype=float))
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"transition must be square, got shape {P.shape}")
        n = P.shape[0]
        if not np.all(np.isfinite(P)):
            raise ValueError("transition entries must be finite")
        if not np.all(np.isfinite(self.initial)):
            raise ValueError("initial entries must be finite")
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
            object.__setattr__(self, "state_values", np.arange(n, dtype=float))
        else:
            object.__setattr__(
                self, "state_values", np.asarray(self.state_values, dtype=float)
            )
            if self.state_values.shape != (n,):
                raise ValueError(
                    f"state_values must have shape ({n},), "
                    f"got {self.state_values.shape}"
                )
            if not np.all(np.isfinite(self.state_values)):
                raise ValueError("state_values must be finite")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @functools.cached_property
    def row_cdf(self) -> np.ndarray:
        """Per-row normalized cumulative sums, as Generator.choice builds them.

        Row i is transition[i].cumsum() divided by its last entry, so a
        search of one uniform variate in it is exactly
        Generator.choice(n_states, p=transition[i]).
        """
        out = np.empty_like(self.transition)
        for i, row in enumerate(self.transition):
            cdf = row.cumsum()
            cdf /= cdf[-1]
            out[i] = cdf
        out.flags.writeable = False
        return out

    @property
    def scan_width(self) -> int:
        """Entries state_paths holds per path and step: one per state."""
        return self.n_states

    def sample_next(self, x, rng: np.random.Generator) -> int:
        """Next state index given state index x, consuming one uniform of
        rng: the algorithm of Generator.choice(n_states, p=row) on the
        cached row_cdf, so both consume and return the same."""
        return int(self.row_cdf[int(x)].searchsorted(rng.random(), side="right"))

    def step_variates(self, rng, out: np.ndarray) -> np.ndarray:
        """Fill out with the uniforms of sample_next calls: rng is a
        Generator and out one path's variates, or a rollout's _PathStreams
        and out (n_paths, steps)."""
        return rng.random(out=out)

    def state_paths(self, x0, v) -> np.ndarray:
        """States x_1 .. x_steps of every path, as sample_next gives them.

        x0 holds every path's state and v its (n_paths, steps) variates
        from step_variates. Every (path, step, state) is first mapped to
        its next state, the same row_cdf search as sample_next; the maps
        are then composed along each path by a prefix scan, in
        log2(steps) array operations. Each composition is one take on
        the flat maps: the entry of path p, step j and state i is at
        (p steps + j) n_states + i.
        """
        n_paths, steps = v.shape
        # maps[p, j, i]: the state after step j of path p from state i
        maps = np.empty((n_paths, steps, self.n_states), np.min_scalar_type(self.n_states))
        for i, row in enumerate(self.row_cdf):
            maps[..., i] = row.searchsorted(v, side="right")
        flat = maps.reshape(-1)
        offsets = self.n_states * np.arange(n_paths * steps).reshape(n_paths, steps, 1)
        d = 1
        while d < steps:
            # each map now covers steps j - 2d + 1 .. j, not j - d + 1 .. j
            maps[:, d:] = flat.take(offsets[:, d:] + maps[:, :-d])
            d *= 2
        return flat.take(offsets[..., 0] + np.asarray(x0)[:, None])

    def real_values(self, states):
        """The state_values of state indices."""
        return self.state_values[states]

    def invariant_distribution(self, grid=None) -> SimplexBelief:
        """The unique left eigenvector of the transition matrix for
        eigenvalue 1 (grid is unused). A chain without a unique stable
        stationary law (reducible, or with a second unit-modulus
        eigenvalue) is rejected."""
        eigvals, eigvecs = np.linalg.eig(self.transition.T)
        unit = np.abs(eigvals - 1.0) < 1e-9
        if unit.sum() != 1:
            raise ValueError("no stable invariant distribution: reducible chain")
        others = np.abs(eigvals[~unit])
        if others.size and np.max(others) >= 1.0 - 1e-12:
            raise ValueError(
                "no stable invariant distribution: second unit-modulus eigenvalue"
            )
        v = np.abs(np.real(eigvecs[:, unit].ravel()))
        return SimplexBelief(v / v.sum(), states=self.state_values)

    def initial_belief(self, grid=None) -> SimplexBelief:
        """The time-0 law (grid is unused)."""
        return SimplexBelief(self.initial.copy(), states=self.state_values)

    def restrict(self, belief: SimplexBelief, quantizer, symbol: int):
        """The belief's probabilities inside cell symbol, 0 elsewhere, as
        (start, part) = (0, every state's entry)."""
        return 0, belief.restrict(quantizer.member_mask(symbol))

    def push(self, belief: SimplexBelief, start: int, part: np.ndarray, mass: float) -> SimplexBelief:
        """The restriction (start, part) over its mass times the
        transition matrix's rows start .. start + len(part) - 1,
        renormalized to sum 1."""
        post = (part @ self.transition[start : start + len(part)]) / mass
        z = float(post.sum())
        logger.debug("filter renormalization drift %.3e", z - 1.0)
        return SimplexBelief(post / z, states=belief.states)

    def stage_floor(self, belief: SimplexBelief, candidates, cost) -> float:
        """Least stage cost over the transition rows as beliefs."""
        return min(
            float(cell_decisions(SimplexBelief(row, states=belief.states), candidates, cost)[0].min())
            for row in self.transition
        )

    def last_stage_costs(self, belief: SimplexBelief, candidates, cost, kept):
        """None: a chain has no last-stage product, so the dynamic
        program visits its candidates by the floor bound alone. On the
        3-state chain design of the rollout-chain benchmark workload the
        floor bound already leaves one candidate at every node one stage
        before the last."""
        return None


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


# SeedSequence's hash constants and PCG64's multiplier, as numpy defines
# them (numpy/random/bit_generator.pyx, pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: np.ndarray, h: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of uint32 words under hash constant h;
    returns the mixed words and the next constant, h * mult."""
    h_next = h * mult & _MASK32
    value = (value ^ h) * h_next
    return value ^ (value >> 16), h_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _absorb(pool: list, h: int, word: np.ndarray) -> int:
    """Mix one entropy word past the pool size into every pool word."""
    for i in range(_POOL_SIZE):
        m, h = _hashmix(word, h)
        pool[i] = _mix(pool[i], m)
    return h


# 128-bit integers are held as (high, low) pairs of uint64 arrays, whose
# arithmetic wraps modulo 2**64.


def _add(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2**128; the low words' sum wraps below a_lo on a carry."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul(hi, lo, k: int):
    """(hi, lo) * k mod 2**128 for a Python int k. The low word is the
    low words' wrapped product; its carry into the high word is built
    from 32-bit halves, whose products fit in 64 bits."""
    k_hi, k_lo = k >> 64, k & _MASK64
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = k_lo & _MASK32, k_lo >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + hi * k_lo + lo * k_hi, lo * k_lo


class _PathStreams:
    """One seed stream of every path, drawn a block of steps at a time.

    Path p's generator is default_rng(SeedSequence(seed, spawn_key=(p,
    j))): the j-th child of the p-th child of SeedSequence(seed). Every
    path's PCG64 state and increment live in the uint64 arrays state and
    inc, high words in row 0 and low words in row 1. They are seeded in
    one pass over all paths: SeedSequence's uint32 mixing, where only the
    path's word of the entropy differs between paths, then PCG64's
    seeding in two-word arithmetic. random draws every path's uniforms
    with the same arithmetic: the 128-bit LCG step, the XSL-RR output and
    Generator.random's (out >> 11) * 2**-53, bit for bit numpy's.
    standard_normal goes path by path through one reused Generator, whose
    state is set from the arrays and read back, because numpy's normals
    come from ziggurat tables it does not expose.
    """

    def __init__(self, seed: int, n_paths: int, j: int):
        # SeedSequence's entropy words: the seed's little-endian uint32
        # words, zero-padded to the pool size because a spawn key
        # follows, then p's word (p < 2**32 for any path array that
        # fits in memory) and j's word
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
        words += [0] * (_POOL_SIZE - len(words))
        entropy = [np.array([w], np.uint32) for w in words]
        entropy += [np.arange(n_paths, dtype=np.uint32), np.array([j], np.uint32)]
        h = _INIT_A
        pool = []
        for w in entropy[:_POOL_SIZE]:
            m, h = _hashmix(w, h)
            pool.append(m)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    m, h = _hashmix(pool[src], h)
                    pool[dst] = _mix(pool[dst], m)
        for w in entropy[_POOL_SIZE:]:
            h = _absorb(pool, h, w)
        # generate_state(4, uint64): 8 words read from the pool in turn
        words = np.empty((n_paths, 2 * _POOL_SIZE), np.uint32)
        h = _INIT_B
        for i in range(2 * _POOL_SIZE):
            words[:, i], h = _hashmix(pool[i % _POOL_SIZE], h, _MULT_B)
        # PCG64 seeding: initstate and initseq are 128-bit, high word
        # first; inc = initseq << 1 | 1, state = (inc + initstate) * M + inc
        s_hi, s_lo, q_hi, q_lo = words.astype("<u4").view("<u8").astype(np.uint64).T
        inc = ((q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1)
        self.inc = np.array(inc)
        self.state = np.array(_add(*_mul(*_add(*inc, s_hi, s_lo), _PCG_MULT), *inc))
        self._generator = np.random.default_rng(0)

    def random(self, out: np.ndarray) -> np.ndarray:
        """Fill out, of shape (n_paths, n), with every path's next n
        Generator.random() variates.

        Column 0 is one LCG step past the saved state. Column m + i is m
        steps past column i: mult * s + fac * inc, where mult = M**m and
        fac = M**(m-1) + ... + 1, so the columns fill in log2(n) passes
        over all paths.
        """
        n = out.shape[1]
        if n == 0:
            return out
        # step-major words, so a pass reads and writes whole rows
        hi = np.empty((n, out.shape[0]), np.uint64)
        lo = np.empty((n, out.shape[0]), np.uint64)
        inc_hi, inc_lo = self.inc
        hi[0], lo[0] = _add(*_mul(*self.state, _PCG_MULT), inc_hi, inc_lo)
        mult, fac, m = _PCG_MULT, 1, 1
        while m < n:
            k = min(m, n - m)
            hi[m : m + k], lo[m : m + k] = _add(
                *_mul(hi[:k], lo[:k], mult), *_mul(inc_hi, inc_lo, fac)
            )
            mult, fac, m = mult * mult & _MASK128, fac * (mult + 1) & _MASK128, 2 * m
        self.state = np.array([hi[-1], lo[-1]])
        # XSL-RR: the words' xor rotated right by the state's top 6 bits,
        # in place, because fresh temporaries of this size cost page faults
        x = np.bitwise_xor(hi, lo, out=lo)
        rot = np.right_shift(hi, 58, out=hi)
        right = x >> rot
        rot = np.subtract(64, rot, out=rot)
        rot &= 63
        x <<= rot
        x |= right
        x >>= 11
        return np.multiply(x.T, 2.0**-53, out=out)

    def standard_normal(self, out: np.ndarray) -> np.ndarray:
        """Fill out, of shape (n_paths, n), with every path's next n
        Generator.standard_normal() variates, one path at a time."""
        g = self._generator
        incs = [i_hi << 64 | i_lo for i_hi, i_lo in self.inc.T.tolist()]
        for p, (s_hi, s_lo) in enumerate(self.state.T.tolist()):
            g.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": s_hi << 64 | s_lo, "inc": incs[p]},
                "has_uint32": 0,
                "uinteger": 0,
            }
            g.standard_normal(out=out[p])
            s = g.bit_generator.state["state"]["state"]
            self.state[:, p] = s >> 64, s & _MASK64
        return out
