"""Long-horizon machinery: pieced policies, rollouts, discounted values.

The finite-horizon designer is extended to unbounded operation three
ways. First, a piecing schedule repeats each finite-horizon policy a
computed number of times so that longer-horizon (better) policies take
over an asymptotically full fraction of time while early segments stay
negligible; the repetition counts follow

    n_1 = 1,
    n_k = ceil(k * max(T_{k+1} / T_k, n_{k-1} T_{k-1} / T_k)),

with block lengths T'_k = n_k T_k and segment boundaries N_k = sum of
T'_l for l <= k, which force T'_k >= k T'_{k-1} and make the
previous-time fraction N_{k-1} / T'_k vanish like 1/k. At every block
start the pieced policy re-applies the time-0 rule at the restart
belief (beliefs are reset there), and inside a block it follows the
solved tree along the observed symbols.

Second, rollouts simulate any policy against sampled source paths with
encoder and decoder tracking beliefs independently (asserted
byte-identical each step, as they share symbols and, for randomized
policies, the common randomness stream).

Third, discounted value iteration solves the stationary fixed point on
a finite belief grid with nearest-neighbor lookups, and occupation
histograms record visited (belief, quantizer) pairs so empirical
invariance of the belief transition kernel can be measured.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beliefs import GridBelief, SimplexBelief, default_grid, filter_update
from .costs import CostModel, optimal_reconstruction, stage_cost, stage_costs
from .dp import DEFAULT_EPS_PRUNE, PolicyTree
from .quantizers import cell_mass, cell_masses
from .sources import FiniteChain, LinearGaussianSource, sample_next

__all__ = [
    "PiecingSchedule",
    "piecing_schedule",
    "build_pieced_policy",
    "FixedQuantizerPolicy",
    "GreedyPolicy",
    "TreeReplayPolicy",
    "PiecedPolicy",
    "RandomizedStationaryPolicy",
    "TrajectoryLog",
    "RolloutResult",
    "rollout",
    "simplex_belief_grid",
    "DiscountedVIResult",
    "DiscountedVINotConverged",
    "discounted_value_iteration",
    "SimplexBinning",
    "GridFeatureBinning",
    "OccupationHistogram",
    "occupation_measure",
    "invariance_residual",
]


# ---------------------------------------------------------------------------
# piecing schedule


@dataclass(frozen=True)
class PiecingSchedule:
    """Repetition schedule gluing finite-horizon policies end to end."""

    horizons: tuple  # T_k actually scheduled (k_max entries)
    n_reps: tuple  # n_k repetitions of the T_k-horizon policy
    block_lengths: tuple  # T'_k = n_k * T_k
    boundaries: tuple  # N_k = T'_1 + ... + T'_k
    ratios: tuple  # N_{k-1} / T'_k for k >= 2 (index 0 is for k = 2)

    @property
    def k_max(self) -> int:
        return len(self.horizons)

    def to_json(self) -> dict:
        return {
            "horizons": list(self.horizons),
            "n_reps": list(self.n_reps),
            "block_lengths": list(self.block_lengths),
            "boundaries": list(self.boundaries),
            "ratios": list(self.ratios),
        }


def piecing_schedule(horizons, k_max: int) -> PiecingSchedule:
    """Build the repetition schedule for the first k_max horizons.

    horizons must be strictly increasing positive integers with at least
    k_max + 1 entries (the recursion for n_k looks one horizon ahead).
    All arithmetic is exact integer arithmetic.
    """
    horizons = [int(T) for T in horizons]
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if len(horizons) < k_max + 1:
        raise ValueError(
            f"need at least k_max + 1 = {k_max + 1} horizons, got {len(horizons)}"
        )
    if any(T < 1 for T in horizons):
        raise ValueError("horizons must be >= 1")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError(f"horizons must be strictly increasing, got {horizons}")

    n_reps = [1]
    for k in range(2, k_max + 1):
        Tk = horizons[k - 1]
        Tnext = horizons[k]
        Tprev = horizons[k - 2]
        numerator = max(k * Tnext, k * n_reps[-1] * Tprev)
        n_reps.append(-(-numerator // Tk))  # exact ceiling
    block_lengths = [n * T for n, T in zip(n_reps, horizons)]
    boundaries = list(np.cumsum(block_lengths))
    for k in range(2, k_max + 1):
        if block_lengths[k - 1] < k * block_lengths[k - 2]:
            raise AssertionError("schedule invariant violated")
    ratios = tuple(
        boundaries[k - 2] / block_lengths[k - 1] for k in range(2, k_max + 1)
    )
    return PiecingSchedule(
        horizons=tuple(horizons[:k_max]),
        n_reps=tuple(n_reps),
        block_lengths=tuple(block_lengths),
        boundaries=tuple(int(b) for b in boundaries),
        ratios=ratios,
    )


# ---------------------------------------------------------------------------
# rollout policies


class Plan(NamedTuple):
    """Quantizer choice for one step; reset_belief, when set, replaces the
    tracked belief at both encoder and decoder before encoding."""

    quantizer_id: int
    quantizer: object
    reset_belief: object = None


class FixedQuantizerPolicy:
    """Applies one quantizer forever."""

    def __init__(self, quantizer):
        self.quantizer = quantizer

    def begin(self):
        return None

    def plan(self, state, t: int, belief, r: float) -> Plan:
        return Plan(0, self.quantizer)

    def advance(self, state, t: int, symbol: int):
        return state


class GreedyPolicy:
    """Minimizes the immediate stage cost at every step."""

    def __init__(self, candidates, cost: CostModel):
        self.candidates = list(candidates)
        if not self.candidates:
            raise ValueError("candidate set must be nonempty")
        self.cost = cost

    def begin(self):
        return None

    def plan(self, state, t: int, belief, r: float) -> Plan:
        best_id = int(np.argmin(stage_costs(belief, self.candidates, self.cost)))
        return Plan(best_id, self.candidates[best_id])

    def advance(self, state, t: int, symbol: int):
        return state


class TreeReplayPolicy:
    """Replays a solved policy tree, restarting at the root each block.

    At the start of every horizon-length block the tracked belief is
    reset to the tree's root belief: this is exactly a one-segment
    pieced policy, and over a single block it reproduces the designed
    policy verbatim.
    """

    def __init__(self, tree: PolicyTree):
        self.tree = tree

    def begin(self):
        return self.tree.root

    def _effective(self, state, t: int):
        node = self.tree.nodes[state]
        if t % self.tree.horizon == 0:
            return self.tree.nodes[self.tree.root], True
        return node, False

    def plan(self, state, t: int, belief, r: float) -> Plan:
        node, at_start = self._effective(state, t)
        return Plan(
            node.quantizer_id,
            node.quantizer,
            reset_belief=node.belief if at_start else None,
        )

    def advance(self, state, t: int, symbol: int):
        node, _ = self._effective(state, t)
        child = node.children.get(symbol)
        if child is None:
            raise RuntimeError(
                f"symbol {symbol} at t={t} was pruned from the policy tree"
            )
        return child[1]


class PiecedPolicy:
    """Glues finite-horizon policies per a piecing schedule.

    Segment k repeats the T_k-horizon tree n_k times; each repetition
    starts by applying the tree's time-0 quantizer at the restart belief
    (the tracked belief is reset there). Beyond the last scheduled
    segment the final segment's policy keeps repeating.
    """

    def __init__(self, schedule: PiecingSchedule, trees, restart_belief):
        self.schedule = schedule
        self.trees = list(trees)
        self.restart_belief = restart_belief
        if len(self.trees) != schedule.k_max:
            raise ValueError(
                "schedule/solution mismatch: "
                f"{schedule.k_max} segments but {len(self.trees)} policies"
            )
        key = restart_belief.key()
        for tree, T in zip(self.trees, schedule.horizons):
            if tree.horizon != T:
                raise ValueError(
                    f"schedule/solution mismatch: horizon {tree.horizon} != {T}"
                )
            if tree.nodes[tree.root].belief.key() != key:
                raise ValueError(
                    "schedule/solution mismatch: policy not solved from the "
                    "restart belief"
                )

    def _segment(self, t: int):
        b = self.schedule.boundaries
        for k in range(self.schedule.k_max):
            if t < b[k]:
                return k, b[k - 1] if k > 0 else 0
        # past the schedule: keep repeating the last segment
        k = self.schedule.k_max - 1
        return k, b[k - 1] if k > 0 else 0

    def _effective(self, state, t: int):
        k, start = self._segment(t)
        tree = self.trees[k]
        if (t - start) % tree.horizon == 0:
            return k, tree.nodes[tree.root], True
        return k, tree.nodes[state[1]], False

    def begin(self):
        return (0, self.trees[0].root)

    def plan(self, state, t: int, belief, r: float) -> Plan:
        _, node, at_start = self._effective(state, t)
        return Plan(
            node.quantizer_id,
            node.quantizer,
            reset_belief=self.restart_belief if at_start else None,
        )

    def advance(self, state, t: int, symbol: int):
        k, node, _ = self._effective(state, t)
        child = node.children.get(symbol)
        if child is None:
            raise RuntimeError(
                f"symbol {symbol} at t={t} was pruned from the policy tree"
            )
        return (k, child[1])


class RandomizedStationaryPolicy:
    """Stationary policy mixing candidate quantizers by belief bin.

    table[bin] is a probability row over candidate ids; the draw uses
    the shared per-step uniform variate r, so encoder and decoder make
    the same choice without extra communication.
    """

    def __init__(self, binning, table, candidates):
        self.binning = binning
        self.table = np.asarray(table, dtype=float)
        self.candidates = list(candidates)
        if self.table.ndim != 2 or self.table.shape[0] != binning.n_total:
            raise ValueError(
                f"table must have {binning.n_total} rows, got {self.table.shape}"
            )
        if self.table.shape[1] != len(self.candidates):
            raise ValueError("table columns must match the candidate count")
        if np.any(self.table < 0.0):
            raise ValueError("table rows must be nonnegative")
        if np.max(np.abs(self.table.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("table rows must sum to 1 within 1e-12")
        self._cum = np.cumsum(self.table, axis=1)

    def begin(self):
        return None

    def plan(self, state, t: int, belief, r: float) -> Plan:
        row = self._cum[self.binning.bin_of(belief)]
        qid = int(np.searchsorted(row, r, side="right"))
        qid = min(qid, len(self.candidates) - 1)
        return Plan(qid, self.candidates[qid])

    def advance(self, state, t: int, symbol: int):
        return state


def build_pieced_policy(dp_solutions, schedule: PiecingSchedule) -> PiecedPolicy:
    """Assemble the pieced policy from per-horizon solved trees.

    dp_solutions holds one PolicyTree per scheduled horizon, each solved
    from the same restart belief (normally the source's invariant
    distribution); the trees' root beliefs must agree byte-exactly.
    """
    trees = [
        sol.tree if hasattr(sol, "tree") else sol for sol in dp_solutions
    ]
    if not trees:
        raise ValueError("need at least one solved policy")
    restart = trees[0].nodes[trees[0].root].belief
    return PiecedPolicy(schedule, trees, restart)


# ---------------------------------------------------------------------------
# rollout


@dataclass
class TrajectoryLog:
    """Per-step record of one rolled-out path."""

    t: np.ndarray
    x: np.ndarray
    symbol: np.ndarray
    u: np.ndarray
    stage: np.ndarray
    belief_mean: np.ndarray
    belief_std: np.ndarray
    quantizer_id: np.ndarray
    probabilities: np.ndarray | None = None  # per-step simplex beliefs

    def to_csv(self, path) -> None:
        data = np.column_stack(
            [
                self.t,
                self.x,
                self.symbol,
                self.u,
                self.stage,
                self.belief_mean,
                self.belief_std,
                self.quantizer_id,
            ]
        )
        np.savetxt(
            path,
            data,
            delimiter=",",
            header="t,x,symbol,u,stage_cost,belief_mean,belief_std,quantizer_id",
            comments="",
        )


@dataclass
class RolloutResult:
    path_costs: np.ndarray
    mean_cost: float
    stderr: float
    cesaro: np.ndarray  # running averages of realized cost, logged path
    log: TrajectoryLog | None


def _default_initial_belief(model):
    if isinstance(model, FiniteChain):
        return SimplexBelief(model.initial.copy(), states=model.state_values)
    if isinstance(model, LinearGaussianSource):
        grid = default_grid(model)
        if model.init_std == 0.0:
            return GridBelief.point_mass(grid, model.init_mean)
        return GridBelief.normal(grid, model.init_mean, model.init_std)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _realized_cost(model, cost: CostModel, x, u) -> float:
    # quadratic cost on a finite chain compares state values, not indices
    if isinstance(model, FiniteChain) and cost.kind == "quadratic":
        return cost.pointwise(model.state_values[x], u)
    return cost.pointwise(x, u)


def rollout(
    policy,
    model,
    cost: CostModel,
    horizon: int,
    n_paths: int,
    seed: int,
    initial_belief=None,
    log_path: bool = True,
) -> RolloutResult:
    """Monte Carlo rollout of a policy against sampled source paths.

    Per path, the initial state is drawn from initial_belief (default:
    the model's own initial law), and each step classifies the true
    state, reconstructs from the decoder belief, pays the realized cost,
    then filters. Encoder and decoder update their beliefs independently
    from the shared symbol; a byte mismatch raises (belief
    desynchronization). Randomness is split per path from the root seed,
    so results do not depend on path order. The trajectory log covers
    path 0 and stores the belief-feedback stage cost alongside the
    realized cost average.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if initial_belief is None:
        initial_belief = _default_initial_belief(model)
    finite = isinstance(model, FiniteChain)

    root = np.random.SeedSequence(seed)
    path_seeds = root.spawn(n_paths)
    path_costs = np.zeros(n_paths)
    cesaro = None
    log = None

    for p in range(n_paths):
        src_stream, shared_stream = (
            np.random.default_rng(s) for s in path_seeds[p].spawn(2)
        )
        x = initial_belief.sample(src_stream)
        enc = initial_belief
        dec = initial_belief
        state = policy.begin()
        logging_this = log_path and p == 0
        if logging_this:
            cols = {
                name: np.zeros(horizon)
                for name in ("x", "u", "stage", "mean", "std")
            }
            syms = np.zeros(horizon, dtype=int)
            qids = np.zeros(horizon, dtype=int)
            probs = np.zeros((horizon, enc.n_states)) if finite else None
            realized_steps = np.zeros(horizon)
        total = 0.0
        for t in range(horizon):
            r = float(shared_stream.uniform())
            plan = policy.plan(state, t, enc, r)
            if plan.reset_belief is not None:
                enc = plan.reset_belief
                dec = plan.reset_belief
            quantizer = plan.quantizer
            symbol = quantizer.classify(x)
            u = optimal_reconstruction(dec, quantizer, symbol, cost)
            realized = _realized_cost(model, cost, x, u)
            total += realized
            if logging_this:
                cols["x"][t] = model.state_values[x] if finite else x
                cols["u"][t] = u
                cols["stage"][t] = stage_cost(enc, quantizer, cost)
                cols["mean"][t] = enc.mean
                cols["std"][t] = enc.std
                syms[t] = symbol
                qids[t] = plan.quantizer_id
                realized_steps[t] = realized
                if probs is not None:
                    probs[t] = enc.probabilities
            nxt = sample_next(model, x, src_stream)
            new_enc = filter_update(enc, model, quantizer, symbol)
            new_dec = filter_update(dec, model, quantizer, symbol)
            if new_enc.key() != new_dec.key():
                raise RuntimeError(f"belief desynchronization at step {t}")
            enc, dec, x = new_enc, new_dec, nxt
            state = policy.advance(state, t, symbol)
        path_costs[p] = total / horizon
        if logging_this:
            cesaro = np.cumsum(realized_steps) / np.arange(1, horizon + 1)
            log = TrajectoryLog(
                t=np.arange(horizon),
                x=cols["x"],
                symbol=syms,
                u=cols["u"],
                stage=cols["stage"],
                belief_mean=cols["mean"],
                belief_std=cols["std"],
                quantizer_id=qids,
                probabilities=probs,
            )

    mean_cost = float(path_costs.mean())
    stderr = float(path_costs.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return RolloutResult(
        path_costs=path_costs,
        mean_cost=mean_cost,
        stderr=stderr,
        cesaro=cesaro if cesaro is not None else np.zeros(0),
        log=log,
    )


# ---------------------------------------------------------------------------
# discounted value iteration


@dataclass
class DiscountedVIResult:
    beliefs: list
    values: np.ndarray
    policy_ids: np.ndarray
    residual: float
    iterations: int
    sup_diffs: np.ndarray


class DiscountedVINotConverged(RuntimeError):
    def __init__(self, residual: float, max_iter: int):
        super().__init__(
            f"value iteration residual {residual:.3e} after {max_iter} iterations"
        )
        self.residual = residual


def simplex_belief_grid(chain: FiniteChain, n_points: int):
    """Uniform belief grid on the 2-state simplex."""
    if chain.n_states != 2:
        raise ValueError("simplex belief grids are built for 2-state chains")
    return [
        SimplexBelief(np.array([p, 1.0 - p]), states=chain.state_values)
        for p in np.linspace(0.0, 1.0, n_points)
    ]


def _nearest_index(prob_matrix: np.ndarray, belief) -> int:
    dists = np.abs(prob_matrix - belief.probabilities).sum(axis=1)
    return int(np.argmin(dists))


def discounted_value_iteration(
    belief_grid,
    model,
    beta: float,
    candidates,
    cost: CostModel,
    tol: float = 1e-9,
    max_iter: int = 1000,
    eps_prune: float = DEFAULT_EPS_PRUNE,
) -> DiscountedVIResult:
    """Fixed point of the discounted design recursion on a belief grid.

    Successor beliefs are snapped to their nearest grid member (total
    variation). Iterates V <- min over candidates of stage cost + beta
    times the expected successor value, from V = 0, until the sup-norm
    step is at most tol; beta = 0 therefore converges in one sweep to
    the pure stage-cost minimum. The reported residual is the sup-norm
    Bellman defect of the returned table.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"discount must lie in [0, 1), got {beta}")
    beliefs = list(belief_grid)
    candidates = list(candidates)
    if not beliefs or not candidates:
        raise ValueError("belief grid and candidate set must be nonempty")
    G, K = len(beliefs), len(candidates)
    prob_matrix = np.stack([b.probabilities for b in beliefs])

    levels = max(q.levels for q in candidates)
    stage = np.zeros((G, K))
    masses = np.zeros((G, K, levels))
    succ = np.zeros((G, K, levels), dtype=int)
    for i, belief in enumerate(beliefs):
        for k, quantizer in enumerate(candidates):
            stage[i, k] = stage_cost(belief, quantizer, cost)
            for m in range(1, quantizer.levels + 1):
                mass = cell_mass(belief, quantizer, m)
                if mass <= eps_prune:
                    continue
                nxt = filter_update(belief, model, quantizer, m)
                masses[i, k, m - 1] = mass
                succ[i, k, m - 1] = _nearest_index(prob_matrix, nxt)

    values = np.zeros(G)
    sup_diffs = []
    for iteration in range(1, max_iter + 1):
        q_values = stage + beta * (masses * values[succ]).sum(axis=2)
        new_values = q_values.min(axis=1)
        diff = float(np.max(np.abs(new_values - values)))
        sup_diffs.append(diff)
        values = new_values
        if diff <= tol:
            break
    else:
        raise DiscountedVINotConverged(diff, max_iter)

    q_values = stage + beta * (masses * values[succ]).sum(axis=2)
    residual = float(np.max(np.abs(q_values.min(axis=1) - values)))
    policy_ids = q_values.argmin(axis=1)
    return DiscountedVIResult(
        beliefs=beliefs,
        values=values,
        policy_ids=policy_ids,
        residual=residual,
        iterations=iteration,
        sup_diffs=np.asarray(sup_diffs),
    )


# ---------------------------------------------------------------------------
# occupation measures


@dataclass(frozen=True)
class SimplexBinning:
    """Bins 2-state beliefs by their first coordinate."""

    n_bins: int = 50

    @property
    def n_total(self) -> int:
        return self.n_bins

    def bin_of(self, belief: SimplexBelief) -> int:
        if belief.n_states != 2:
            raise ValueError("simplex binning supports 2-state chains")
        p0 = float(belief.probabilities[0])
        return min(int(p0 * self.n_bins), self.n_bins - 1)

    def to_json(self) -> dict:
        return {"type": "simplex", "n_bins": self.n_bins}


@dataclass(frozen=True)
class GridFeatureBinning:
    """Bins density beliefs by (mean, standard deviation)."""

    mean_lo: float
    mean_hi: float
    std_hi: float
    n_mean: int = 50
    n_std: int = 20

    @classmethod
    def for_grid(cls, grid, n_mean: int = 50, n_std: int = 20):
        return cls(
            mean_lo=grid.lo,
            mean_hi=grid.hi,
            std_hi=0.5 * (grid.hi - grid.lo),
            n_mean=n_mean,
            n_std=n_std,
        )

    @property
    def n_total(self) -> int:
        return self.n_mean * self.n_std

    def _coords(self, mean: float, std: float):
        i = int((mean - self.mean_lo) / (self.mean_hi - self.mean_lo) * self.n_mean)
        j = int(std / self.std_hi * self.n_std)
        return min(max(i, 0), self.n_mean - 1), min(max(j, 0), self.n_std - 1)

    def bin_of(self, belief) -> int:
        i, j = self._coords(belief.mean, belief.std)
        return i * self.n_std + j

    def bin_center(self, bin_id: int):
        i, j = divmod(bin_id, self.n_std)
        mean = self.mean_lo + (i + 0.5) * (self.mean_hi - self.mean_lo) / self.n_mean
        std = (j + 0.5) * self.std_hi / self.n_std
        return mean, std

    def to_json(self) -> dict:
        return {
            "type": "grid_features",
            "mean_lo": self.mean_lo,
            "mean_hi": self.mean_hi,
            "std_hi": self.std_hi,
            "n_mean": self.n_mean,
            "n_std": self.n_std,
        }


@dataclass
class OccupationHistogram:
    """Visit counts over (belief bin, quantizer id) pairs."""

    binning: object
    counts: np.ndarray  # (n_bins, n_quantizers) int64
    steps: int
    mean_stage_cost: float
    belief_sums: np.ndarray | None = None  # per-bin summed simplex beliefs

    def normalized(self) -> np.ndarray:
        return self.counts / max(self.steps, 1)

    def to_json(self) -> dict:
        occupied = np.argwhere(self.counts > 0)
        return {
            "binning": self.binning.to_json(),
            "steps": self.steps,
            "mean_stage_cost": self.mean_stage_cost,
            "entries": [
                {
                    "bin": int(b),
                    "quantizer_id": int(q),
                    "count": int(self.counts[b, q]),
                }
                for b, q in occupied
            ],
        }


def occupation_measure(log: TrajectoryLog, binning) -> OccupationHistogram:
    """Empirical occupation of (belief bin, quantizer id) along a path.

    Also reports the time average of the belief-feedback stage cost,
    i.e. the integral of the stage cost against the empirical
    occupation. Simplex logs carry full belief vectors, so per-bin
    belief sums are accumulated for later invariance checks; grid logs
    only carry (mean, std) features.
    """
    steps = len(log.t)
    if steps == 0:
        raise ValueError("trajectory log is empty")
    n_q = int(log.quantizer_id.max()) + 1
    counts = np.zeros((binning.n_total, n_q), dtype=np.int64)
    belief_sums = None
    if log.probabilities is not None:
        belief_sums = np.zeros((binning.n_total, log.probabilities.shape[1]))
    for idx in range(steps):
        if log.probabilities is not None:
            belief = SimplexBelief(log.probabilities[idx])
            b = binning.bin_of(belief)
            belief_sums[b] += log.probabilities[idx]
        else:
            b_i, b_j = binning._coords(log.belief_mean[idx], log.belief_std[idx])
            b = b_i * binning.n_std + b_j
        counts[b, int(log.quantizer_id[idx])] += 1
    return OccupationHistogram(
        binning=binning,
        counts=counts,
        steps=steps,
        mean_stage_cost=float(log.stage.mean()),
        belief_sums=belief_sums,
    )


def invariance_residual(
    histogram: OccupationHistogram,
    model,
    candidates,
    eps_mass: float = 1e-12,
    grid=None,
) -> float:
    """Total variation defect of the histogram under the belief kernel.

    Pushes each occupied (bin, quantizer) cell forward through the
    filter (branch by branch, weighted by branch mass) and compares the
    resulting belief-bin distribution with the histogram's own
    belief-bin marginal. Near 0 for samples from an invariant regime.
    Bin representatives are the per-bin average logged beliefs when
    available (simplex logs); grid-feature histograms synthesize a
    normal density at the bin center, on grid (default: the model's
    default grid), which makes the check a diagnostic rather than an
    exact statement there.
    """
    binning = histogram.binning
    counts = histogram.counts
    steps = histogram.steps
    marginal = counts.sum(axis=1) / steps
    pushed = np.zeros(binning.n_total)
    if grid is None and isinstance(model, LinearGaussianSource):
        grid = default_grid(model)
    for b in np.flatnonzero(counts.sum(axis=1)):
        if histogram.belief_sums is not None:
            total = histogram.belief_sums[b].sum()
            rep = SimplexBelief(
                histogram.belief_sums[b] / total, states=model.state_values
            )
        else:
            mean, std = binning.bin_center(b)
            rep = GridBelief.normal(grid, mean, std)
        used = np.flatnonzero(counts[b])
        masses = cell_masses(rep, [candidates[k] for k in used]).tolist()
        for k, row in zip(used, masses):
            weight = counts[b, k] / steps
            quantizer = candidates[k]
            for m, mass in enumerate(row[: quantizer.levels], start=1):
                if mass <= eps_mass:
                    continue
                nxt = filter_update(rep, model, quantizer, m)
                pushed[binning.bin_of(nxt)] += weight * mass
    return float(np.abs(marginal - pushed).sum())
