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

Second, rollouts simulate any policy against sampled source paths.
The policies here are Markov in the decoder's belief, so the next
belief is a pure function of the belief, the quantizer and the symbol,
and encoder and decoder hold the same belief. Under a deterministic
policy that belief is a function of the symbol history, so across
paths only a few beliefs exist at each step. The rollout therefore
steps all paths in lockstep over arrays: source states, ids into a
table of interned beliefs, and the policy's state (tree node ids).
Policies plan for all paths at once, with their Python work done once
per distinct belief or per step; their CandidateSet classifies every
path in one call. The table decides each belief once, with one
cell_decisions call over the policy's quantizers that gives its stage
costs and reconstructions, and keeps the first argmin of its stage
costs as its greedy pick (which a greedy policy reads); it filters each
distinct (belief, quantizer, symbol) once while the belief stays in the
table. The table is compacted to
the live beliefs whenever it holds _MEMO_CAP of them. Path p keeps the
seed streams of SeedSequence(seed).spawn(n_paths)[p].spawn(2), drawn in
blocks of steps. The tests check the rollout against a per-path,
per-step reference loop and the logged path against a decoder that
rebuilds it from the symbols and the shared randomness alone.

Third, discounted value iteration solves the stationary fixed point on
a finite belief grid with nearest-neighbor lookups, and occupation
histograms record visited (belief, quantizer) pairs so empirical
invariance of the belief transition kernel can be measured.
"""
from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beliefs import (
    EPS_MASS, Grid, GridBelief, SimplexBelief, ZeroMassSymbolError, _check_pair, filter_update
)
from .costs import CostModel, cell_decisions
from .dp import EPS_PRUNE, PolicyTree
from .quantizers import CandidateSet
from .sources import FiniteChain, _PathStreams

__all__ = [
    "PiecingSchedule",
    "piecing_schedule",
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

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# piecing schedule


@dataclass(frozen=True)
class PiecingSchedule:
    """Repetition schedule gluing finite-horizon policies end to end.

    horizons (T_k) and n_reps (n_k) define it; the block lengths, the
    segment boundaries and the ratios follow from them.
    """

    horizons: tuple  # T_k actually scheduled (k_max entries)
    n_reps: tuple  # n_k repetitions of the T_k-horizon policy

    @property
    def k_max(self) -> int:
        return len(self.horizons)

    @functools.cached_property
    def block_lengths(self) -> tuple:
        """T'_k = n_k * T_k."""
        return tuple(n * T for n, T in zip(self.n_reps, self.horizons))

    @functools.cached_property
    def boundaries(self) -> tuple:
        """N_k = T'_1 + ... + T'_k."""
        # Python ints: int64 would wrap around for block lengths near 2**63
        return tuple(itertools.accumulate(self.block_lengths))

    @functools.cached_property
    def ratios(self) -> tuple:
        """N_{k-1} / T'_k for k >= 2 (index 0 is for k = 2)."""
        return tuple(N / T for N, T in zip(self.boundaries, self.block_lengths[1:]))

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
    schedule = PiecingSchedule(tuple(horizons[:k_max]), tuple(n_reps))
    for k in range(2, k_max + 1):
        if schedule.block_lengths[k - 1] < k * schedule.block_lengths[k - 2]:
            raise AssertionError("schedule invariant violated")
    return schedule


# ---------------------------------------------------------------------------
# rollout policies
#
# A policy acts on all paths of a rollout at once. begin(n_paths) gives
# the per-path policy state (an array, or None). plan(state, t, ids,
# table, r) gets every path's belief id into the rollout's belief table
# (table.beliefs[id] is the belief, and table.picks(ids) every path's
# greedy pick, the first argmin of its belief's stage costs) and, for
# policies with shared_randomness, every path's shared variate r; it
# returns a Plan whose quantizer_ids index the policy's quantizers, a
# CandidateSet.
# advance(state, t, symbols) moves the state along every path's symbol.


class Plan(NamedTuple):
    """Quantizer choice for one step, for every path.

    reset_belief, when set, replaces every path's tracked belief
    (encoder's and decoder's alike) before encoding; resets depend on t
    only.
    """

    quantizer_ids: np.ndarray
    reset_belief: object = None


class _Policy:
    """Defaults of a policy without per-path state or shared randomness."""

    shared_randomness = False

    def begin(self, n_paths: int):
        return None

    def advance(self, state, t: int, symbols: np.ndarray):
        return state


class FixedQuantizerPolicy(_Policy):
    """Applies one quantizer forever."""

    def __init__(self, quantizer):
        self.quantizers = CandidateSet((quantizer,))

    def plan(self, state, t: int, ids, table, r) -> Plan:
        return Plan(np.zeros(len(ids), dtype=np.intp))


class GreedyPolicy(_Policy):
    """Minimizes the immediate stage cost at every step.

    Every path takes its belief's pick in the rollout's table: the
    first argmin of the belief's stage row, taken once when the table
    decides the belief, so ties go to the first candidate.
    """

    def __init__(self, candidates):
        self.quantizers = CandidateSet.of(candidates)

    def plan(self, state, t: int, ids, table, r) -> Plan:
        return Plan(table.picks(ids))


def _tree_tables(trees):
    """The quantizers of solved trees and, per tree, node arrays.

    Returns (quantizers, tables): the CandidateSet quantizers holds the
    quantizer of every id (the first used one at the ids no node uses),
    and each table is (qid, child) with qid[node] the node's quantizer
    id (-1 at leaves) and child[node, m - 1] the child after symbol m
    (-1 where pruned).
    """
    by_id = {}
    for node in (n for tree in trees for n in tree.nodes if n.quantizer is not None):
        if by_id.setdefault(node.quantizer_id, node.quantizer) != node.quantizer:
            raise ValueError(f"policies disagree on quantizer id {node.quantizer_id}")
    used = by_id[min(by_id)]
    quantizers = CandidateSet(by_id.get(i, used) for i in range(max(by_id) + 1))
    tables = []
    for tree in trees:
        qid = np.full(len(tree.nodes), -1, dtype=np.intp)
        child = np.full((len(tree.nodes), quantizers.levels), -1, dtype=np.intp)
        for i, node in enumerate(tree.nodes):
            if node.quantizer is not None:
                qid[i] = node.quantizer_id
                for m, (_, c) in node.children.items():
                    child[i, m - 1] = c
        tables.append((qid, child))
    return quantizers, tables


def _descend(child, nodes, t: int, symbols):
    """Next node of every path; a symbol the tree pruned raises."""
    nxt = child[nodes, symbols - 1]
    pruned = np.flatnonzero(nxt < 0)
    if pruned.size:
        raise RuntimeError(
            f"symbol {symbols[pruned[0]]} at t={t} was pruned from the policy tree"
        )
    return nxt


class PiecedPolicy(_Policy):
    """Glues finite-horizon policies per a piecing schedule.

    trees holds one PolicyTree per scheduled horizon, each solved from
    the same restart belief (normally the source's invariant
    distribution): the first tree's root belief, which every root must
    match byte-exactly. Segment k repeats the T_k-horizon tree n_k
    times; each repetition starts by applying the tree's time-0
    quantizer at the restart belief (the tracked belief is reset there).
    Beyond the last scheduled segment the final segment's policy keeps
    repeating. The state is every path's node id in the current
    segment's tree; the segment depends on t only. The restart belief
    must give mass to every cell the state can reach at a block start,
    or rollout raises ZeroMassSymbolError (as a point mass soon does).
    """

    def __init__(self, schedule: PiecingSchedule, trees):
        self.schedule = schedule
        self.trees = list(trees)
        if not self.trees:
            raise ValueError("need at least one solved policy")
        if len(self.trees) != schedule.k_max:
            raise ValueError(
                "schedule/solution mismatch: "
                f"{schedule.k_max} segments but {len(self.trees)} policies"
            )
        self.restart = self.trees[0].nodes[self.trees[0].root].belief
        key = self.restart.key()
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
        self.quantizers, self._tables = _tree_tables(self.trees)

    def _segment(self, t: int):
        """(segment, whether t starts one of its blocks)."""
        b = self.schedule.boundaries
        k = next((k for k in range(self.schedule.k_max) if t < b[k]), None)
        if k is None:
            # past the schedule: keep repeating the last segment
            k = self.schedule.k_max - 1
        start = b[k - 1] if k > 0 else 0
        return k, (t - start) % self.trees[k].horizon == 0

    def begin(self, n_paths: int):
        return np.full(n_paths, self.trees[0].root)

    def plan(self, state, t: int, ids, table, r) -> Plan:
        k, at_start = self._segment(t)
        qid = self._tables[k][0]
        if at_start:
            return Plan(np.full(len(ids), qid[self.trees[k].root]), self.restart)
        return Plan(qid[state])

    def advance(self, state, t: int, symbols):
        k, at_start = self._segment(t)
        nodes = self.trees[k].root if at_start else state
        return _descend(self._tables[k][1], nodes, t, symbols)


class TreeReplayPolicy(PiecedPolicy):
    """Replays a solved policy tree, restarting at the root each block.

    The one-segment pieced policy: at the start of every horizon-length
    block the tracked belief is reset to the tree's root belief, and
    over a single block it reproduces the designed policy verbatim. The
    root belief must give mass to every cell the state can reach then.
    """

    def __init__(self, tree: PolicyTree):
        super().__init__(PiecingSchedule((tree.horizon,), (1,)), [tree])


class RandomizedStationaryPolicy(_Policy):
    """Stationary policy mixing candidate quantizers by belief bin.

    table[bin] is a probability row over candidate ids; each path draws
    with its shared per-step uniform variate r, so encoder and decoder
    make the same choice without extra communication. Each distinct
    belief of a step is binned once.
    """

    shared_randomness = True

    def __init__(self, binning, table, candidates):
        self.binning = binning
        self.table = np.asarray(table, dtype=float)
        self.quantizers = CandidateSet.of(candidates)
        if self.table.ndim != 2 or self.table.shape[0] != binning.n_total:
            raise ValueError(
                f"table must have {binning.n_total} rows, got {self.table.shape}"
            )
        if self.table.shape[1] != len(self.quantizers):
            raise ValueError("table columns must match the candidate count")
        if not np.all(np.isfinite(self.table)):
            raise ValueError("table entries must be finite")
        if np.any(self.table < 0.0):
            raise ValueError("table rows must be nonnegative")
        if np.max(np.abs(self.table.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("table rows must sum to 1 within 1e-12")
        self._cum = np.cumsum(self.table, axis=1)

    def plan(self, state, t: int, ids, table, r) -> Plan:
        bins = np.zeros(len(table.beliefs), dtype=np.intp)
        distinct = np.flatnonzero(np.bincount(ids))
        bins[distinct] = _belief_bins(self.binning, [table.beliefs[b] for b in distinct.tolist()])
        # the count of row entries <= r is searchsorted(side="right")
        picks = (self._cum[bins[ids]] <= r[:, None]).sum(axis=1)
        return Plan(np.minimum(picks, len(self.quantizers) - 1))


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
    log: TrajectoryLog


# Beliefs a rollout's table holds before it drops all but the live
# ones. An 801-node grid belief is about 13 KB with its key, so a grid
# rollout's table stays near 4 MB plus its live beliefs; chain rollouts
# have far fewer distinct beliefs than this.
_MEMO_CAP = 256

# Entries (paths x steps, times the states of a chain) per draw block.
# Every block pays a few array passes per stream, and a Gaussian block
# sets each path's state on one generator, so a block should span most
# rollouts. Its arrays, the two uint64 words of each uniform's state
# among them, take about 56 bytes per path and step.
_DRAW_BLOCK = 1 << 17


class _BeliefTable:
    """The interned beliefs of one rollout and the transitions between them.

    beliefs[b] is the belief with id b, one per distinct key(). For
    belief id b, quantizer id q and symbol m (column 0 of the symbol
    axis is unused)
      recon[b, q, m]   the optimal reconstruction, NaN for a dead cell;
      succ[b, q, m]    id of the filtered next belief, -1 until filtered;
    stage[b, q] is the stage cost and pick[b] the first argmin of
    stage[b], the greedy choice. The flat index of [b, q, m] in recon
    and succ is the transition's key, (b * n_quantizers + q) * width + m
    (width = levels + 1). The table is the one place a rollout decides:
    on first need, one cell_decisions call over all the quantizers fills
    belief b's stage row, pick and reconstructions (pick[b] is -1 until
    then). Each belief is decided once and each transition filtered once
    while the belief stays in the table; compact() drops every belief
    but the live ones.
    """

    def __init__(self, model, cost: CostModel, quantizers):
        self.model, self.cost, self.quantizers = model, cost, quantizers
        self.width = 1 + quantizers.levels
        self.beliefs, self.ids = [], {}
        self.undecided = set()  # the ids whose pick is -1
        self._alloc(16)
        self.decisions = self.filter_calls = self.clears = self.peak = 0

    def _alloc(self, capacity: int) -> None:
        shape = (capacity, len(self.quantizers))
        self.stage = np.full(shape, np.nan)
        self.pick = np.full(capacity, -1, dtype=np.intp)
        self.recon = np.full(shape + (self.width,), np.nan)
        self.succ = np.full(shape + (self.width,), -1, dtype=np.intp)

    def intern(self, belief) -> int:
        key = belief.key()
        b = self.ids.get(key)
        if b is None:
            b = self.ids[key] = len(self.beliefs)
            self.beliefs.append(belief)
            self.undecided.add(b)
            self.peak = max(self.peak, b + 1)
            if b == self.pick.size:
                old = (self.stage, self.pick, self.recon, self.succ)
                self._alloc(2 * b)
                for new, kept in zip((self.stage, self.pick, self.recon, self.succ), old):
                    new[:b] = kept
        return b

    def compact(self, ids: np.ndarray) -> np.ndarray:
        """Keep only the beliefs in ids, undecided; returns ids renumbered.
        The arrays keep their capacity, their rows in use reset."""
        live, ids = np.unique(ids, return_inverse=True)
        used = len(self.beliefs)
        self.beliefs = [self.beliefs[b] for b in live.tolist()]
        self.ids = {belief.key(): b for b, belief in enumerate(self.beliefs)}
        self.undecided = set(range(len(self.beliefs)))
        for array, unset in ((self.stage, np.nan), (self.pick, -1), (self.recon, np.nan), (self.succ, -1)):
            array[:used] = unset
        self.clears += 1
        return ids

    def _decide(self, b: int) -> None:
        stages, _, recon = cell_decisions(self.beliefs[b], self.quantizers, self.cost)
        self.stage[b] = stages
        self.recon[b, :, 1:] = recon
        self.pick[b] = stages.argmin()
        self.undecided.discard(b)
        self.decisions += 1

    def picks(self, ids) -> np.ndarray:
        """The greedy pick of every belief id, deciding the new beliefs."""
        if self.undecided:
            for b in sorted(self.undecided.intersection(ids.tolist())):
                self._decide(b)
        return self.pick.take(ids)

    def successors(self, keys):
        """Next belief id of every transition key, filling the missing ones."""
        nxt = self.succ.take(keys)
        if nxt[nxt.argmin()] < 0:  # nxt.min() < 0, in fewer calls
            for key in sorted(set(keys[nxt < 0].tolist())):
                self._fill(key)
            nxt = self.succ.take(keys)
        return nxt

    def _fill(self, key: int) -> None:
        bq, m = divmod(key, self.width)
        b, q = divmod(bq, len(self.quantizers))
        if b in self.undecided:
            self._decide(b)
        if math.isnan(self.recon[b, q, m]):
            raise ZeroMassSymbolError(f"cell {m} carries no mass; reconstruction undefined")
        self.filter_calls += 1
        self.succ[b, q, m] = self.intern(filter_update(self.beliefs[b], self.model, self.quantizers[q], m))


class _PathLog:
    """Path 0's TrajectoryLog (trajectory) and realized costs, filled a
    range of steps at a time."""

    def __init__(self, horizon: int, initial_belief):
        # log_row(): mean, std, then a simplex belief's probabilities
        extra = len(initial_belief.log_row()) - 2
        self.trajectory = TrajectoryLog(
            t=np.arange(horizon),
            x=np.zeros(horizon),
            symbol=np.zeros(horizon, dtype=int),
            u=np.zeros(horizon),
            stage=np.zeros(horizon),
            belief_mean=np.zeros(horizon),
            belief_std=np.zeros(horizon),
            quantizer_id=np.zeros(horizon, dtype=int),
            probabilities=np.zeros((horizon, extra)) if extra else None,
        )
        self.realized = np.zeros(horizon)

    def transitions(self, steps: slice, keys, table: _BeliefTable) -> None:
        """Columns read off the table: keys are path 0's transition keys."""
        log = self.trajectory
        bq, log.symbol[steps] = np.divmod(keys, table.width)
        b, log.quantizer_id[steps] = np.divmod(bq, len(table.quantizers))
        log.stage[steps] = table.stage.take(bq)
        distinct, inverse = np.unique(b, return_inverse=True)
        rows = np.array([table.beliefs[i].log_row() for i in distinct.tolist()])[inverse]
        log.belief_mean[steps], log.belief_std[steps] = rows[:, 0], rows[:, 1]
        if log.probabilities is not None:
            log.probabilities[steps] = rows[:, 2:]


class _Lockstep:
    """All paths of one rollout, stepped together a block at a time.

    Per path it keeps the belief id, the policy state and the running
    total of realized costs; rollout hands it each block's source states.
    """

    def __init__(self, policy, model, cost: CostModel, initial_belief, n_paths: int, log):
        self.policy, self.model, self.cost, self.log = policy, model, cost, log
        self.table = _BeliefTable(model, cost, policy.quantizers)
        self.ids = np.full(n_paths, self.table.intern(initial_belief))
        self.state = policy.begin(n_paths)
        self.total = np.zeros(n_paths)
        self.groups = 0

    def run(self, t0: int, xs: np.ndarray, shares) -> None:
        """Steps t0 .. t0 + size - 1, given every path's states xs
        (n_paths, size) and shared variates shares (or None)."""
        table, policy = self.table, self.policy
        classify = table.quantizers.classify
        keys = np.empty(xs.shape, dtype=np.intp)
        u = np.empty(xs.shape)
        settled = 0
        for j in range(xs.shape[1]):
            t = t0 + j
            if len(table.beliefs) >= _MEMO_CAP:
                self._settle(t0, keys, u, settled, j)
                settled = j
                self.ids = table.compact(self.ids)
            r = None if shares is None else shares[:, j]
            plan = policy.plan(self.state, t, self.ids, table, r)
            if plan.reset_belief is not None:
                self.ids = np.full(len(self.ids), table.intern(plan.reset_belief))
            qids = plan.quantizer_ids
            symbols = classify(qids, xs[:, j])
            # the transition keys, the flat indices of [ids, qids, symbols]
            step = keys[:, j] = np.ravel_multi_index((self.ids, qids, symbols), table.succ.shape)
            try:
                self.ids = table.successors(step)
            except ZeroMassSymbolError as e:
                raise ZeroMassSymbolError(f"step t={t}: {e}") from e
            self.state = policy.advance(self.state, t, symbols)
        self._settle(t0, keys, u, settled, xs.shape[1])
        self._account(t0, xs, keys, u)

    def _settle(self, t0: int, keys, u, lo: int, hi: int) -> None:
        # read steps lo .. hi - 1 off the table before it drops them
        u[:, lo:hi] = self.table.recon.take(keys[:, lo:hi])
        self.log.transitions(slice(t0 + lo, t0 + hi), keys[0, lo:hi], self.table)

    def _account(self, t0: int, xs, keys, u) -> None:
        """Realized costs, totals, group counts and path 0's log columns
        of the block's steps."""
        values = self.model.real_values(xs)
        costed = values if self.cost.kind == "quadratic" else xs
        realized = self.cost.pointwise(costed, u)
        # a running sum along time adds each path's costs in step order
        self.total = np.cumsum(np.column_stack([self.total, realized]), axis=1)[:, -1]
        pairs = np.sort(keys // self.table.width, axis=0)
        self.groups += pairs.shape[1] + np.count_nonzero(np.diff(pairs, axis=0))
        steps = slice(t0, t0 + xs.shape[1])
        self.log.trajectory.x[steps] = values[0]
        self.log.trajectory.u[steps] = u[0]
        self.log.realized[steps] = realized[0]


def rollout(
    policy,
    model,
    cost: CostModel,
    horizon: int,
    n_paths: int,
    seed: int,
    initial_belief=None,
) -> RolloutResult:
    """Monte Carlo rollout of a policy against sampled source paths.

    Per path, the initial state is drawn from initial_belief (default:
    the model's own initial law), and each step classifies the true
    state, reconstructs from the belief, pays the realized cost, then
    filters. The trajectory log covers path 0 and stores the
    belief-feedback stage cost alongside the realized cost average.

    All paths advance in lockstep. Encoder and decoder hold the same
    belief: the next belief is a pure function of the belief, the
    quantizer and the symbol, all of which the decoder knows (for
    randomized policies the quantizer also depends on the shared
    per-step variate). So a path's belief is an id into a table of
    interned beliefs, and a step reads every path's next belief id from
    the table's (belief, quantizer, symbol) transitions, filling a
    missing one with one filter_update. The table decides a belief on
    first need: one cell_decisions call over the policy's quantizers
    gives its stage costs and reconstructions, bit for bit those of that
    call. The policy's Python work runs once per distinct belief or per
    step, never once per path. The source states, the reconstructions,
    the realized costs and the log are array operations over blocks of
    steps; each path's total adds its step costs in time order, as a
    per-path loop would.

    Seed streams: path p draws its source from
    SeedSequence(seed, spawn_key=(p, 0)) and its shared variates from
    spawn_key (p, 1), the streams of SeedSequence(seed).spawn(n_paths)[p]
    .spawn(2), so a path's results do not depend on the other paths. The
    streams are numpy's, bit for bit, but held in bulk: every path's
    PCG64 state is an entry of uint64 arrays (sources._PathStreams),
    seeded and advanced over all paths at once, not one SeedSequence and
    Generator per path. The initial states, a chain's steps and the
    shared variates are uniforms drawn from those arrays; only Gaussian
    steps go path by path, through the source's step_variates. seed is
    any non-negative integer; a negative one raises ValueError. The
    draws are taken in blocks of steps, which return the same numbers as
    one draw per step; the shared stream is built only for policies with
    shared_randomness.

    Memory: a step that finds _MEMO_CAP beliefs in the table first
    compacts it to the beliefs the paths hold, so the table never holds
    more than _MEMO_CAP beliefs plus those live at one step; a block
    holds at most _DRAW_BLOCK variates per stream (times the states of
    a chain for its scan), and its realized costs are taken in one pass,
    so their arrays are bounded by _DRAW_BLOCK too. One INFO log line
    reports deterministic counters: paths, steps, (belief, quantizer)
    groups stepped, decisions (the table's cell_decisions calls), filter
    calls, table clears and the most beliefs the table held. The tests
    rebuild the logged path with a decoder that sees only the symbols
    and the shared seed, and check it against the log bit for bit.

    As in the dynamic program, key() identifies a belief only within
    one grid or one set of state values, so the beliefs a rollout tracks
    (initial_belief and the policy's reset beliefs) must share one.
    A path whose state falls in a cell its belief gives no mass raises
    ZeroMassSymbolError naming the step t and the cell.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if initial_belief is None:
        initial_belief = model.initial_belief()
    _check_pair(initial_belief, model)

    log = _PathLog(horizon, initial_belief)
    paths = _Lockstep(policy, model, cost, initial_belief, n_paths, log)
    source = _PathStreams(seed, n_paths, 0)
    shared = _PathStreams(seed, n_paths, 1) if policy.shared_randomness else None
    block = max(1, _DRAW_BLOCK // (n_paths * model.scan_width))
    # the initial state takes each source stream's first variate
    x = initial_belief.inverse_cdf(source.random(out=np.empty((n_paths, 1)))[:, 0])
    for t0 in range(0, horizon, block):
        size = min(block, horizon - t0)
        v = model.step_variates(source, np.empty((n_paths, size)))
        xs = np.column_stack([x, model.state_paths(x, v)])
        shares = None
        if shared is not None:
            # uniform() is 0 + 1 times the generator's next random() variate
            shares = shared.random(out=np.empty((n_paths, size)))
        paths.run(t0, xs[:, :-1], shares)
        x = xs[:, -1]

    table = paths.table
    logger.info(
        "rollout: %(paths)d paths, %(steps)d steps, %(groups)d groups stepped, "
        "%(decisions)d decisions, %(filter_calls)d filter calls, %(clears)d memo clears, "
        "%(peak_beliefs)d beliefs at most",
        {
            "paths": n_paths,
            "steps": horizon,
            "groups": paths.groups,
            "decisions": table.decisions,
            "filter_calls": table.filter_calls,
            "clears": table.clears,
            "peak_beliefs": table.peak,
        },
    )
    path_costs = paths.total / horizon
    mean_cost = float(path_costs.mean())
    stderr = float(path_costs.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return RolloutResult(
        path_costs=path_costs,
        mean_cost=mean_cost,
        stderr=stderr,
        cesaro=np.cumsum(log.realized) / np.arange(1, horizon + 1),
        log=log.trajectory,
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
    candidates = CandidateSet.of(candidates)
    if not beliefs:
        raise ValueError("belief grid must be nonempty")
    G, K = len(beliefs), len(candidates)
    prob_matrix = np.stack([b.probabilities for b in beliefs])

    stage = np.zeros((G, K))
    masses = np.zeros((G, K, candidates.levels))
    succ = np.zeros((G, K, candidates.levels), dtype=int)
    for i, belief in enumerate(beliefs):
        stage[i], belief_masses, _ = cell_decisions(belief, candidates, cost)
        belief_masses = belief_masses.tolist()
        for k, quantizer in enumerate(candidates):
            for m, mass in enumerate(belief_masses[k][: quantizer.levels], start=1):
                if mass <= EPS_PRUNE:
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

    def bins(self, mean, std, probabilities) -> np.ndarray:
        """The bin of every belief given by its trajectory-log columns,
        as one integer array: its first probability times n_bins,
        truncated, with 1 in the last bin (mean and std are unused)."""
        if probabilities is None:
            raise ValueError("simplex binning needs a log of simplex beliefs")
        if probabilities.shape[1] != 2:
            raise ValueError("simplex binning supports 2-state chains")
        # p0 >= 0, so the cast truncates it down
        bins = (probabilities[:, 0] * self.n_bins).astype(np.int64)
        return np.minimum(bins, self.n_bins - 1)

    def representative(self, b: int, histogram: "OccupationHistogram", model) -> SimplexBelief:
        """The average logged belief of bin b."""
        total = histogram.belief_sums[b].sum()
        return SimplexBelief(histogram.belief_sums[b] / total, states=model.state_values)

    def to_json(self) -> dict:
        return {"type": "simplex", "n_bins": self.n_bins}


@dataclass(frozen=True)
class GridFeatureBinning:
    """Bins density beliefs by (mean, standard deviation).

    Means are binned over the grid's span and standard deviations over
    [0, half of it]. grid is also the grid the bins' representative
    beliefs live on; only its span is part of the binning's JSON
    description.
    """

    grid: Grid
    n_mean: int = 50
    n_std: int = 20

    @property
    def mean_lo(self) -> float:
        return self.grid.lo

    @property
    def mean_hi(self) -> float:
        return self.grid.hi

    @property
    def std_hi(self) -> float:
        return 0.5 * (self.grid.hi - self.grid.lo)

    @property
    def n_total(self) -> int:
        return self.n_mean * self.n_std

    def bins(self, mean, std, probabilities) -> np.ndarray:
        """The bin of every belief given by its trajectory-log columns,
        as one integer array: its mean's and its std's cells, each
        clipped to the binned range (probabilities is unused)."""
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ValueError("logged belief features must be finite")
        # a clip to [0, n - 1] then a cast equals a cast, which truncates
        # toward 0, then that clip
        span = self.mean_hi - self.mean_lo
        i = np.clip((mean - self.mean_lo) / span * self.n_mean, 0, self.n_mean - 1)
        j = np.clip(std / self.std_hi * self.n_std, 0, self.n_std - 1)
        return i.astype(np.int64) * self.n_std + j.astype(np.int64)

    def bin_center(self, bin_id: int):
        i, j = divmod(bin_id, self.n_std)
        mean = self.mean_lo + (i + 0.5) * (self.mean_hi - self.mean_lo) / self.n_mean
        std = (j + 0.5) * self.std_hi / self.n_std
        return mean, std

    def representative(self, b: int, histogram: "OccupationHistogram", model) -> GridBelief:
        """A normal density at bin b's center, on grid."""
        return GridBelief.normal(self.grid, *self.bin_center(b))

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
    probs = log.probabilities
    if probs is not None and not (
        np.all(probs >= 0.0) and np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
    ):
        raise ValueError("logged beliefs must be probability vectors")
    bins = binning.bins(log.belief_mean, log.belief_std, probs)
    counts = np.zeros((binning.n_total, int(log.quantizer_id.max()) + 1), dtype=np.int64)
    np.add.at(counts, (bins, log.quantizer_id), 1)
    belief_sums = None
    if probs is not None:
        belief_sums = np.zeros((binning.n_total, probs.shape[1]))
        np.add.at(belief_sums, bins, probs)
    return OccupationHistogram(
        binning=binning,
        counts=counts,
        steps=steps,
        mean_stage_cost=float(log.stage.mean()),
        belief_sums=belief_sums,
    )


def invariance_residual(histogram: OccupationHistogram, model, candidates) -> float:
    """Total variation defect of the histogram under the belief kernel.

    Pushes each occupied (bin, quantizer) cell forward through the
    filter (branch by branch, weighted by branch mass) and compares the
    resulting belief-bin distribution with the histogram's own
    belief-bin marginal. Near 0 for samples from an invariant regime.
    The binning gives each bin's representative belief: the per-bin
    average logged belief for simplex bins; grid-feature bins synthesize
    a normal density at the bin center on the binning's grid, which
    makes the check a diagnostic rather than an exact statement there.
    A bin's cell masses are rows of the whole set's cell_moments: a
    cell's moments do not depend on the other candidates of the set, so
    every bin reads the one CutWeights of the set.
    """
    candidates = CandidateSet.of(candidates)
    binning = histogram.binning
    counts = histogram.counts
    steps = histogram.steps
    marginal = counts.sum(axis=1) / steps
    pushed = np.zeros(binning.n_total)
    successors, weights = [], []
    for b in np.flatnonzero(counts.sum(axis=1)):
        rep = binning.representative(b, histogram, model)
        used = np.flatnonzero(counts[b])
        masses = rep.cell_moments(candidates)[0][0][used].tolist()
        for k, row in zip(used, masses):
            weight = counts[b, k] / steps
            quantizer = candidates[k]
            for m, mass in enumerate(row[: quantizer.levels], start=1):
                if mass <= EPS_MASS:
                    continue
                successors.append(filter_update(rep, model, quantizer, m))
                weights.append(weight * mass)
    # adds each weight in turn, in the order the loop found it
    np.add.at(pushed, _belief_bins(binning, successors), weights)
    return float(np.abs(marginal - pushed).sum())


def _belief_bins(binning, beliefs) -> np.ndarray:
    """The bin of every belief, from its trajectory-log columns
    (log_row: mean, std, then a simplex belief's probabilities)."""
    rows = np.array([belief.log_row() for belief in beliefs])
    return binning.bins(rows[:, 0], rows[:, 1], rows[:, 2:])
