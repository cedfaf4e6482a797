"""Finite-horizon quantizer design by backward induction on beliefs.

The design problem is a fully observed control problem whose state is
the belief: each stage picks a quantizer from a candidate set, pays the
per-stage distortion (normalized by the horizon), and the belief moves
to the symbol-conditional posterior. The solver searches the
forward-reachable belief tree from the initial belief and computes

    J_T(belief) = 0
    J_t(belief) = min over candidates of
        c(belief, Q) / horizon
        + sum over symbols of branch_mass * J_{t+1}(posterior)

with branches of mass <= EPS_PRUNE skipped (they contribute 0 and their
mass is reported). Ties pick the first candidate in enumeration order.
Repeated beliefs are shared by exact byte equality of the belief vector;
no tolerance-based merging is done.

The search is an exact branch and bound. Every belief after the first
stage is a convex combination of prediction columns: the transition
rows of a chain, or the transition-kernel columns of a linear-Gaussian
source normalized to integral 1. For a fixed quantizer the stage cost is
a sum over cells of a minimum of linear functionals of the belief
(quadratic: the mass-weighted conditional variance, min over u of
m2 - 2 u m1 + u^2 m0; tabular: the least restricted column cost), so it
is concave, and so is its minimum over the candidates. Its least value
over the combinations therefore sits at a column, and that least value,
the floor (the source's stage_floor), bounds the stage cost of every
later stage from below (Smallwood & Sondik 1973 use the same concavity
for partially observed control). At a node at stage t < horizon - 1
the candidates are visited in stable order of stage cost, and the loop
stops at the first one with

    stage / horizon + (horizon - t - 1) * floor_share
        > best value so far + PRUNE_MARGIN * max(best value, 1)

because no later candidate can then reach the best value. floor_share is
floor / horizon times 1 - horizon * levels * EPS_PRUNE: a node drops at
most levels * EPS_PRUNE of its mass by the EPS_PRUNE branch rule, so at
least that share of the mass survives along every path. PRUNE_MARGIN
covers the rest: rounding in the floor (about 1e-16 relative), and the
EPS_MASS rule, which counts a cell of mass <= EPS_MASS as 0 and so may
lower a later stage cost below the concave bound by at most EPS_MASS
times the cell's conditional variance (EPS_MASS * diameter^2 / 4 of the
support, or the largest table entry) per cell; with EPS_MASS = 1e-12
that is covered up to levels * diameter^2 / 4 of about 10^6 times
max(best value, 1).
Pruned candidates could not have won, so the value of every node, and
the chosen quantizer under the tie rule, are those of the exhaustive
search bit for bit. At t = horizon - 1 the continuation is 0 and the
choice is the first argmin of the batched stage costs.

At t = horizon - 2 the children are last-stage nodes, whose value is
their least stage cost over horizon, and that cost is a minimum of
functions linear in the parent's restricted density (the alpha vectors
of Smallwood & Sondik). So the source's last_stage_costs gives the
least stage cost L'(k, m) of every kept child, of mass p(k, m) >
EPS_PRUNE, from one product, without building it, and with the exact
stage s(k)

    A(k) = s(k) + sum over kept m of p(k, m) L'(k, m)

is horizon times candidate k's value up to the error of L'. The
stage-order loop above searches the candidate of least stage exactly,
as before. Of the other candidates, those the floor bound cannot rule
out against its value v are costed in one product, and the loop, with
its floor bound and tie rule unchanged, visits of them only those with

    A(k) <= min(horizon * v + slack / 2, min over them of A + slack),
    slack = max(PRUNE_MARGIN * max(1, M2), 2 E),

and searches their children exactly. M2 is the largest E[x^2] of a kept
child costed, and E the source's bound on |L'(k, m) - L(k, m)|, with L
the least stage cost of the child built by filter_update. Where the
floor bound already rules out every other candidate, nothing is costed.

Half the slack is at least E, which bounds |A(k) - horizon * value(k)|
(the masses sum to at most 1), and v is a value some candidate reaches,
so every candidate left out has a value above the least one, never
equal to it, and the node's value and choice stay bit for bit. E sums
two terms over a child's <= levels cells:
  - rounding: the product's cumulative moments about 0 come from two
    sums of n terms each (n grid nodes), whose magnitudes add up to at
    most 1, sqrt(M2) and M2 for orders 0, 1, 2 (order 1 by
    Cauchy-Schwarz), so each is off by at most e = 2 n u (u = 2^-53) in
    those units. The filter rounds less, and so do the built child's
    cell moments: GridBelief.cell_moments takes each as the difference
    of two sums of at most n terms about the child's mean, and
    tests/test_moments.py measures their order-k error below
    16 u (std + spacing)^k against sums in extended precision, where e
    is 2 n u. A cell's term m2 - m1^2 / m0 of mean mu is then off by at
    most about 2 e (sqrt(M2) + |mu|)^2 <= 8 e X^2, X the largest |grid
    node|, because M2 <= X^2;
  - EPS_MASS: a cell counts only above mass EPS_MASS; where the product
    and the child's cell moments disagree on it, its mass is within e
    of EPS_MASS and its term is at most its raw second moment,
    (EPS_MASS + e) X^2.
So E = levels (9 e + EPS_MASS) X^2, about 2.6e-12 levels X^2 on an
801-node grid, and the margin term sets the slack while levels X^2
stays below about 1.9e5 max(1, M2). On a default grid (8 stationary
stds) every child's E[x^2] is at least noise_std^2, so X^2 / M2 <=
64 / (1 - a^2): for two levels the margin term covers 2 E up to
a = 0.9996. Wider or finer grids, or a closer to 1, can take 2 E.
Measured on the a = 0.5, 0.9 and 0.99 default grids, |L' - L| stayed
below 2e-15 max(1, M2). A source or cost without the product
(last_stage_costs returns None: a chain, or a tabular cost) takes the
stage-order loop over every candidate.

The search keeps the branches of every node it expands. The returned
tree holds only the subtree the chosen policy reaches, and leaf beliefs
are built for that subtree alone. nodes_evaluated counts every expanded
node, leaves included, and expansions_by_stage splits that count by
stage t = 0 .. horizon. candidates_pruned counts the candidates whose
children were not searched: those the floor bound skipped and those the
last-stage product left out.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .beliefs import _check_pair, filter_update
from .costs import CostModel, cell_decisions
from .quantizers import CandidateSet

__all__ = [
    "PolicyNode",
    "PolicyTree",
    "DPResult",
    "NodeBudgetExceeded",
    "solve_finite_horizon",
    "greedy_policy_step",
    "exact_policy_value",
    "bellman_residuals",
]

DEFAULT_NODE_BUDGET = 2_000_000
EPS_PRUNE = 1e-9
PRUNE_MARGIN = 1e-6


class NodeBudgetExceeded(RuntimeError):
    """The reachable belief tree outgrew the configured node budget.

    greedy_bound is an upper bound on the optimal value obtained by
    evaluating the stage-greedy policy exactly, so callers still get a
    certified number.
    """

    def __init__(self, nodes_evaluated: int, budget: int, greedy_bound: float):
        super().__init__(
            f"node budget exceeded: {nodes_evaluated} > {budget}; "
            f"greedy upper bound {greedy_bound:.6g}"
        )
        self.nodes_evaluated = nodes_evaluated
        self.budget = budget
        self.greedy_bound = greedy_bound


@dataclass
class PolicyNode:
    """One belief node of the solved policy tree."""

    node_id: int
    t: int
    belief: object
    quantizer_id: int | None
    quantizer: object | None
    value: float
    stage: float
    children: dict = field(default_factory=dict)  # symbol -> (probability, node_id)


@dataclass
class PolicyTree:
    """Solved design: quantizer choice at every reachable belief."""

    horizon: int
    nodes: list
    root: int = 0
    max_discarded_mass: float = 0.0
    nodes_evaluated: int = 0
    candidates_pruned: int = 0
    expansions_by_stage: list = field(default_factory=list)

    @property
    def value(self) -> float:
        return self.nodes[self.root].value

    def to_json(self) -> dict:
        out_nodes = []
        for node in self.nodes:
            out_nodes.append(
                {
                    "id": node.node_id,
                    "t": node.t,
                    "value": node.value,
                    "stage_cost": node.stage,
                    "quantizer_id": node.quantizer_id,
                    "quantizer": None
                    if node.quantizer is None
                    else node.quantizer.to_json(),
                    "children": {
                        str(m): {"probability": p, "node": cid}
                        for m, (p, cid) in sorted(node.children.items())
                    },
                    "belief": node.belief.to_json(),
                }
            )
        return {
            "horizon": self.horizon,
            "root": self.root,
            "value": self.value,
            "max_discarded_mass": self.max_discarded_mass,
            "nodes_evaluated": self.nodes_evaluated,
            "nodes": out_nodes,
        }


@dataclass(frozen=True)
class DPResult:
    value: float
    tree: PolicyTree


def solve_finite_horizon(
    initial_belief,
    model,
    candidates,
    cost: CostModel,
    horizon: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DPResult:
    """Optimal expected average distortion over the horizon, with its policy.

    candidates is the ordered quantizer set searched at every belief
    node, a CandidateSet or any sequence of quantizers. The search
    prunes candidates by the stage-cost floor and, at t = horizon - 2,
    by the last-stage product (module docstring). The returned tree
    holds the beliefs the chosen policy reaches, with the chosen
    quantizer, node value, stage cost and symbol branches (with
    probabilities) at each; values satisfy the recursion in the module
    docstring to floating-point accuracy. nodes_evaluated counts every
    belief node the search expanded, and expansions_by_stage splits it
    by stage.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    candidates = CandidateSet.of(candidates)
    _check_pair(initial_belief, model)

    if horizon > 1:
        # every later stage pays at least the floor on the mass that no
        # EPS_PRUNE drop removed; a node drops at most levels * EPS_PRUNE
        surviving = max(0.0, 1.0 - horizon * candidates.levels * EPS_PRUNE)
        stage_floor = model.stage_floor(initial_belief, candidates, cost) * surviving / horizon
    searched: list[PolicyNode] = []
    memo: dict = {}
    state = {"evals": 0, "pruned": 0}
    by_stage = [0] * (horizon + 1)

    def expand(t: int) -> None:
        state["evals"] += 1
        by_stage[t] += 1
        if state["evals"] > node_budget:
            bound = exact_policy_value(
                initial_belief,
                model,
                cost,
                horizon,
                lambda t, b: greedy_policy_step(b, candidates, cost),
            )
            raise NodeBudgetExceeded(state["evals"], node_budget, bound)

    def ruled_out(stage: float, future: float, best: float) -> bool:
        # the floor bound (module docstring)
        return stage / horizon + future > best + PRUNE_MARGIN * max(best, 1.0)

    def branch(belief, k: int, mass_row: list, t: int):
        # continuation value and children of candidate k at a node at t
        quantizer = candidates[k]
        continuation = 0.0
        children = {}
        for m, mass in enumerate(mass_row[: quantizer.levels], start=1):
            if mass <= EPS_PRUNE:
                continue
            child_id = search(filter_update(belief, model, quantizer, m), t + 1)
            children[m] = (mass, child_id)
            continuation += mass * searched[child_id].value
        return continuation, children

    def contenders(belief, stages, masses, rest: list, future: float, best: float) -> list:
        # rest (stage order) without the candidates whose last-stage
        # product value cannot reach best (module docstring); those the
        # floor bound rules out against best are left for the loop
        head = list(itertools.takewhile(lambda k: not ruled_out(stages[k], future, best), rest))
        if not head:
            return rest
        costed = np.zeros_like(masses, dtype=bool)
        costed[head] = masses[head] > EPS_PRUNE
        product = model.last_stage_costs(belief, candidates, cost, costed)
        if product is None:
            return rest
        least, scale, error = product
        approx = stages[head] + (masses[head] * least[head]).sum(axis=1)
        slack = max(PRUNE_MARGIN * max(1.0, scale), 2.0 * error)
        cut = min(horizon * best + 0.5 * slack, approx.min() + slack)
        kept = [k for k, a in zip(head, approx.tolist()) if a <= cut]
        state["pruned"] += len(head) - len(kept)
        return kept + rest[len(head) :]

    def search(belief, t: int) -> int:
        # nodes at t < horizon; leaves are built on the policy path only
        key = (t, belief.key())
        hit = memo.get(key)
        if hit is not None:
            return hit
        expand(t)
        node = PolicyNode(len(searched), t, belief, None, None, 0.0, 0.0)
        searched.append(node)
        memo[key] = node.node_id
        stages, masses, _ = cell_decisions(belief, candidates, cost)
        if t + 1 == horizon:
            # leaves have value 0, so the value is the stage share alone
            values = stages / horizon
            qid = int(np.argmin(values))
            node.value = float(values[qid])
            node.children = {
                m: (mass, None)
                for m, mass in enumerate(masses[qid][: candidates[qid].levels].tolist(), 1)
                if mass > EPS_PRUNE
            }
        else:
            future = (horizon - t - 1) * stage_floor
            stages_list, masses_list = stages.tolist(), masses.tolist()
            order = sorted(range(len(candidates)), key=stages_list.__getitem__)
            qid, rest = order[0], order[1:]
            continuation, node.children = branch(belief, qid, masses_list[qid], t)
            node.value = stages_list[qid] / horizon + continuation
            if t + 2 == horizon:
                rest = contenders(belief, stages, masses, rest, future, node.value)
            for rank, k in enumerate(rest):
                stage = stages_list[k]
                if ruled_out(stage, future, node.value):
                    state["pruned"] += len(rest) - rank
                    break
                continuation, children = branch(belief, k, masses_list[k], t)
                value = stage / horizon + continuation
                # first in enumeration order among equal values
                if value < node.value or (value == node.value and k < qid):
                    qid, node.value, node.children = k, value, children
        node.quantizer_id = qid
        node.quantizer = candidates[qid]
        node.stage = float(stages[qid])
        return node.node_id

    nodes: list[PolicyNode] = []
    emitted: dict = {}

    def emit(node: PolicyNode) -> int:
        # copy the policy subtree of the search into nodes, sharing
        # repeated beliefs the way the search did
        key = (node.t, node.belief.key())
        hit = emitted.get(key)
        if hit is not None:
            return hit
        out = replace(node, node_id=len(nodes), children={})
        nodes.append(out)
        emitted[key] = out.node_id
        for m, (mass, child_id) in node.children.items():
            if child_id is None:
                leaf = filter_update(node.belief, model, node.quantizer, m)
                child = emitted.get((horizon, leaf.key()))
                if child is None:
                    expand(horizon)
                    child = len(nodes)
                    nodes.append(PolicyNode(child, horizon, leaf, None, None, 0.0, 0.0))
                    emitted[(horizon, leaf.key())] = child
            else:
                child = emit(searched[child_id])
            out.children[m] = (mass, child)
        return out.node_id

    root = emit(searched[search(initial_belief, 0)])

    discarded = 0.0
    for node in nodes:
        if node.t < horizon:
            kept = sum(p for p, _ in node.children.values())
            discarded = max(discarded, 1.0 - kept)
    tree = PolicyTree(
        horizon=horizon,
        nodes=nodes,
        root=root,
        max_discarded_mass=discarded,
        nodes_evaluated=state["evals"],
        candidates_pruned=state["pruned"],
        expansions_by_stage=by_stage,
    )
    return DPResult(value=tree.value, tree=tree)


def greedy_policy_step(belief, candidates, cost: CostModel):
    """Quantizer minimizing the immediate stage cost (first on ties):
    the first np.argmin of cell_decisions' stages."""
    return candidates[int(np.argmin(cell_decisions(belief, candidates, cost)[0]))]


def exact_policy_value(
    initial_belief,
    model,
    cost: CostModel,
    horizon: int,
    select,
) -> float:
    """Exact expected average distortion of a given belief-feedback policy.

    select(t, belief) returns the quantizer to apply; the value is
    computed by the same branch recursion the solver uses, so it is
    directly comparable with solver values.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _check_pair(initial_belief, model)

    def walk(belief, t: int) -> float:
        if t == horizon:
            return 0.0
        quantizer = select(t, belief)
        stages, masses, _ = cell_decisions(belief, CandidateSet((quantizer,)), cost)
        value = float(stages[0]) / horizon
        for m, mass in enumerate(masses[0].tolist(), start=1):
            if mass <= EPS_PRUNE:
                continue
            value += mass * walk(filter_update(belief, model, quantizer, m), t + 1)
        return value

    return walk(initial_belief, 0)


def bellman_residuals(tree: PolicyTree) -> np.ndarray:
    """Per-node defect of the backward recursion; ~1e-16 on a sound tree."""
    res = []
    for node in tree.nodes:
        if node.t == tree.horizon:
            res.append(abs(node.value))
            continue
        rhs = node.stage / tree.horizon
        for m, (p, cid) in node.children.items():
            rhs += p * tree.nodes[cid].value
        res.append(abs(node.value - rhs))
    return np.asarray(res)
