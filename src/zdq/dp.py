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

Mirror twins. When the source's transition law commutes with x -> -x
(model.mirror_symmetric: a zero-mean AR(1) source) and the candidate
set is closed under it (CandidateSet.mirror, the map k -> k̄), a
belief's mirror image on a grid [-c, c] has the mirror image of every
quantity the search reads, bit for bit: filter_update and cell_decisions
read the canonical orientation (beliefs.py, costs.py). So only beliefs
in their canonical orientation are searched, and the memo holds them
by their bytes; a belief whose mirror image is canonical is the twin of
that image's node. A twin is built without a push or a decision: each
candidate k its searched node visited is valued again as k̄, from the
mirrored masses and the twins of the children, summed in the twin's
own cell order, and the tie rule picks the first of the least values in
the twin's own ids. With two cells the sum is the node's own, so the
twin takes its value bit for bit; at the last stage every candidate
tied with the choice is kept for it. No bound drops a tied candidate
(the floor bound and the last-stage product prune only above the least
value), so the candidates the search visited hold every one that can
win at the twin. At a node that is its own mirror image the children of
mirror cells are twins, and cell_decisions gives mirror candidates the
same stage bit for bit, so their ties are the tie rule's to decide. A
node filters each cell once, and the policy path's twins take their
beliefs, and their leaves where the mirror leaf is built, by reversing.

The search keeps the branches of every node it expands. The returned
tree holds only the subtree the chosen policy reaches, and leaf beliefs
are built for that subtree alone. nodes_evaluated counts every expanded
node, leaves included, and expansions_by_stage splits that count by
stage t = 0 .. horizon. candidates_pruned counts the candidates whose
children were not searched: those the floor bound skipped and those the
last-stage product left out. The tree's counters split the work
deterministically: expansions_by_stage, pruned_by_floor and
pruned_by_product (which sum to candidates_pruned), mirror_twins (nodes
built as twins), memo_hits (children found without a search: in the
memo, or filtered already at their node), filter_calls (filter_update
calls of the search and of the policy path's leaves) and
branches_dropped (cells of mass at most EPS_PRUNE skipped).
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
    counters: dict = field(default_factory=dict)

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
    # twins: a source and a set that commute with x -> -x (module docstring)
    mirror = candidates.mirror if model.mirror_symmetric else None
    searched: list[PolicyNode] = []
    memo: dict = {}
    twins: dict = {}  # searched node id -> its mirror image's, both ways
    options: dict = {}  # searched node id -> [(k, stage, children)] a twin replays
    counts = dict.fromkeys(
        ("pruned_by_floor", "pruned_by_product", "mirror_twins", "memo_hits",
         "filter_calls", "branches_dropped"), 0)
    by_stage = [0] * (horizon + 1)

    def expand(t: int) -> None:
        by_stage[t] += 1
        evals = sum(by_stage)
        if evals > node_budget:
            bound = exact_policy_value(
                initial_belief,
                model,
                cost,
                horizon,
                lambda t, b: greedy_policy_step(b, candidates, cost),
            )
            raise NodeBudgetExceeded(evals, node_budget, bound)

    def filtered(belief, quantizer, m: int):
        counts["filter_calls"] += 1
        return filter_update(belief, model, quantizer, m)

    def ruled_out(stage: float, future: float, best: float) -> bool:
        # the floor bound (module docstring)
        return stage / horizon + future > best + PRUNE_MARGIN * max(best, 1.0)

    def leaf_branches(masses, k: int) -> dict:
        # the branches of candidate k at a t = horizon - 1 node: leaves
        return {m: (mass, None) for m, mass in enumerate(masses[k][: candidates[k].levels].tolist(), 1)
                if mass > EPS_PRUNE}

    def child(belief, quantizer, m: int, t: int, cells: dict) -> int:
        # the child of cell m at a node at t. Under a mirror map, cells
        # maps the node's cells filtered so far to their children: a cell
        # shared by candidates is filtered once, and at a node that is its
        # own mirror image the mirror cell's child is the twin of the cell's
        if mirror is not None:
            lo, hi = cell = quantizer.cell_interval(m)
            child_id = cells.get(cell)
            if child_id is None and belief.orientation == 0 and (-hi, -lo) in cells:
                child_id = cells[cell] = twin(cells[(-hi, -lo)])
            if child_id is not None:
                counts["memo_hits"] += 1
                return child_id
        child_id = search(filtered(belief, quantizer, m), t + 1)
        if mirror is not None:
            cells[cell] = child_id
        return child_id

    def branch(belief, k: int, mass_row: list, t: int, cells: dict):
        # continuation value and children of candidate k at a node at t
        quantizer = candidates[k]
        continuation = 0.0
        children = {}
        for m, mass in enumerate(mass_row[: quantizer.levels], start=1):
            if mass <= EPS_PRUNE:
                counts["branches_dropped"] += 1
                continue
            child_id = child(belief, quantizer, m, t, cells)
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
        counts["pruned_by_product"] += len(head) - len(kept)
        return kept + rest[len(head) :]

    def search(belief, t: int) -> int:
        # nodes at t < horizon; leaves are built on the policy path only.
        # Only canonical beliefs are searched: a belief whose mirror
        # image is canonical is the twin of its mirror image's node
        if mirror is not None and belief.orientation > 0:
            return twin(search(belief.mirror(), t))
        key = (t, belief.key())
        hit = memo.get(key)
        if hit is not None:
            counts["memo_hits"] += 1
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
            node.children = leaf_branches(masses, qid)
            counts["branches_dropped"] += candidates[qid].levels - len(node.children)
            if mirror is not None:
                # every candidate tied with the choice, for a twin's tie rule
                visited = [(k, float(stages[k]), leaf_branches(masses, k))
                           for k in np.flatnonzero(values == values[qid]).tolist()]
        else:
            future = (horizon - t - 1) * stage_floor
            stages_list, masses_list = stages.tolist(), masses.tolist()
            order = sorted(range(len(candidates)), key=stages_list.__getitem__)
            qid, rest = order[0], order[1:]
            cells: dict = {}
            continuation, node.children = branch(belief, qid, masses_list[qid], t, cells)
            node.value = stages_list[qid] / horizon + continuation
            visited = [(qid, stages_list[qid], node.children)]
            if t + 2 == horizon:
                rest = contenders(belief, stages, masses, rest, future, node.value)
            for rank, k in enumerate(rest):
                stage = stages_list[k]
                if ruled_out(stage, future, node.value):
                    counts["pruned_by_floor"] += len(rest) - rank
                    break
                continuation, children = branch(belief, k, masses_list[k], t, cells)
                visited.append((k, stage, children))
                value = stage / horizon + continuation
                # first in enumeration order among equal values
                if value < node.value or (value == node.value and k < qid):
                    qid, node.value, node.children = k, value, children
        if mirror is not None:
            options[node.node_id] = visited
        node.quantizer_id = qid
        node.quantizer = candidates[qid]
        node.stage = float(stages[qid])
        return node.node_id

    def twin(node_id: int) -> int:
        # the node of the searched node's mirror image, built without a
        # search: every candidate the search visited is valued again, as
        # its mirror image, in the twin's own cells, ids and tie rule
        got = twins.get(node_id)
        if got is not None:
            return got
        node = searched[node_id]
        if node.belief.orientation == 0:
            return node_id  # its own mirror image
        out = PolicyNode(len(searched), node.t, None, None, None, 0.0, 0.0)
        searched.append(out)
        twins[node_id], twins[out.node_id] = out.node_id, node_id
        counts["mirror_twins"] += 1
        best = None
        for k, stage, children in options[node_id]:
            j = int(mirror.ids[k])
            levels = candidates[j].levels
            continuation = 0.0
            images = {}
            for m in range(1, levels + 1):
                if levels + 1 - m not in children:
                    continue
                mass, child_id = children[levels + 1 - m]
                if child_id is not None:
                    child_id = twin(child_id)
                    continuation += mass * searched[child_id].value
                images[m] = (mass, child_id)
            value = stage / horizon + continuation
            if best is None or value < best[0] or (value == best[0] and j < best[1]):
                best = (value, j, stage, images)
        out.value, out.quantizer_id, out.stage, out.children = best
        out.quantizer = candidates[out.quantizer_id]
        return out.node_id

    nodes: list[PolicyNode] = []
    emitted: dict = {}
    leaves: dict = {}  # (searched node id, cell) -> the leaf filtered through it

    def leaf(node: PolicyNode, m: int):
        # a policy-path leaf; under a mirror map, the mirror image of its
        # twin's leaf, or of the mirror cell's at a node that is its own
        # mirror image, when that one is built
        if mirror is None:
            return filtered(node.belief, node.quantizer, m)
        lo, hi = cell = node.quantizer.cell_interval(m)
        got = leaves.get((node.node_id, cell))
        if got is None:
            image = leaves.get((twins.get(node.node_id), (-hi, -lo)))
            if image is None and node.belief.orientation == 0:
                image = leaves.get((node.node_id, (-hi, -lo)))
            got = filtered(node.belief, node.quantizer, m) if image is None else image.mirror()
            leaves[(node.node_id, cell)] = got
        return got

    def emit(node: PolicyNode) -> int:
        # copy the policy subtree of the search into nodes, sharing
        # repeated beliefs the way the search did; a twin's belief is the
        # mirror image of its searched node's
        if node.belief is None:
            node.belief = searched[twins[node.node_id]].belief.mirror()
        key = (node.t, node.belief.key())
        hit = emitted.get(key)
        if hit is not None:
            return hit
        out = replace(node, node_id=len(nodes), children={})
        nodes.append(out)
        emitted[key] = out.node_id
        for m, (mass, child_id) in node.children.items():
            if child_id is None:
                belief = leaf(node, m)
                child = emitted.get((horizon, belief.key()))
                if child is None:
                    expand(horizon)
                    child = len(nodes)
                    nodes.append(PolicyNode(child, horizon, belief, None, None, 0.0, 0.0))
                    emitted[(horizon, belief.key())] = child
            else:
                child = emit(searched[child_id])
            out.children[m] = (mass, child)
        return out.node_id

    root = emit(searched[search(initial_belief, 0)])

    discarded = 0.0
    for node in nodes:
        if node.t < horizon:
            kept_mass = sum(p for p, _ in node.children.values())
            discarded = max(discarded, 1.0 - kept_mass)
    tree = PolicyTree(
        horizon=horizon,
        nodes=nodes,
        root=root,
        max_discarded_mass=discarded,
        nodes_evaluated=sum(by_stage),
        candidates_pruned=counts["pruned_by_floor"] + counts["pruned_by_product"],
        expansions_by_stage=by_stage,
        counters={"expansions_by_stage": list(by_stage), **counts},
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
