"""Finite-horizon quantizer design by backward induction on beliefs.

The design problem is a fully observed control problem whose state is
the belief: each stage picks a quantizer from a candidate set, pays the
per-stage distortion (normalized by the horizon), and the belief moves
to the symbol-conditional posterior. The solver expands the
forward-reachable belief tree from the initial belief and computes

    J_T(belief) = 0
    J_t(belief) = min over candidates of
        stage_cost(belief, Q) / horizon
        + sum over symbols of branch_mass * J_{t+1}(posterior)

with branches of mass <= eps_prune skipped (they contribute 0 and their
mass is reported). Ties pick the first candidate in enumeration order.
Repeated beliefs are shared by exact byte equality of the belief vector;
no tolerance-based merging is done.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beliefs import filter_update
from .costs import CostModel, _stage_costs_and_masses, stage_cost, stage_costs
from .quantizers import cell_masses

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
DEFAULT_EPS_PRUNE = 1e-9


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

    @property
    def value(self) -> float:
        return self.nodes[self.root].value

    def to_json(self, include_belief_values: bool = False) -> dict:
        from .beliefs import GridBelief, SimplexBelief

        out_nodes = []
        for node in self.nodes:
            belief = node.belief
            if isinstance(belief, SimplexBelief):
                bdesc = {
                    "type": "simplex",
                    "probabilities": belief.probabilities.tolist(),
                    "states": belief.states.tolist(),
                }
            elif isinstance(belief, GridBelief):
                bdesc = {
                    "type": "grid",
                    "mean": belief.mean,
                    "std": belief.std,
                    "n_points": belief.grid.n_points,
                }
                if include_belief_values:
                    bdesc["values"] = belief.values.tolist()
            else:
                bdesc = {"type": type(belief).__name__}
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
                    "belief": bdesc,
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

    def to_csv(self, path) -> None:
        lines = ["t,node,quantizer,value"]
        for node in self.nodes:
            desc = "" if node.quantizer is None else node.quantizer.describe()
            lines.append(f"{node.t},{node.node_id},{desc},{node.value!r}")
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)


@dataclass(frozen=True)
class DPResult:
    value: float
    tree: PolicyTree


class _BudgetSentinel(Exception):
    def __init__(self, nodes_evaluated: int):
        self.nodes_evaluated = nodes_evaluated


def _require_density_model(model) -> None:
    require = getattr(model, "require_noise", None)
    if require is not None:
        require()


def solve_finite_horizon(
    initial_belief,
    model,
    candidates,
    cost: CostModel,
    horizon: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    eps_prune: float = DEFAULT_EPS_PRUNE,
) -> DPResult:
    """Optimal expected average distortion over the horizon, with its policy.

    candidates is the ordered quantizer set searched at every belief
    node. The returned tree records the chosen quantizer, node value,
    stage cost, and symbol branches (with probabilities) at every
    reachable belief; values satisfy the recursion in the module
    docstring to floating-point accuracy.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    _require_density_model(model)

    nodes: list[PolicyNode] = []
    memo: dict = {}
    state = {"evals": 0}

    def solve(belief, t: int) -> int:
        key = (t, belief.key())
        hit = memo.get(key)
        if hit is not None:
            return hit
        state["evals"] += 1
        if state["evals"] > node_budget:
            raise _BudgetSentinel(state["evals"])
        node_id = len(nodes)
        node = PolicyNode(node_id, t, belief, None, None, 0.0, 0.0)
        nodes.append(node)
        memo[key] = node_id
        if t == horizon:
            return node_id
        terminal_next = t + 1 == horizon
        best_value = None
        best = None
        stages, masses = _stage_costs_and_masses(belief, candidates, cost)
        stages, masses = stages.tolist(), masses.tolist()
        for qid, quantizer in enumerate(candidates):
            stage = stages[qid]
            continuation = 0.0
            children = {}
            for m, mass in enumerate(masses[qid][: quantizer.levels], start=1):
                if mass <= eps_prune:
                    continue
                if terminal_next:
                    # leaves have value 0; defer materializing them until
                    # the winning candidate is known
                    children[m] = (mass, None)
                else:
                    child_id = solve(
                        filter_update(belief, model, quantizer, m), t + 1
                    )
                    children[m] = (mass, child_id)
                    continuation += mass * nodes[child_id].value
            value = stage / horizon + continuation
            if best_value is None or value < best_value:
                best_value = value
                best = (qid, quantizer, stage, children)
        qid, quantizer, stage, children = best
        if terminal_next:
            children = {
                m: (mass, solve(filter_update(belief, model, quantizer, m), t + 1))
                for m, (mass, _) in children.items()
            }
        node.quantizer_id = qid
        node.quantizer = quantizer
        node.value = best_value
        node.stage = stage
        node.children = children
        return node_id

    try:
        root = solve(initial_belief, 0)
    except _BudgetSentinel as exc:
        bound = exact_policy_value(
            initial_belief,
            model,
            cost,
            horizon,
            lambda t, b: greedy_policy_step(b, candidates, cost),
            eps_prune=eps_prune,
        )
        raise NodeBudgetExceeded(exc.nodes_evaluated, node_budget, bound) from None

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
    )
    return DPResult(value=tree.value, tree=tree)


def greedy_policy_step(belief, candidates, cost: CostModel):
    """Quantizer minimizing the immediate stage cost (first on ties)."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    return candidates[int(np.argmin(stage_costs(belief, candidates, cost)))]


def exact_policy_value(
    initial_belief,
    model,
    cost: CostModel,
    horizon: int,
    select,
    eps_prune: float = DEFAULT_EPS_PRUNE,
) -> float:
    """Exact expected average distortion of a given belief-feedback policy.

    select(t, belief) returns the quantizer to apply; the value is
    computed by the same branch recursion the solver uses, so it is
    directly comparable with solver values.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _require_density_model(model)

    def walk(belief, t: int) -> float:
        if t == horizon:
            return 0.0
        quantizer = select(t, belief)
        value = stage_cost(belief, quantizer, cost) / horizon
        for m, mass in enumerate(cell_masses(belief, [quantizer])[0].tolist(), start=1):
            if mass <= eps_prune:
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
