"""The exhaustive finite-horizon solver, kept as the reference for the DP.

It expands every candidate at every reachable belief and returns the
whole tree, the way zdq.dp.solve_finite_horizon worked before it pruned
candidates with its stage-cost floor. Ties pick the first candidate in
enumeration order. The branch-and-bound solver must reproduce its node
values bit for bit and its choices on every policy path.
"""
from zdq.beliefs import filter_update
from zdq.costs import cell_decisions
from zdq.dp import EPS_PRUNE, PolicyNode, PolicyTree


def exhaustive_solve(initial_belief, model, candidates, cost, horizon,
                     eps_prune=EPS_PRUNE):
    """The whole reachable tree, every candidate expanded at every belief."""
    candidates = list(candidates)
    nodes = []
    memo = {}

    def solve(belief, t):
        key = (t, belief.key())
        if key in memo:
            return memo[key]
        node = PolicyNode(len(nodes), t, belief, None, None, 0.0, 0.0)
        nodes.append(node)
        memo[key] = node.node_id
        if t == horizon:
            return node.node_id
        terminal_next = t + 1 == horizon
        best_value = best = None
        stages, masses, _ = cell_decisions(belief, candidates, cost)
        stages, masses = list(stages), [list(row) for row in masses]
        for qid, quantizer in enumerate(candidates):
            stage = float(stages[qid])
            continuation = 0.0
            children = {}
            for m, mass in enumerate(masses[qid][: quantizer.levels], start=1):
                mass = float(mass)
                if mass <= eps_prune:
                    continue
                if terminal_next:
                    # leaves have value 0: only the winner's are built
                    children[m] = (mass, None)
                    continue
                child_id = solve(filter_update(belief, model, quantizer, m), t + 1)
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
        node.quantizer_id, node.quantizer, node.stage, node.children = (
            qid, quantizer, stage, children)
        node.value = best_value
        return node.node_id

    root = solve(initial_belief, 0)
    return PolicyTree(horizon=horizon, nodes=nodes, root=root, nodes_evaluated=len(nodes))
