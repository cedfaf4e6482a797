import numpy as np
import pytest

from conftest import random_chain
from zdq.beliefs import GridBelief, SimplexBelief, default_grid, filter_update
from zdq.costs import CostModel, cell_decisions
from zdq.dp import (
    NodeBudgetExceeded,
    bellman_residuals,
    exact_policy_value,
    greedy_policy_step,
    solve_finite_horizon,
)
from zdq.oracles import brute_force_finite
from zdq.quantizers import (
    FinitePartition,
    IntervalQuantizer,
    enumerate_finite_partitions,
    enumerate_interval_candidates,
)
from zdq.sources import FiniteChain, LinearGaussianSource

QUAD = CostModel.quadratic()


def uniform_belief(chain):
    n = chain.n_states
    return SimplexBelief(np.full(n, 1.0 / n), states=chain.state_values)


def test_two_state_one_bit_is_free(two_state_chain):
    # with as many cells as states the separating partition is exact
    cands = enumerate_finite_partitions(2, 2)
    res = solve_finite_horizon(
        uniform_belief(two_state_chain), two_state_chain, cands, QUAD, horizon=3
    )
    assert res.value < 1e-15


def test_three_state_matches_brute_force(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    init = uniform_belief(three_state_chain)
    res = solve_finite_horizon(init, three_state_chain, cands, QUAD, horizon=3)
    assert res.value > 1e-3
    oracle = brute_force_finite(
        init.probabilities, three_state_chain, 2, 3, QUAD
    )
    assert abs(res.value - oracle) < 1e-12


def test_tree_structure(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    init = uniform_belief(three_state_chain)
    tree = solve_finite_horizon(init, three_state_chain, cands, QUAD, horizon=2).tree
    root = tree.nodes[tree.root]
    assert root.t == 0
    probs = [p for p, _ in root.children.values()]
    assert abs(sum(probs) - 1.0) < 1e-12
    for _, child_id in root.children.values():
        child = tree.nodes[child_id]
        assert child.t == 1
        # child belief is the filter output for that symbol
        expected = filter_update(
            init, three_state_chain, root.quantizer, _symbol_of(root, child_id)
        )
        assert child.belief.key() == expected.key()


def _symbol_of(node, child_id):
    for symbol, (_, cid) in node.children.items():
        if cid == child_id:
            return symbol
    raise AssertionError("child not found")


def test_bellman_residuals_zero(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    tree = solve_finite_horizon(
        uniform_belief(three_state_chain), three_state_chain, cands, QUAD, horizon=3
    ).tree
    res = np.asarray(bellman_residuals(tree))
    assert res.size > 0
    assert res.max() < 1e-12


def test_tie_breaking_prefers_first_candidate(two_state_chain):
    sep = FinitePartition((1, 2), 2)
    relabeled = FinitePartition((1, 2), 2)
    res = solve_finite_horizon(
        uniform_belief(two_state_chain),
        two_state_chain,
        [sep, relabeled],
        QUAD,
        horizon=2,
    )
    assert res.tree.nodes[res.tree.root].quantizer_id == 0


def test_random_instances_match_oracle():
    rng = np.random.default_rng(8)
    for trial in range(6):
        n = int(rng.integers(2, 4))
        chain = random_chain(rng, n)
        horizon = int(rng.integers(1, 4))
        cands = enumerate_finite_partitions(n, 2)
        init = SimplexBelief(chain.initial.copy(), states=chain.state_values)
        res = solve_finite_horizon(init, chain, cands, QUAD, horizon)
        oracle = brute_force_finite(chain.initial, chain, 2, horizon, QUAD)
        assert abs(res.value - oracle) < 1e-12, trial


def test_node_budget(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    init = uniform_belief(three_state_chain)
    full = solve_finite_horizon(init, three_state_chain, cands, QUAD, horizon=3)
    with pytest.raises(NodeBudgetExceeded) as exc:
        solve_finite_horizon(
            init, three_state_chain, cands, QUAD, horizon=3, node_budget=4
        )
    err = exc.value
    assert err.budget == 4
    assert err.nodes_evaluated > 4
    # certified fallback bound is valid
    assert err.greedy_bound >= full.value - 1e-12


def test_memoization_reuses_repeated_beliefs():
    # iid rows: every one-step update lands on the same predicted belief
    # regardless of prior and symbol, so the exponential tree collapses
    # to one solved node per stage instead of 2^(T+1) - 1
    iid = FiniteChain(
        np.array([[0.7, 0.3], [0.7, 0.3]]),
        np.array([0.5, 0.5]),
        np.array([0.0, 1.0]),
    )
    cands = enumerate_finite_partitions(2, 2)
    init = SimplexBelief(np.array([0.5, 0.5]), states=iid.state_values)
    res = solve_finite_horizon(init, iid, cands, QUAD, horizon=6)
    assert res.tree.nodes_evaluated == 7


def test_greedy_policy_step(two_state_chain):
    b = SimplexBelief(np.array([0.5, 0.5]), states=np.array([0.0, 1.0]))
    cands = enumerate_finite_partitions(2, 2)
    best = greedy_policy_step(b, cands, QUAD)
    assert best.assignment == (1, 2)
    with pytest.raises(ValueError):
        greedy_policy_step(b, [], QUAD)


def test_exact_policy_value_blind_policy(two_state_chain):
    blind = FinitePartition((1, 1), 1)
    init = SimplexBelief(np.array([0.5, 0.5]), states=np.array([0.0, 1.0]))
    horizon = 3
    got = exact_policy_value(
        init, two_state_chain, QUAD, horizon, lambda t, b: blind
    )
    # single branch: average of the deterministic belief sequence costs
    expected = 0.0
    b = init
    for _ in range(horizon):
        expected += cell_decisions(b, [blind], QUAD)[0][0] / horizon
        b = filter_update(b, two_state_chain, blind, 1)
    assert abs(got - expected) < 1e-15


def test_exact_policy_value_matches_solver_at_optimum(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    init = uniform_belief(three_state_chain)
    res = solve_finite_horizon(init, three_state_chain, cands, QUAD, horizon=2)

    def follow(t, belief):
        return _tree_select(res.tree, t, belief)

    got = exact_policy_value(init, three_state_chain, QUAD, 2, follow)
    assert abs(got - res.value) < 1e-12


def _tree_select(tree, t, belief):
    key = belief.key()
    for node in tree.nodes:
        if node.t == t and node.belief.key() == key and node.quantizer is not None:
            return node.quantizer
    raise AssertionError("belief not on the solved tree")


def test_continuous_one_step(iid_source):
    grid = default_grid(iid_source, n_points=301)
    init = GridBelief.normal(grid, 0.0, 1.0)
    cands = enumerate_interval_candidates(2, -2.0, 2.0, 11)
    res = solve_finite_horizon(init, iid_source, cands, QUAD, horizon=1)
    best = cell_decisions(init, cands, QUAD)[0].min()
    assert abs(res.value - best) < 1e-12
    assert res.tree.nodes[res.tree.root].quantizer.thresholds == (0.0,)


def test_discarded_mass_is_tracked(iid_source):
    grid = default_grid(iid_source, n_points=301)
    init = GridBelief.normal(grid, 0.0, 1.0)
    # an extreme threshold leaves one cell with negligible mass
    cands = [IntervalQuantizer((grid.hi - 1e-9,))]
    res = solve_finite_horizon(init, iid_source, cands, QUAD, horizon=2)
    assert res.tree.max_discarded_mass < 1e-9
    masses = cell_decisions(init, cands, QUAD)[1][0]
    mass_kept = masses[masses > 1e-9].sum()
    assert mass_kept > 1.0 - 1e-6


def test_policy_tree_serialization(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    tree = solve_finite_horizon(
        uniform_belief(three_state_chain), three_state_chain, cands, QUAD, horizon=2
    ).tree
    doc = tree.to_json()
    assert doc["horizon"] == 2
    assert doc["nodes"][doc["root"]]["t"] == 0


@pytest.mark.parametrize("a, steps", [(0.5, 11), (0.9, 21)], ids=["design-ar1", "a0.9"])
def test_grid_error_falls_with_the_square_of_the_spacing(a, steps):
    # the grid's own error: T = 3 designs from the invariant belief on
    # 201, 401, 801 and 1,601 nodes over the same span, so the spacing
    # halves each time and each change of the value is a quarter of the
    # one before; the root keeps its quantizer at every n
    src = LinearGaussianSource(a, 1.0)
    cands = enumerate_interval_candidates(2, -2.0, 2.0, steps)
    values, roots = [], set()
    for n in (201, 401, 801, 1601):
        init = GridBelief.normal(default_grid(src, n_points=n), 0.0, src.stationary_std)
        tree = solve_finite_horizon(init, src, cands, CostModel.quadratic(), 3).tree
        values.append(tree.value)
        roots.add(tree.nodes[tree.root].quantizer_id)
    changes = np.diff(values)
    ratios = changes[:-1] / changes[1:]
    assert np.all((3.8 <= ratios) & (ratios <= 4.2)), ratios
    assert len(roots) == 1
