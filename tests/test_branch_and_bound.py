"""The branch-and-bound DP against the exhaustive reference, and its floor.

solve_finite_horizon prunes a candidate once its stage cost plus the
stage-cost floor for every later stage exceeds the best value found.
It must return what the exhaustive search (tests/reference_dp.py)
returns, bit for bit: the same value at every emitted node and the same
quantizer on every policy path. The floor rests on concavity of the
stage cost in the belief, which the property tests check directly.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_chain
from reference_dp import exhaustive_solve
from zdq import sources
from zdq.beliefs import (
    EPS_MASS,
    Grid,
    GridBelief,
    SimplexBelief,
    _cut_weights,
    default_grid,
    filter_update,
)
from zdq.config import validate_config
from zdq.costs import CostModel, cell_decisions
from zdq.dp import bellman_residuals, exact_policy_value, solve_finite_horizon
from zdq.infinite import FixedQuantizerPolicy, rollout
from zdq.quantizers import (
    CandidateSet,
    FinitePartition,
    IntervalQuantizer,
    enumerate_finite_partitions,
    enumerate_interval_candidates,
)
from zdq.sources import FiniteChain, LinearGaussianSource, _kernel_cut_moments, _transition_kernel

QUAD = CostModel.quadratic()

# the design-ar1 benchmark workload: 801-node grid, horizon 3, 11 candidates
DESIGN_AR1 = {
    "task": "design",
    "source": {"type": "gaussian", "a": 0.5, "noise_std": 1.0},
    "cost": {"kind": "quadratic"},
    "quantizers": {"type": "intervals", "levels": 2, "lo": -2.0, "hi": 2.0, "steps": 11},
    "initial_belief": "invariant",
    "horizon": 3,
}

# a chain symmetric under reversing its states, and its prediction of a
# symmetric belief, symmetric up to the last bit: at this root, the
# mirror-image partitions 1 and 3 tie exactly in value while partition 3
# has the lower stage cost, so the search meets it first and must still
# keep partition 1
MIRROR_ROWS = [
    [0.2510114441540828, 0.5877082605759091, 0.1612802952700082],
    [0.13371241704711417, 0.7325751659057717, 0.13371241704711417],
    [0.1612802952700082, 0.5877082605759091, 0.2510114441540828],
]
MIRROR_BELIEF = [0.16992914337957984, 0.6601417132408404, 0.16992914337957982]


def _chain_instance(chain, horizon, cost=QUAD):
    init = SimplexBelief(chain.initial.copy(), states=chain.state_values)
    return init, chain, enumerate_finite_partitions(chain.n_states, 2), cost, horizon


def _a2_instances():
    # the 24 chains of acceptance test A2, with their horizons
    rng = np.random.default_rng(102)
    return [_chain_instance(random_chain(rng, 2 + k % 2), 1 + k % 3) for k in range(24)]


def _a4_instance():
    src = LinearGaussianSource(0.0, 1.0)
    return src.invariant_distribution(), src, enumerate_interval_candidates(2, -2.0, 2.0, 41), QUAD, 2


def _a6_instances():
    src = LinearGaussianSource(0.5, 1.0)
    init = GridBelief.normal(default_grid(src, n_points=301), 0.0, src.stationary_std)
    chain = FiniteChain(
        np.array([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
        np.array([-1.0, 0.0, 1.0]),
    )
    return [
        _chain_instance(chain, 3),
        (init, src, enumerate_interval_candidates(2, -2.0, 2.0, 11), QUAD, 2),
    ]


def _rollout_chain_instance():
    chain = FiniteChain(
        np.array([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]]),
        np.array([0.334, 0.333, 0.333]),
        np.array([-1.0, 0.0, 1.0]),
    )
    return _chain_instance(chain, 3)


def _design_ar1_instance():
    setup = validate_config(dict(DESIGN_AR1), task="design")
    return (setup.initial_belief, setup.source, setup.candidates,
            setup.cost, setup.config["horizon"])


def _tabular_instance():
    chain = FiniteChain(
        np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]]),
        np.array([0.2, 0.5, 0.3]),
    )
    table = CostModel.bounded_tabular([[0.0, 1.0, 3.0], [1.0, 0.2, 1.0], [2.5, 0.7, 0.1]])
    return _chain_instance(chain, 4, cost=table)


def _mirror_tie_instance():
    chain = FiniteChain(np.array(MIRROR_ROWS), np.array(MIRROR_BELIEF),
                        np.array([-1.0, 0.0, 1.0]))
    return _chain_instance(chain, 2)


def _policy_pairs(got, ref):
    """Pairs of (emitted node, reference node) reached by the same symbols."""
    pairs, todo, seen = [], [(got.root, ref.root)], set()
    while todo:
        g, r = todo.pop()
        if g in seen:
            continue
        seen.add(g)
        pairs.append((got.nodes[g], ref.nodes[r]))
        for m, (_, child) in got.nodes[g].children.items():
            todo.append((child, ref.nodes[r].children[m][1]))
    return pairs


def assert_matches_reference(init, model, cands, cost, horizon):
    got = solve_finite_horizon(init, model, cands, cost, horizon).tree
    ref = exhaustive_solve(init, model, cands, cost, horizon)
    assert got.value == ref.nodes[ref.root].value
    pairs = _policy_pairs(got, ref)
    # the emitted tree is exactly the policy subtree, once per belief
    assert len(pairs) == len(got.nodes)
    for node, ref_node in pairs:
        assert (node.t, node.belief.key()) == (ref_node.t, ref_node.belief.key())
        assert node.value == ref_node.value and node.stage == ref_node.stage
        assert node.quantizer_id == ref_node.quantizer_id
        assert {m: p for m, (p, _) in node.children.items()} == {
            m: p for m, (p, _) in ref_node.children.items()
        }
    assert np.max(bellman_residuals(got)) <= 1e-12
    assert got.nodes_evaluated <= ref.nodes_evaluated
    return got, ref


@pytest.mark.parametrize(
    "instances",
    [
        _a2_instances,
        lambda: [_a4_instance()],
        _a6_instances,
        lambda: [_rollout_chain_instance()],
        lambda: [_design_ar1_instance()],
        lambda: [_tabular_instance()],
        lambda: [_mirror_tie_instance()],
    ],
    ids=["A2", "A4", "A6", "rollout-chain", "design-ar1", "tabular", "mirror-tie"],
)
def test_matches_exhaustive_reference(instances):
    for instance in instances():
        assert_matches_reference(*instance)


def test_mirror_tie_keeps_the_first_candidate():
    instance = _mirror_tie_instance()
    got, ref = assert_matches_reference(*instance)
    _, chain, cands, _, horizon = instance
    by_key = {(n.t, n.belief.key()): n for n in ref.nodes}
    node = got.nodes[got.root]
    assert node.quantizer_id == 1
    # the pin bites only if partition 3 comes first in stage order and
    # ties partition 1 exactly in value
    stages, masses, _ = cell_decisions(node.belief, cands, QUAD)
    assert stages[3] < stages[1]
    values = []
    for qid in (1, 3):
        continuation = 0.0
        for m, mass in enumerate(masses[qid].tolist(), start=1):
            post = filter_update(node.belief, chain, cands[qid], m)
            continuation += mass * by_key[(1, post.key())].value
        values.append(float(stages[qid]) / horizon + continuation)
    assert values[0] == values[1]


def test_design_ar1_prunes():
    # a silent fallback to the exhaustive search expands 1475 nodes here
    tree = solve_finite_horizon(*_design_ar1_instance()).tree
    assert tree.nodes_evaluated <= 100
    assert tree.candidates_pruned > 0
    assert len(tree.nodes) == 15


# ---------------------------------------------------------------------------
# the floor


def _dead_cell_allowance(levels, spread):
    """Stage cost the EPS_MASS rule may drop: a cell of mass <= EPS_MASS
    holds at most EPS_MASS * spread**2 / 4 of conditional variance."""
    return levels * EPS_MASS * spread**2 / 4.0


@st.composite
def simplex_pairs(draw):
    n = draw(st.integers(2, 4))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 10.0))

    def belief():
        w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
        assume(w.sum() > 0.0)
        return w / w.sum()

    states = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    return belief(), belief(), states


@settings(max_examples=300, deadline=None)
@given(simplex_pairs(), st.floats(0.0, 1.0), st.integers(2, 3))
def test_simplex_stage_cost_is_concave(pair, lam, levels):
    p1, p2, states = pair
    cands = enumerate_finite_partitions(len(states), levels)

    def least(p):
        return float(cell_decisions(SimplexBelief(p, states=states), cands, QUAD)[0].min())

    mix = lam * p1 + (1.0 - lam) * p2
    spread = float(states.max() - states.min())
    lhs = least(mix / mix.sum())
    rhs = lam * least(p1) + (1.0 - lam) * least(p2)
    assert lhs >= rhs - 1e-12 - _dead_cell_allowance(levels, spread)


@st.composite
def grid_pairs(draw):
    n = draw(st.integers(3, 40))
    lo = draw(st.floats(-6.0, 4.0))
    grid = Grid(lo, lo + draw(st.floats(0.5, 4.0)), n)
    level = st.one_of(st.just(0.0), st.floats(0.0, 10.0))

    def belief():
        values = np.array(draw(st.lists(level, min_size=n, max_size=n)))
        assume(grid.trapezoid_weights @ values > 0.0)
        return GridBelief.from_unnormalized(grid, values)

    cut = st.floats(grid.lo - 0.5, grid.hi + 0.5)
    quantizer = st.lists(cut, max_size=2, unique=True).map(
        lambda cuts: IntervalQuantizer(tuple(sorted(cuts)))
    )
    return belief(), belief(), draw(st.lists(quantizer, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(grid_pairs(), st.floats(0.0, 1.0))
def test_grid_stage_cost_is_concave(case, lam):
    b1, b2, cands = case
    grid = b1.grid
    mix = GridBelief.from_unnormalized(grid, lam * b1.values + (1.0 - lam) * b2.values)

    def least(b):
        return float(cell_decisions(b, cands, QUAD)[0].min())

    rhs = lam * least(b1) + (1.0 - lam) * least(b2)
    allowance = _dead_cell_allowance(3, grid.hi - grid.lo)
    assert least(mix) >= rhs - 1e-12 - allowance


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.booleans())
def test_chain_floor_bounds_every_posterior(seed, n, tabular):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(n, 0.5), size=n)
    rows[rng.random((n, n)) < 0.2] = 0.0
    rows[:, 0] += rows.sum(axis=1) == 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    chain = FiniteChain(rows, np.full(n, 1.0 / n), np.sort(rng.normal(size=n)))
    cost = CostModel.bounded_tabular(rng.random((n, 3))) if tabular else QUAD
    cands = enumerate_finite_partitions(n, 2)
    belief = SimplexBelief(rng.dirichlet(np.ones(n)), states=chain.state_values)
    floor = float(chain.column_costs(belief, cands, cost).min())
    scale = float(cost.table.max()) if tabular else float(np.ptp(chain.state_values)) ** 2 / 4
    for q in cands:
        for m in range(1, q.levels + 1):
            if belief.restrict_cells(q.member_mask(m)).sum() <= EPS_MASS:
                continue
            post = filter_update(belief, chain, q, m)
            least = float(cell_decisions(post, cands, cost)[0].min())
            assert floor <= least + 1e-12 + 2 * EPS_MASS * scale


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.95, 0.95),
    st.floats(0.2, 3.0),
    st.integers(21, 121),
    st.floats(-2.0, 2.0),
    st.floats(0.3, 2.0),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5, unique=True),
)
def test_grid_floor_bounds_every_posterior(a, noise, n_points, mean, std, cuts):
    src = LinearGaussianSource(a, noise)
    grid = default_grid(src, n_points=n_points)
    belief = GridBelief.normal(grid, mean * src.stationary_std, std * src.stationary_std)
    cands = CandidateSet([IntervalQuantizer((c,)) for c in cuts] + [IntervalQuantizer(tuple(sorted(cuts)))])
    floor = float(src.column_costs(belief, cands, QUAD).min())
    allowance = _dead_cell_allowance(len(cuts) + 1, grid.hi - grid.lo)
    for q in cands:
        for m in range(1, q.levels + 1):
            try:
                post = filter_update(belief, src, q, m)
            except ValueError:
                continue  # a cell with no mass has no posterior
            least = float(cell_decisions(post, cands, QUAD)[0].min())
            assert floor <= least + 1e-12 + allowance


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.95, 0.95),
    st.floats(0.2, 3.0),
    st.integers(21, 81),
    st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4, unique=True),
)
def test_column_moments_match_per_column_beliefs(a, noise, n_points, cuts):
    # reference: every normalized kernel column as its own GridBelief,
    # each read through the push's product of a one-entry restriction
    src = LinearGaussianSource(a, noise)
    grid = default_grid(src, n_points=n_points)
    cands = CandidateSet([IntervalQuantizer((c,)) for c in cuts] + [IntervalQuantizer(tuple(sorted(cuts)))])
    kernel = _transition_kernel(src, grid)
    ref = np.array([
        cell_decisions(GridBelief.from_unnormalized(grid, kernel.times(i, np.ones(1))), cands, QUAD)[0]
        for i in range(n_points)
    ]).T
    # one candidate at a time gives each candidate's stage at every column
    got = np.array([
        sources._least_stage_costs(_cut_weights(grid, one), _kernel_cut_moments(src, grid, one))
        for one in (CandidateSet((q,)) for q in cands)
    ])
    least = sources._least_stage_costs(_cut_weights(grid, cands), _kernel_cut_moments(src, grid, cands))
    # raw moments about 0 lose digits in proportion to the squared range
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, grid.hi**2)
    assert np.max(np.abs(least - ref.min(axis=0))) <= 1e-12 * max(1.0, grid.hi**2)
    assert src.column_costs(GridBelief.normal(grid, 0.0, 1.0), cands, QUAD).min() == least.min()


@settings(max_examples=20, deadline=None)
@given(
    st.floats(-0.95, 0.95),
    st.integers(3, 11),
    st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=11, unique=True),
)
def test_least_stage_costs_do_not_depend_on_the_column_blocks(a, sevens, cuts):
    # kernel columns (the floor) and a belief's children (the last stage),
    # in one block, in blocks of 1 and in blocks of 7 columns; a
    # quantizer's cells, up to 12 of them, are summed in order in every block
    src = LinearGaussianSource(a, 1.0)
    grid = default_grid(src, n_points=7 * sevens)
    cands = CandidateSet([IntervalQuantizer((c,)) for c in cuts] + [IntervalQuantizer(tuple(sorted(cuts)))])
    weights = _cut_weights(grid, cands)
    belief = GridBelief.normal(grid, 0.3 * src.stationary_std, src.stationary_std)
    kept = belief.cell_moments(cands)[0][0] > EPS_MASS

    def least_bytes():
        columns = sources._least_stage_costs(weights, _kernel_cut_moments(src, grid, cands))
        children = src.last_stage_costs(belief, cands, QUAD, kept)[0]
        return columns.tobytes(), children.tobytes()

    whole = least_bytes()
    for width in (1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sources, "_MOMENT_BLOCK", width * weights.slots.size)
            assert least_bytes() == whole


def test_floor_rejects_mismatched_models():
    chain = FiniteChain(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))
    src = LinearGaussianSource(0.5, 1.0)
    grid_belief = GridBelief.normal(default_grid(src, n_points=41), 0.0, 1.0)
    simplex_belief = SimplexBelief(np.array([0.5, 0.5]))
    interval, partition = IntervalQuantizer((0.0,)), FinitePartition((1, 2), 2)
    for belief, model, q in ((grid_belief, chain, interval), (simplex_belief, src, partition)):
        with pytest.raises(TypeError):
            solve_finite_horizon(belief, model, [q], QUAD, 2)
        with pytest.raises(TypeError):
            filter_update(belief, model, q, 1)
        with pytest.raises(TypeError):
            exact_policy_value(belief, model, QUAD, 2, lambda t, b: q)
        with pytest.raises(TypeError):
            rollout(FixedQuantizerPolicy(q), model, QUAD, 2, 1, seed=0, initial_belief=belief)
