"""Each belief family's cell_moments against a per-cell reference loop,
and the grid product's rounding against extended precision.

The reference integrates every cell on its own: grid cells with the
frozen window_weights of reference_moments.py, as raw moments about 0,
and simplex cells with one member_mask row at a time. The batched path
must agree with it to 1e-12 and pick the same quantizer, first in order
on exact ties; only candidates tied to rounding may swap. A grid belief
takes its cell moments from one product over its support, and each of
order k must lie within MOMENT_ERROR (std + spacing)^k of the same sums
taken in np.longdouble, on filtered beliefs and on narrow, far-off,
mixed and symmetric ones.
"""
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

import reference_moments
from reference_filter import classify, sample_next
import zdq.dp
from conftest import MOMENT_ERROR, random_chain
from zdq.beliefs import (
    Grid,
    GridBelief,
    SimplexBelief,
    default_grid,
    filter_update,
)
from zdq.costs import CostModel, cell_decisions
from zdq.dp import greedy_policy_step, solve_finite_horizon
from zdq.infinite import GreedyPolicy, _BeliefTable
from zdq.quantizers import (
    CandidateSet,
    FinitePartition,
    IntervalQuantizer,
    enumerate_finite_partitions,
    enumerate_interval_candidates,
)
from zdq.sources import FiniteChain, LinearGaussianSource

QUAD = CostModel.quadratic()
TOL = 1e-12
EPS_CELL = 1e-12


def reference_cell(belief, q, m):
    """Raw moments of orders 0..2 of cell m, integrated on its own."""
    if isinstance(belief, GridBelief):
        lo, hi = q.cell_interval(m)
        w = reference_moments.window_weights
        return [float(w(belief.grid, lo, hi, k) @ belief.values) for k in range(3)]
    r = belief.probabilities * q.member_mask(m)
    return [float(r.sum()), float(r @ belief.states), float(r @ belief.states**2)]


def reference_stage_costs(belief, quantizers, cost=QUAD):
    assert cost.kind == "quadratic"
    out = []
    for q in quantizers:
        total = 0.0
        for m in range(1, q.levels + 1):
            m0, m1, m2 = reference_cell(belief, q, m)
            if m0 > EPS_CELL:
                total += max(m2 - m1 * m1 / m0, 0.0)
        out.append(total)
    return np.array(out)


def reference_cell_masses(belief, quantizers):
    out = np.zeros((len(quantizers), max(q.levels for q in quantizers)))
    for k, q in enumerate(quantizers):
        for m in range(1, q.levels + 1):
            out[k, m - 1] = reference_cell(belief, q, m)[0]
    return out


def assert_matches_reference(belief, quantizers):
    costs, masses, _ = cell_decisions(belief, quantizers, QUAD)
    ref_costs = reference_stage_costs(belief, quantizers)
    assert np.max(np.abs(costs - ref_costs)) <= TOL
    best, ref_best = int(np.argmin(costs)), int(np.argmin(ref_costs))
    # a mathematical tie (say, mirror-image cuts of a symmetric density)
    # is split by rounding, differently on the two paths
    assert best == ref_best or abs(ref_costs[best] - ref_costs[ref_best]) <= TOL
    assert masses.shape == (len(quantizers), max(q.levels for q in quantizers))
    assert np.max(np.abs(masses - reference_cell_masses(belief, quantizers))) <= TOL
    # a single-candidate call reads the same entry of the batch
    q = quantizers[0]
    stage, mass, _ = cell_decisions(belief, [q], QUAD)
    assert stage[0] == costs[0]
    assert mass[0, : q.levels].tolist() == masses[0, : q.levels].tolist()


@st.composite
def beliefs_and_candidates(draw):
    n = draw(st.integers(3, 40))
    lo = draw(st.floats(-6.0, 4.0))
    grid = Grid(lo, lo + draw(st.floats(0.5, 4.0)), n)
    level = st.one_of(st.just(0.0), st.just(1e-300), st.floats(0.0, 10.0))
    values = draw(st.lists(level, min_size=n, max_size=n))
    assume(any(v > 0.0 for v in values))
    belief = GridBelief.from_unnormalized(grid, np.array(values))
    x = grid.nodes
    cut = st.one_of(
        st.sampled_from(x.tolist()),
        st.integers(0, n - 2).map(lambda i: 0.5 * (x[i] + x[i + 1])),
        st.floats(grid.lo, grid.hi),
        st.sampled_from([grid.lo - 1.0, grid.lo - 1e-9, grid.hi + 1e-9, grid.hi + 1.0]),
    )
    quantizer = st.lists(cut, max_size=3, unique=True).map(
        lambda cuts: IntervalQuantizer(tuple(sorted(cuts)))
    )
    return belief, draw(st.lists(quantizer, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(beliefs_and_candidates())
def test_batched_kernel_matches_reference_loop(case):
    assert_matches_reference(*case)


@st.composite
def simplex_beliefs_and_partitions(draw):
    n = draw(st.integers(1, 5))
    weight = st.one_of(st.just(0.0), st.just(1e-300), st.floats(0.0, 10.0))
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    assume(weights.sum() > 0.0)
    states = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    belief = SimplexBelief(weights / weights.sum(), states=np.array(states))

    @st.composite
    def partition(draw):
        levels = draw(st.integers(1, 4))
        cells = st.integers(1, levels)
        return FinitePartition(tuple(draw(st.lists(cells, min_size=n, max_size=n))), levels)

    return belief, draw(st.lists(partition(), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(simplex_beliefs_and_partitions(), st.integers(1, 3), st.data())
def test_simplex_cell_moments_match_reference_loop(case, n_columns, data):
    belief, partitions = case
    (m0, m1, m2), center = belief.cell_moments(CandidateSet(partitions))
    assert center == 0.0
    for k, q in enumerate(partitions):
        ref = np.array([reference_cell(belief, q, m) for m in range(1, q.levels + 1)])
        got = np.stack([m0[k], m1[k], m2[k]], axis=1)
        assert np.max(np.abs(got[: q.levels] - ref)) <= TOL
        assert not got[q.levels :].any()
    assert_matches_reference(belief, partitions)
    # tabular costs keep the per-cell arithmetic, bit for bit
    entry = st.floats(0.0, 10.0)
    table = data.draw(
        st.lists(st.lists(entry, min_size=n_columns, max_size=n_columns),
                 min_size=belief.n_states, max_size=belief.n_states)
    )
    tab = CostModel.bounded_tabular(table)
    expected = []
    for q in partitions:
        total = 0.0
        for m in range(1, q.levels + 1):
            r = belief.probabilities * q.member_mask(m)
            if float(r.sum()) > EPS_CELL:
                total += float(np.min(r @ tab.table))
        expected.append(total)
    assert cell_decisions(belief, partitions, tab)[0].tolist() == expected


def test_duplicate_candidates_pick_the_first():
    grid = Grid(-8.0, 8.0, 801)
    belief = GridBelief.normal(grid, 0.3, 1.1)
    cands = [
        IntervalQuantizer((1.5,)),
        IntervalQuantizer((0.3,)),
        IntervalQuantizer((0.3,)),
        IntervalQuantizer((-2.0,)),
    ]
    costs = cell_decisions(belief, cands, QUAD)[0]
    assert costs[1] == costs[2] and int(np.argmin(costs)) == 1
    assert greedy_policy_step(belief, cands, QUAD) is cands[1]
    policy = GreedyPolicy(cands)
    table = _BeliefTable(None, QUAD, policy.quantizers)
    assert policy.plan(None, 0, np.array([table.intern(belief)]), table, None).quantizer_ids[0] == 1
    # cuts at and past the grid end leave the belief unquantized, exactly
    blind = [IntervalQuantizer((grid.hi,)), IntervalQuantizer((20.0,)), IntervalQuantizer(())]
    blind_costs = cell_decisions(belief, blind, QUAD)[0]
    assert blind_costs[0] == blind_costs[1] == blind_costs[2]
    src = LinearGaussianSource(0.5, 1.0)
    res = solve_finite_horizon(belief, src, cands, QUAD, horizon=2)
    assert res.tree.nodes[res.tree.root].quantizer_id == 1
    res = solve_finite_horizon(belief, src, blind, QUAD, horizon=2)
    assert all(node.quantizer_id in (0, None) for node in res.tree.nodes)


def _a4_instance():
    src = LinearGaussianSource(0.0, 1.0)
    return src, src.invariant_distribution(), enumerate_interval_candidates(2, -2.0, 2.0, 41), 2


def _a6_instance():
    src = LinearGaussianSource(0.5, 1.0)
    init = GridBelief.normal(default_grid(src, n_points=301), 0.0, src.stationary_std)
    return src, init, enumerate_interval_candidates(2, -2.0, 2.0, 11), 2


def _rollout_chain_instance():
    # the design behind the rollout-chain benchmark workload
    src = FiniteChain(
        np.array([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]]),
        np.array([0.334, 0.333, 0.333]),
        np.array([-1.0, 0.0, 1.0]),
    )
    init = SimplexBelief(src.initial.copy(), states=src.state_values)
    return src, init, enumerate_finite_partitions(3, 2), 3


def _a2_instance():
    # A2's sixth instance: three states, horizon 3
    rng = np.random.default_rng(102)
    src = [random_chain(rng, 2 + trial % 2) for trial in range(6)][-1]
    init = SimplexBelief(src.initial.copy(), states=src.state_values)
    return src, init, enumerate_finite_partitions(3, 2), 3


@pytest.mark.parametrize(
    "instance",
    [_a4_instance, _a6_instance, _rollout_chain_instance, _a2_instance],
    ids=["A4", "A6", "rollout-chain", "A2"],
)
def test_dp_choices_match_reference_loop(monkeypatch, instance):
    src, init, cands, horizon = instance()
    batched = solve_finite_horizon(init, src, cands, QUAD, horizon).tree
    monkeypatch.setattr(
        zdq.dp,
        "cell_decisions",
        lambda belief, cands, cost: (
            reference_stage_costs(belief, cands, cost),
            reference_cell_masses(belief, cands),
            None,
        ),
    )
    reference = solve_finite_horizon(init, src, cands, QUAD, horizon).tree
    assert batched.nodes_evaluated == reference.nodes_evaluated
    assert [n.quantizer_id for n in batched.nodes] == [n.quantizer_id for n in reference.nodes]
    assert max(abs(a.value - b.value) for a, b in zip(batched.nodes, reference.nodes)) <= TOL


def test_greedy_choices_match_reference_loop_on_a5():
    # the A5 trajectory: 100 greedy steps of the filter on an AR(1) source
    src = LinearGaussianSource(0.5, 1.0)
    cands = enumerate_interval_candidates(2, -2.0, 2.0, 21)
    belief = GridBelief.normal(default_grid(src), 0.0, src.stationary_std)
    rng = np.random.default_rng(105)
    x = float(belief.inverse_cdf(rng.random(1))[0])
    for _ in range(100):
        quantizer = greedy_policy_step(belief, cands, QUAD)
        assert quantizer is cands[int(np.argmin(reference_stage_costs(belief, cands)))]
        belief = filter_update(belief, src, quantizer, classify(quantizer, x))
        x = sample_next(src, x, rng)


# ---------------------------------------------------------------------------
# grid cell moments against the same sums in extended precision

# symmetric default grids: the benchmark's a = 0.9 one, a wide a = 0.99
# one, and a 301-node one
MOMENT_GRIDS = (
    default_grid(LinearGaussianSource(0.9, 1.0)),
    default_grid(LinearGaussianSource(0.99, 1.0)),
    default_grid(LinearGaussianSource(0.5, 1.0), n_points=301),
)


def _normal_values(grid, mean, std):
    u = (grid.nodes - mean) / std
    return np.exp(-0.5 * u * u)


@st.composite
def greedy_cases(draw):
    """A grid belief and a candidate set: far-off narrow normals, mixtures
    and symmetric beliefs, with mirror-image candidates."""
    grid = draw(st.sampled_from(MOMENT_GRIDS))
    half = grid.hi
    kind = draw(st.sampled_from(["filtered", "filtered", "normal", "mixture", "symmetric"]))
    std = st.floats(0.5 * grid.spacing, 0.3 * half)
    if kind == "filtered":
        # shaped like a filtered belief: near the middle, and wide
        values = _normal_values(
            grid, draw(st.floats(-0.1 * half, 0.1 * half)), draw(st.floats(0.05 * half, 0.3 * half))
        )
    elif kind == "normal":
        # a narrow one anywhere on the grid, out to its ends
        values = _normal_values(grid, draw(st.floats(-0.97 * half, 0.97 * half)), draw(std))
    elif kind == "mixture":
        values = sum(
            draw(st.floats(1e-6, 1.0))
            * _normal_values(grid, draw(st.floats(-0.9 * half, 0.9 * half)), draw(std))
            for _ in range(draw(st.integers(2, 3)))
        )
    else:
        offset, spread = draw(st.floats(0.0, 0.6 * half)), draw(std)
        values = _normal_values(grid, offset, spread) + _normal_values(grid, -offset, spread)
    assume(grid.trapezoid_weights @ values > 1e-300)
    belief = GridBelief.from_unnormalized(grid, values)
    # one or two thresholds on 41 points symmetric about 0, one integer
    # per quantizer, and each quantizer's mirror image, so symmetric
    # beliefs meet exact mirror ties; one seed shuffles the set
    reach = draw(st.sampled_from([0.25, 0.5, 0.9])) * half
    cands = []
    for code in draw(st.lists(st.integers(0, 2 * 41 * 41 - 1), min_size=1, max_size=12)):
        two, pair = divmod(code, 41 * 41)
        points = set(divmod(pair, 41)) if two else {pair % 41}
        cands.append(IntervalQuantizer(tuple(reach * (k - 20) / 20 for k in sorted(points))))
    cands += [IntervalQuantizer(tuple(-x for x in reversed(q.thresholds))) for q in cands]
    random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(cands)
    return belief, cands


def moment_errors(belief, candidates):
    """The largest error of belief.cell_moments of each order k, in units
    of (std + spacing)^k, against the same sums in np.longdouble."""
    moments, center = belief.cell_moments(candidates)
    exact, exact_center = reference_moments.cell_moments(belief, candidates, np.longdouble)
    assert center == exact_center
    scale = belief.std + belief.grid.spacing
    return [float(np.max(np.abs(moments[k] - exact[k]))) / scale**k for k in range(3)]


extended = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="long double is no wider than double here"
)


@extended
@pytest.mark.parametrize("a", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("levels", [2, 3])
def test_grid_cell_moments_round_less_than_their_bound_on_filtered_beliefs(a, levels):
    # 60 greedy filter steps along a path of the source, from its
    # invariant belief on its default grid
    src = LinearGaussianSource(a, 1.0)
    cands = enumerate_interval_candidates(levels, -4.0, 4.0, 21)
    belief = src.invariant_distribution()
    rng = np.random.default_rng(int(100 * a) + levels)
    x = float(belief.inverse_cdf(rng.random(1))[0])
    for _ in range(60):
        assert max(moment_errors(belief, cands)) <= MOMENT_ERROR
        quantizer = greedy_policy_step(belief, cands, QUAD)
        belief = filter_update(belief, src, quantizer, classify(quantizer, x))
        x = sample_next(src, x, rng)


@extended
# no example database: with one, every example of a test that calls
# target() goes through hypothesis's Pareto-front bookkeeping, which
# cost more than the checks
@settings(max_examples=500, deadline=None, database=None)
@given(greedy_cases())
def test_grid_cell_moments_round_less_than_their_bound(case):
    worst = max(moment_errors(*case))
    target(worst / MOMENT_ERROR)
    assert worst <= MOMENT_ERROR
