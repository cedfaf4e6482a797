"""The batched prefix-table kernel against a per-cell reference loop.

The reference integrates every cell on its own with the public
window_weights, the way stage costs and cell masses were computed
before the prefix table existed. The batched path must agree with it to
1e-12 and pick the same quantizer, first in order on exact ties; only
candidates tied to rounding may swap.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zdq.dp
from zdq.beliefs import Grid, GridBelief, default_grid, filter_update, window_weights
from zdq.costs import CostModel, stage_cost, stage_costs
from zdq.dp import greedy_policy_step, solve_finite_horizon
from zdq.infinite import GreedyPolicy
from zdq.quantizers import (
    IntervalQuantizer,
    cell_mass,
    cell_masses,
    enumerate_interval_candidates,
)
from zdq.sources import LinearGaussianSource, invariant_distribution, sample_next

QUAD = CostModel.quadratic()
TOL = 1e-12
EPS_CELL = 1e-12


def reference_cell(belief, lo, hi):
    return [float(window_weights(belief.grid, lo, hi, k) @ belief.values) for k in range(3)]


def reference_stage_costs(belief, quantizers, cost=QUAD):
    assert cost.kind == "quadratic"
    out = []
    for q in quantizers:
        total = 0.0
        for m in range(1, q.levels + 1):
            m0, m1, m2 = reference_cell(belief, *q.cell_interval(m))
            if m0 > EPS_CELL:
                total += max(m2 - m1 * m1 / m0, 0.0)
        out.append(total)
    return np.array(out)


def reference_cell_masses(belief, quantizers):
    out = np.zeros((len(quantizers), max(q.levels for q in quantizers)))
    for k, q in enumerate(quantizers):
        for m in range(1, q.levels + 1):
            out[k, m - 1] = reference_cell(belief, *q.cell_interval(m))[0]
    return out


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
    belief, quantizers = case
    costs = stage_costs(belief, quantizers, QUAD)
    ref_costs = reference_stage_costs(belief, quantizers)
    assert np.max(np.abs(costs - ref_costs)) <= TOL
    best, ref_best = int(np.argmin(costs)), int(np.argmin(ref_costs))
    # a mathematical tie (say, mirror-image cuts of a symmetric density)
    # is split by rounding, differently on the two paths
    assert best == ref_best or abs(ref_costs[best] - ref_costs[ref_best]) <= TOL
    masses = cell_masses(belief, quantizers)
    assert masses.shape == (len(quantizers), max(q.levels for q in quantizers))
    assert np.max(np.abs(masses - reference_cell_masses(belief, quantizers))) <= TOL
    # the single-candidate entry points read the same table
    q = quantizers[0]
    assert stage_cost(belief, q, QUAD) == costs[0]
    assert [cell_mass(belief, q, m) for m in range(1, q.levels + 1)] == (
        masses[0, : q.levels].tolist()
    )


def test_duplicate_candidates_pick_the_first():
    grid = Grid(-8.0, 8.0, 801)
    belief = GridBelief.normal(grid, 0.3, 1.1)
    cands = [
        IntervalQuantizer((1.5,)),
        IntervalQuantizer((0.3,)),
        IntervalQuantizer((0.3,)),
        IntervalQuantizer((-2.0,)),
    ]
    costs = stage_costs(belief, cands, QUAD)
    assert costs[1] == costs[2] and int(np.argmin(costs)) == 1
    assert greedy_policy_step(belief, cands, QUAD) is cands[1]
    assert GreedyPolicy(cands, QUAD).plan(None, 0, belief, 0.0).quantizer_id == 1
    # cuts at and past the grid end leave the belief unquantized, exactly
    blind = [IntervalQuantizer((grid.hi,)), IntervalQuantizer((20.0,)), IntervalQuantizer(())]
    blind_costs = stage_costs(belief, blind, QUAD)
    assert blind_costs[0] == blind_costs[1] == blind_costs[2]
    src = LinearGaussianSource(0.5, 1.0)
    res = solve_finite_horizon(belief, src, cands, QUAD, horizon=2)
    assert res.tree.nodes[res.tree.root].quantizer_id == 1
    res = solve_finite_horizon(belief, src, blind, QUAD, horizon=2)
    assert all(node.quantizer_id in (0, None) for node in res.tree.nodes)


def _a4_instance():
    src = LinearGaussianSource(0.0, 1.0)
    return src, invariant_distribution(src), enumerate_interval_candidates(2, -2.0, 2.0, 41)


def _a6_instance():
    src = LinearGaussianSource(0.5, 1.0)
    init = GridBelief.normal(default_grid(src, n_points=301), 0.0, src.stationary_std)
    return src, init, enumerate_interval_candidates(2, -2.0, 2.0, 11)


@pytest.mark.parametrize("instance", [_a4_instance, _a6_instance], ids=["A4", "A6"])
def test_dp_choices_match_reference_loop(monkeypatch, instance):
    src, init, cands = instance()
    batched = solve_finite_horizon(init, src, cands, QUAD, horizon=2).tree
    monkeypatch.setattr(zdq.dp, "stage_costs", reference_stage_costs)
    monkeypatch.setattr(zdq.dp, "cell_masses", reference_cell_masses)
    reference = solve_finite_horizon(init, src, cands, QUAD, horizon=2).tree
    assert batched.nodes_evaluated == reference.nodes_evaluated
    assert [n.quantizer_id for n in batched.nodes] == [n.quantizer_id for n in reference.nodes]
    assert max(abs(a.value - b.value) for a, b in zip(batched.nodes, reference.nodes)) <= TOL


def test_greedy_choices_match_reference_loop_on_a5():
    # the A5 trajectory: 100 greedy steps of the filter on an AR(1) source
    src = LinearGaussianSource(0.5, 1.0)
    cands = enumerate_interval_candidates(2, -2.0, 2.0, 21)
    belief = GridBelief.normal(default_grid(src), 0.0, src.stationary_std)
    rng = np.random.default_rng(105)
    x = belief.sample(rng)
    for _ in range(100):
        quantizer = greedy_policy_step(belief, cands, QUAD)
        assert quantizer is cands[int(np.argmin(reference_stage_costs(belief, cands)))]
        belief = filter_update(belief, src, quantizer, quantizer.classify(x))
        x = sample_next(src, x, rng)
