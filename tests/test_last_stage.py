"""The last-stage product of the dynamic program against exact children.

At a node at t = horizon - 2 of a grid design the search visits, after
the candidate of least stage, only the candidates whose value from the
source's last_stage_costs is within a slack of the least one (or within
half of it of the value found), and searches their children exactly.
The slack is the larger of PRUNE_MARGIN * max(1, M2) and twice the
error bound the source returns, which the module docstring of zdq.dp
derives, and the search must still return what the exhaustive
reference returns, bit for bit: values, stages, choices and child
masses. Grid instances rank their candidates this way at every
t = horizon - 2 node; chain instances, which have no product, take the
stage-order loop and must match too.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chain
from test_branch_and_bound import DESIGN_AR1, _design_ar1_instance, assert_matches_reference
from zdq.beliefs import GridBelief, SimplexBelief, default_grid, filter_update
from zdq.cli import main
from zdq.costs import CostModel, cell_decisions
from zdq.dp import PRUNE_MARGIN, solve_finite_horizon
from zdq.quantizers import (
    CandidateSet,
    FinitePartition,
    IntervalQuantizer,
    enumerate_finite_partitions,
    enumerate_interval_candidates,
)
from zdq.sources import LinearGaussianSource

QUAD = CostModel.quadratic()


@st.composite
def grid_instances(draw):
    a = draw(st.one_of(st.just(0.0), st.floats(-0.95, 0.95)))
    src = LinearGaussianSource(a, draw(st.floats(0.2, 3.0)))
    grid = default_grid(src, n_points=draw(st.integers(21, 121)))
    std = src.stationary_std
    # a belief centred on the symmetric grid is symmetric up to rounding
    mean = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    belief = GridBelief.normal(grid, mean * std, draw(st.floats(0.3, 1.5)) * std)
    horizon = draw(st.integers(2, 3))
    cut = st.floats(-2.0, 2.0).map(lambda c: c * std)
    # at horizon 2 the root ranks many candidates at once
    cuts = draw(st.lists(cut, min_size=1, max_size=12 if horizon == 2 else 4, unique=True))
    cands = [IntervalQuantizer((c,)) for c in cuts]
    # mirror pairs tie on a symmetric belief, and duplicates tie always
    cands += [IntervalQuantizer((-c,)) for c in cuts[: draw(st.integers(0, len(cuts)))]]
    if len(cuts) > 1:
        cands.append(IntervalQuantizer(tuple(sorted(cuts[:2]))))
    cands += draw(st.lists(st.sampled_from(cands), max_size=2))
    order = draw(st.permutations(range(len(cands))))
    return belief, src, [cands[i] for i in order], QUAD, horizon


@settings(max_examples=40, deadline=None)
@given(grid_instances())
def test_grid_design_matches_exhaustive_reference(instance):
    assert_matches_reference(*instance)


@st.composite
def chain_instances(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    chain = random_chain(rng, n)
    cands = list(enumerate_finite_partitions(n, draw(st.integers(2, min(n, 3)))))
    cands += draw(st.lists(st.sampled_from(cands), max_size=2))
    cost = CostModel.bounded_tabular(rng.random((n, 3))) if draw(st.booleans()) else QUAD
    init = SimplexBelief(chain.initial.copy(), states=chain.state_values)
    return init, chain, cands, cost, draw(st.integers(2, 3))


@settings(max_examples=60, deadline=None)
@given(chain_instances())
def test_chain_design_matches_exhaustive_reference(instance):
    assert_matches_reference(*instance)


def _exact_least(belief, model, cands, cost, kept):
    """Least stage cost of every kept child, built by filter_update."""
    least = np.zeros(kept.shape)
    for k, m in zip(*np.nonzero(kept)):
        child = filter_update(belief, model, cands[k], m + 1)
        least[k, m] = cell_decisions(child, cands, cost)[0].min()
    return least


def _half_slack(scale, error):
    return 0.5 * max(PRUNE_MARGIN * max(1.0, scale), 2.0 * error)


@settings(max_examples=30, deadline=None)
@given(grid_instances())
def test_grid_product_is_within_half_the_slack(instance):
    belief, src, cands, cost, _ = instance
    cands = CandidateSet(cands)
    kept = cell_decisions(belief, cands, cost)[1] > 1e-9
    least, scale, error = src.last_stage_costs(belief, cands, cost, kept)
    exact = _exact_least(belief, src, cands, cost, kept)
    assert np.max(np.abs(least - exact)) <= _half_slack(scale, error)
    assert np.all(least[~kept] == 0.0)


def _wide_grid():
    # 400 stationary stds: X^2 = 1.6e5 against M2 near 1
    src = LinearGaussianSource(0.0, 1.0)
    belief = GridBelief.normal(default_grid(src, span_stds=400.0), 0.3, 1.5)
    return belief, src, CandidateSet(IntervalQuantizer((c,)) for c in (-1.0, -0.5, 0.0, 0.4, 1.0))


def _near_unit_root():
    src = LinearGaussianSource(0.9999, 1.0)
    std = src.stationary_std
    belief = GridBelief.normal(default_grid(src), 0.3 * std, 0.8 * std)
    return belief, src, CandidateSet(IntervalQuantizer((c * std,)) for c in (-1.0, -0.5, 0.0, 0.4, 1.0))


@pytest.mark.parametrize("instance", [_wide_grid, _near_unit_root], ids=["span-400", "a-0.9999"])
def test_product_slack_covers_wide_grids(instance):
    # grids far wider than the belief, where the product's rounding is
    # relative to X^2, not to the children's E[x^2]
    belief, src, cands = instance()
    kept = cell_decisions(belief, cands, QUAD)[1] > 1e-9
    least, scale, error = src.last_stage_costs(belief, cands, QUAD, kept)
    if instance is _wide_grid:
        # the derived bound, not the margin, sets this slack
        assert 2.0 * error > PRUNE_MARGIN * max(1.0, scale)
    exact = _exact_least(belief, src, cands, QUAD, kept)
    assert np.max(np.abs(least - exact)) <= _half_slack(scale, error)
    assert_matches_reference(belief, src, cands, QUAD, 2)


def test_search_keeps_the_winner_under_a_product_off_by_the_bound(monkeypatch):
    # at this root of a 400-std grid the candidate of least stage (cut
    # -0.26) loses to cut 0, and the derived bound exceeds half the
    # margin; a product that overstates the winner's children and
    # understates every other child by the full bound must still leave
    # the winner, not its copy, in the search
    src = LinearGaussianSource(0.5, 1.0)
    belief = GridBelief.normal(default_grid(src, span_stds=400.0), -0.13, 1.1)
    cands = [IntervalQuantizer((c,)) for c in (0.0, 0.0, -0.26, 0.56)]
    exact = LinearGaussianSource.last_stage_costs

    def skewed(self, belief, candidates, cost, kept):
        least, scale, error = exact(self, belief, candidates, cost, kept)
        assert 2.0 * error > PRUNE_MARGIN * max(1.0, scale)
        sign = np.where(np.arange(len(least))[:, None] == 0, 1.0, -1.0)
        return np.where(kept, least + sign * error, 0.0), scale, error

    monkeypatch.setattr(LinearGaussianSource, "last_stage_costs", skewed)
    got, _ = assert_matches_reference(belief, src, cands, QUAD, 2)
    assert got.nodes[got.root].quantizer_id == 0


def test_chain_has_no_product():
    chain = random_chain(np.random.default_rng(3), 3)
    init = SimplexBelief(chain.initial.copy(), states=chain.state_values)
    cands = enumerate_finite_partitions(3, 2)
    assert chain.last_stage_costs(init, cands, QUAD, np.ones((len(cands), 2), bool)) is None


def test_product_declines_when_nothing_is_kept():
    src = LinearGaussianSource(0.5, 1.0)
    belief = src.invariant_distribution()
    cands = CandidateSet((IntervalQuantizer((0.0,)),))
    assert src.last_stage_costs(belief, cands, QUAD, np.zeros((1, 2), bool)) is None


def test_design_ar1_takes_the_product_route():
    # without the product the search expands 43 nodes here, 36 of them
    # at t = 1 and 2
    tree = solve_finite_horizon(*_design_ar1_instance()).tree
    assert tree.nodes_evaluated <= 30
    assert sum(tree.expansions_by_stage) == tree.nodes_evaluated
    assert tree.expansions_by_stage[0] == 1
    assert tree.expansions_by_stage[-1] == len(tree.nodes) - sum(
        1 for n in tree.nodes if n.t < tree.horizon)


def test_deep_ar1_design_keeps_its_value_and_expansions():
    # a = 0.9, L = 2, T = 4, K = 21 from the invariant belief: the design
    # whose pushed beliefs the push trims most (design-ar1's a = 0.5
    # beliefs keep 770 to 801 of their 801 nodes)
    src = LinearGaussianSource(0.9, 1.0)
    cands = enumerate_interval_candidates(2, -2.0, 2.0, 21)
    result = solve_finite_horizon(src.invariant_distribution(), src, cands, QUAD, 4)
    assert abs(result.value - 1.067733242689243) <= 1e-12
    assert list(result.tree.expansions_by_stage) == [1, 13, 162, 336, 16]


def test_mirror_partitions_keep_the_first_on_a_tie():
    # two copies of one split tie in value at every node, and the
    # first of them must win wherever either does
    chain = random_chain(np.random.default_rng(7), 3)
    split = FinitePartition((1, 1, 2), 2)
    cands = [FinitePartition((1, 2, 2), 2), split, split, FinitePartition((1, 2, 1), 2)]
    init = SimplexBelief(chain.initial.copy(), states=chain.state_values)
    got, _ = assert_matches_reference(init, chain, cands, QUAD, 3)
    assert all(n.quantizer_id != 2 for n in got.nodes if n.quantizer is not None)


def _grid_root_of_higher_stage_winner():
    src = LinearGaussianSource(0.2, 1.0)
    std = src.stationary_std
    belief = GridBelief.normal(default_grid(src, n_points=61), -0.7 * std, 0.9 * std)
    cands = [IntervalQuantizer((c * std,)) for c in (0.0, 0.0, -1.4, -1.4, 1.0)]
    return belief, src, cands, QUAD


def test_product_keeps_a_winner_of_higher_stage():
    # at this root the candidate of least stage cost, searched first,
    # loses to one of a higher stage cost, which the product must keep;
    # copies of each tie in value, and the first copy of the winner wins
    belief, model, cands, cost = _grid_root_of_higher_stage_winner()
    stages = cell_decisions(belief, cands, cost)[0]
    assert stages[2] > stages[0]
    got, _ = assert_matches_reference(belief, model, cands, cost, 2)
    assert got.nodes[got.root].quantizer_id == 2


def test_expansions_by_stage_repeat_and_add_up(tmp_path):
    doc = dict(DESIGN_AR1, output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    runs = []
    for _ in range(2):
        assert main(["design", "--config", str(path)]) == 0
        runs.append(json.loads((tmp_path / "out" / "results.json").read_text()))
    first, second = runs
    assert first["expansions_by_stage"] == second["expansions_by_stage"]
    assert len(first["expansions_by_stage"]) == doc["horizon"] + 1
    assert sum(first["expansions_by_stage"]) == first["nodes_evaluated"]
