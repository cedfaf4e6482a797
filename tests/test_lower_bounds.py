"""The dynamic program's lower bounds against exhaustive values.

At a node at t the search prunes a candidate whose lower bound exceeds
the least value known by more than the margin, so a bound that is wrong
only where it rarely binds would still pass the end-to-end tests. Here
each bound is checked directly: at random grid and chain roots, with
horizons 1 to 3 and candidate sets closed under x -> -x or not, every
candidate's column bound and lookahead bound stay at or below its value
under the exhaustive reference (tests/reference_dp.py). The transposed
push that builds the column bound is checked against the dense kernel.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chain
from reference_dp import exhaustive_solve
from test_beliefs import one_shot_kernel
from zdq.beliefs import Grid, GridBelief, SimplexBelief, default_grid, filter_update
from zdq.costs import CostModel, cell_decisions
from zdq.dp import EPS_PRUNE, _LowerBounds
from zdq.quantizers import CandidateSet, IntervalQuantizer, enumerate_finite_partitions
from zdq.sources import LinearGaussianSource, _transition_kernel

QUAD = CostModel.quadratic()


def candidate_values(belief, model, cands, cost, horizon):
    """The value of every candidate at the root under the exhaustive
    reference: its stage share plus its kept children's values."""
    ref = exhaustive_solve(belief, model, cands, cost, horizon)
    values = {(n.t, n.belief.key()): n.value for n in ref.nodes}
    stages, masses, _ = cell_decisions(belief, cands, cost)
    out = []
    for k, q in enumerate(cands):
        value = float(stages[k]) / horizon
        if horizon > 1:
            for m, mass in enumerate(masses[k][: q.levels].tolist(), start=1):
                if mass > EPS_PRUNE:
                    value += mass * values[(1, filter_update(belief, model, q, m).key())]
        out.append(value)
    return np.array(out), stages, masses


def assert_bounds_hold(belief, model, cands, cost, horizon, scale):
    # scale: the largest squared |point| or table entry; bounds and values
    # round apart by about 1e-16 of it, far inside PRUNE_MARGIN
    cands = CandidateSet(cands)
    values, stages, masses = candidate_values(belief, model, cands, cost, horizon)
    rounding = 1e-12 * max(1.0, scale)
    bounds = _LowerBounds(model, belief, cands, cost, horizon)
    column = bounds.column(belief, 0, stages)
    assert np.all(column <= values + rounding), (column - values).max()
    if horizon == 1:
        assert np.array_equal(column, values)
        return None
    ahead = bounds.lookahead(belief, 0, stages, masses, list(range(len(cands))))
    if ahead is not None:
        assert np.all(ahead <= values + rounding), (ahead - values).max()
    return ahead


@st.composite
def grid_roots(draw):
    a = draw(st.one_of(st.just(0.0), st.floats(-0.95, 0.95)))
    src = LinearGaussianSource(a, draw(st.floats(0.3, 2.0)))
    n = draw(st.integers(21, 101))
    grid = default_grid(src, n_points=n)
    if draw(st.booleans()):  # a grid that is not [-c, c]
        grid = Grid(grid.lo * draw(st.floats(0.5, 1.0)), grid.hi, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = grid.nodes
    bump = (x - rng.uniform(0.6 * grid.lo, 0.6 * grid.hi)) / (rng.uniform(0.1, 0.6) * grid.hi)
    values = np.exp(-0.5 * bump * bump) + rng.uniform(0.0, 0.2) * rng.random(n)
    belief = GridBelief.from_unnormalized(grid, values)
    std = src.stationary_std
    horizon = draw(st.integers(1, 3))
    cuts = draw(st.lists(st.floats(-1.5, 1.5).map(lambda c: c * std), min_size=1,
                         max_size=4 if horizon < 3 else 2, unique=True))
    if draw(st.booleans()):  # closed under x -> -x
        cuts = sorted({abs(c) * s for c in cuts for s in (1.0, -1.0)})
        cands = [IntervalQuantizer((c,)) for c in cuts]
        if cuts[-1] > 0.0 and draw(st.booleans()):
            cands.append(IntervalQuantizer((-cuts[-1], cuts[-1])))
    else:
        cands = [IntervalQuantizer((c,)) for c in cuts]
        if len(cuts) > 1:
            cands.append(IntervalQuantizer(tuple(sorted(cuts[:2]))))
    order = draw(st.permutations(range(len(cands))))
    scale = max(-grid.lo, grid.hi)
    return belief, src, [cands[i] for i in order], QUAD, horizon, scale * scale


@settings(max_examples=60, deadline=None)
@given(grid_roots())
def test_grid_bounds_never_exceed_the_values(root):
    horizon = root[4]
    got = assert_bounds_hold(*root)
    # every grid design with a later stage takes the lookahead
    assert (got is not None) == (horizon > 1)


@st.composite
def chain_roots(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    chain = random_chain(rng, n)
    cands = list(enumerate_finite_partitions(n, draw(st.integers(2, min(n, 3)))))
    cost = CostModel.bounded_tabular(rng.random((n, 3))) if draw(st.booleans()) else QUAD
    belief = SimplexBelief(rng.dirichlet(np.ones(n)), states=chain.state_values)
    scale = 1.0 if cost.kind != "quadratic" else float(np.max(chain.state_values * chain.state_values))
    return belief, chain, cands, cost, draw(st.integers(1, 3)), scale


@settings(max_examples=60, deadline=None)
@given(chain_roots())
def test_chain_bounds_never_exceed_the_values(root):
    # a chain has no last-stage product: its bound is the column bound
    assert assert_bounds_hold(*root) is None


@settings(max_examples=20, deadline=None)
@given(st.floats(-0.95, 0.95), st.integers(3, 300), st.booleans(), st.integers(0, 2**32 - 1))
def test_transposed_push_matches_the_dense_product(a, n, symmetric, seed):
    src = LinearGaussianSource(a, 1.0)
    grid = default_grid(src, n_points=n) if symmetric else Grid(-3.0, 5.0, n)
    kernel = _transition_kernel(src, grid)
    g = np.random.default_rng(seed).random(n)
    dense = one_shot_kernel(src, grid)
    assert np.allclose(kernel.transposed(g), dense.T @ g, rtol=1e-13, atol=0.0)
    # the pull of 1 is every column's trapezoid integral
    integrals = src.pull(GridBelief.normal(grid, 0.0, 1.0), np.ones(n))
    assert np.allclose(integrals, dense.T @ grid.trapezoid_weights, rtol=1e-13, atol=0.0)
