"""The per-grid caches behind grid cell moments and grid restrictions.

GridBelief.cell_moments reads the segment ids and offset powers of a
candidate set's cuts from _cut_table, kept per (grid, candidate set),
and LinearGaussianSource.restrict reads a cell's window weights from
_cell_weights, kept per (grid, cell) over their support. Both routes
must return the bytes of the uncached computation: the frozen
cell_moments of reference_moments.py, and window_weights times the
density values.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_moments
from zdq.beliefs import (
    Grid,
    GridBelief,
    _cell_weights,
    _cut_table,
    default_grid,
    window_weights,
)
from zdq.quantizers import IntervalQuantizer, enumerate_interval_candidates
from zdq.sources import LinearGaussianSource

SOURCE = LinearGaussianSource(0.5, 1.0)
# a 301-node and an 801-node grid, drawn from in one process: A6's grid
# and the default grid of the occupancy-ar1 benchmark source
GRIDS = (default_grid(SOURCE, n_points=301), default_grid(LinearGaussianSource(0.9, 1.0)))


@st.composite
def densities_and_candidate_sets(draw):
    grid = draw(st.sampled_from(GRIDS))
    n, x = grid.n_points, grid.nodes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bump = (x - rng.uniform(grid.lo, grid.hi)) / rng.uniform(0.05, 3.0)
    values = np.exp(-0.5 * bump * bump) + rng.uniform(0.0, 0.3) * rng.random(n)
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, n - 1))
        values[start : start + draw(st.integers(1, n // 2))] = 0.0
    assume(values.max() > 0.0)
    belief = GridBelief.from_unnormalized(grid, values)
    cut = st.one_of(
        st.integers(0, n - 1).map(lambda i: x[i]),
        st.integers(0, n - 2).map(lambda i: 0.5 * (x[i] + x[i + 1])),
        st.floats(grid.lo, grid.hi),
        st.floats(-3.0 * grid.hi, 3.0 * grid.hi),
        st.sampled_from([grid.lo - 1.0, grid.lo - 1e-9, grid.hi + 1e-9, grid.hi + 1.0]),
    )
    # 0 to 3 cuts: level counts 1 to 4, mixed within a set
    quantizer = st.lists(cut, max_size=3, unique=True).map(
        lambda cuts: IntervalQuantizer(tuple(sorted(cuts)))
    )
    cands = draw(st.lists(quantizer, min_size=1, max_size=8))
    repeats = draw(st.lists(st.integers(0, len(cands) - 1), max_size=3))
    return belief, cands + [cands[k] for k in repeats]


@settings(max_examples=200, deadline=None)
@given(densities_and_candidate_sets())
def test_cached_routes_return_the_uncached_bytes(case):
    belief, cands = case
    expected, center = reference_moments.cell_moments(belief, cands)
    # the first call may build the cut table, the second reads it
    for _ in range(2):
        got, got_center = belief.cell_moments(cands)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes() and got_center == center
    for q in cands:
        for m in range(1, q.levels + 1):
            lo, hi = q.cell_interval(m)
            reference = window_weights(belief.grid, lo, hi, 0) * belief.values
            assert SOURCE.restrict(belief, q, m).tobytes() == reference.tobytes()


def test_cached_arrays_are_read_only():
    cands = tuple(enumerate_interval_candidates(2, -2.0, 2.0, 5))
    j, powers = _cut_table(GRIDS[0], cands)
    _, w = _cell_weights(GRIDS[0], -1.0, 0.5)
    for array in (j, powers, w):
        with pytest.raises(ValueError):
            array[...] = 0


def test_same_thresholds_on_two_grids_get_their_own_tables():
    cands = enumerate_interval_candidates(3, -2.0, 2.0, 7)
    (j_small, _), (j_large, _) = (_cut_table(grid, tuple(cands)) for grid in GRIDS)
    assert not np.array_equal(j_small, j_large)
    (_, w_small), (_, w_large) = (_cell_weights(grid, -1.0, 0.5) for grid in GRIDS)
    assert w_small.tobytes() != w_large.tobytes()
    for grid in GRIDS:
        belief = GridBelief.normal(grid, 0.3, 1.2)
        expected, _ = reference_moments.cell_moments(belief, cands)
        assert belief.cell_moments(cands)[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("cache", [_cut_table, _cell_weights], ids=["cut_table", "cell_weights"])
def test_caches_stay_at_their_bound(cache):
    grid = Grid(-3.0, 3.0, 31)
    bound = cache.cache_info().maxsize
    for i in range(bound + 10):
        t = 1e-3 * i
        if cache is _cut_table:
            cache(grid, (IntervalQuantizer((t,)),))
        else:
            cache(grid, t, 1.0)
    assert cache.cache_info().currsize == bound
