"""The per-grid caches behind grid cell moments and grid restrictions,
and the grid filter's and the floor's shortcuts past per-call work.

GridBelief.cell_moments and the sources' products read the weights up
to every distinct cut of a candidate set from the CutWeights of
_cut_weights, kept per (grid, candidate set); every product reads its
cells through CutWeights.cells. The cache finds a set by the hash the
CandidateSet took when built, so equal sets share an entry.
GridBelief.restrict reads a cell's mass weights from _cell_weights,
kept per (grid, cell) over their support, and returns its product with
the density values there, within the belief's support. cell_moments and
restrict must return the bytes of the uncached computation: the
cell_moments of reference_moments.py, which builds its cut points and
their node_moment_weights on every call, and its frozen window_weights
of degree 0 times the density values, 0 off the support.
CutWeights.local takes the node moment weights of all its cuts in one
broadcast node_moment_weights call, which must give the one-window
weights row by row, and order 0 the frozen weights of degree 0;
LinearGaussianSource.push sets its product's tails below TAIL of its
largest entry to 0 and builds its belief without GridBelief's checks,
which its output must pass.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_moments
import zdq.beliefs
import zdq.sources
from zdq.beliefs import (
    EPS_MASS,
    CutWeights,
    Grid,
    GridBelief,
    _cell_weights,
    _cut_weights,
    _product_columns,
    default_grid,
    filter_update,
    node_moment_weights,
)
from zdq.costs import CostModel
from zdq.quantizers import CandidateSet, IntervalQuantizer, enumerate_interval_candidates
from zdq.sources import (
    TAIL,
    _PRODUCT_COLUMNS,
    LinearGaussianSource,
    _kernel_cut_moments,
    _transition_kernel,
)

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
    # cuts of one set at one point: signed zeros, and two cuts past a
    # grid end, which both clip to it
    shared = st.sampled_from(
        [(-0.0, 0.0), (0.0, -0.0), (grid.lo - 1.0, grid.lo - 1e-9), (grid.hi + 1e-9, grid.hi + 1.0)]
    )
    pairs = draw(st.lists(shared, max_size=2))
    cands += [cands[k] for k in repeats]
    return belief, CandidateSet(cands + [IntervalQuantizer((t,)) for pair in pairs for t in pair])


@settings(max_examples=200, deadline=None)
@given(densities_and_candidate_sets())
def test_cached_routes_return_the_uncached_bytes(case):
    belief, cands = case
    expected, center = reference_moments.cell_moments(belief, cands)
    # the first call may build the cut weights, the second reads them
    for _ in range(2):
        got, got_center = belief.cell_moments(cands)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes() and got_center == center
    for q in cands:
        for m in range(1, q.levels + 1):
            lo, hi = q.cell_interval(m)
            reference = reference_moments.window_weights(belief.grid, lo, hi, 0) * belief.values
            # part is the product on the cell's weight support within the
            # belief's support, 0 elsewhere
            start, part = belief.restrict(q, m)
            first, w = _cell_weights(belief.grid, lo, hi)
            first, stop = max(first, belief.support[0]), min(first + len(w), belief.support[1])
            assert (start, len(part)) == (first, max(stop - first, 0))
            got = np.zeros(belief.grid.n_points)
            got[start : start + len(part)] = part
            assert got.tobytes() == reference.tobytes()


def test_cached_arrays_are_read_only():
    cands = enumerate_interval_candidates(2, -2.0, 2.0, 5)
    _, w = _cell_weights(GRIDS[0], -1.0, 0.5)
    weights = _cut_weights(GRIDS[0], cands)
    for array in (w, weights.matrix, weights.local, weights.points, weights.slots, weights.ends,
                  GRIDS[0].moment_weights):
        with pytest.raises(ValueError):
            array[...] = 0


def test_same_thresholds_on_two_grids_get_their_own_tables():
    cands = enumerate_interval_candidates(3, -2.0, 2.0, 7)
    local_small, local_large = (_cut_weights(grid, cands).local for grid in GRIDS)
    assert not np.array_equal(local_small, local_large)
    (_, w_small), (_, w_large) = (_cell_weights(grid, -1.0, 0.5) for grid in GRIDS)
    assert w_small.tobytes() != w_large.tobytes()
    for grid in GRIDS:
        belief = GridBelief.normal(grid, 0.3, 1.2)
        expected, _ = reference_moments.cell_moments(belief, cands)
        assert belief.cell_moments(cands)[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("cache", [_cut_weights, _cell_weights], ids=["cut_weights", "cell_weights"])
def test_caches_stay_at_their_bound(cache):
    grid = Grid(-3.0, 3.0, 31)
    bound = cache.cache_info().maxsize
    for i in range(bound + 10):
        t = 1e-3 * i
        if cache is not _cell_weights:
            cache(grid, CandidateSet((IntervalQuantizer((t,)),)))
        else:
            cache(grid, t, 1.0)
    assert cache.cache_info().currsize == bound


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-8, 8), max_size=2, unique=True), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
)
def test_equal_candidate_sets_share_one_cache_entry(cuts, random):
    def build():
        return CandidateSet(IntervalQuantizer(tuple(sorted(0.25 * c for c in q))) for q in cuts)

    first, second = build(), build()
    assert first is not second and first == second and hash(first) == hash(second)
    assert _cut_weights(GRIDS[0], first) is _cut_weights(GRIDS[0], second)
    reordered = list(first)
    random.shuffle(reordered)
    assert (CandidateSet(reordered) == first) == (reordered == list(first))
    with pytest.raises(ValueError, match="candidate set must be nonempty"):
        CandidateSet([])


def test_cache_lookups_hash_no_quantizer(monkeypatch):
    cands = enumerate_interval_candidates(3, -2.0, 2.0, 11)
    belief = GridBelief.normal(GRIDS[0], 0.3, 1.2)
    belief.cell_moments(cands)
    hashed = []
    monkeypatch.setattr(IntervalQuantizer, "__hash__", lambda q: hashed.append(q) or 0)
    belief.cell_moments(cands)
    SOURCE.stage_floor(belief, cands, CostModel.quadratic())
    assert hashed == []


@settings(max_examples=100, deadline=None)
@given(densities_and_candidate_sets())
def test_push_output_passes_the_belief_checks(case):
    belief, cands = case
    grid = belief.grid
    for q in cands:
        for m in range(1, q.levels + 1):
            # the filter reads the belief and the cell, or on this grid
            # [-c, c] their mirror images, whichever is canonical
            lo, hi = q.cell_interval(m)
            flip = belief.orientation > 0 or (belief.orientation == 0 and (-hi, -lo) < (lo, hi))
            source, cell = (belief.mirror(), (q.mirror, q.levels + 1 - m)) if flip else (belief, (q, m))
            start, part = source.restrict(*cell)
            mass = float(part.sum())
            if mass <= EPS_MASS:
                continue
            got = filter_update(belief, SOURCE, q, m)
            # the checked constructor on the same values passes and keeps them
            assert GridBelief(grid, got.values).values.tobytes() == got.values.tobytes()
            # and they are the bytes of the product, its tails below TAIL of
            # its largest set to 0, built through the checks, and mirrored
            # back when the filter read the mirror images
            raw = _transition_kernel(SOURCE, grid).times(start, part) / mass
            above = np.flatnonzero(raw >= TAIL * raw.max())
            raw[: above[0]] = raw[above[-1] + 1 :] = 0.0
            expected = GridBelief(grid, raw / float(grid.trapezoid_weights @ raw))
            support = (above[0], above[-1] + 1)
            if flip:
                expected, support = expected.mirror(), (grid.n_points - support[1], grid.n_points - support[0])
            assert got.values.tobytes() == expected.values.tobytes()
            assert got.support == expected.support == support


@pytest.mark.parametrize("levels, n_cands", [(2, 21), (3, 11)])
def test_kernel_cut_moments_match_a_row_major_kernel(levels, n_cands):
    # every _PRODUCT_COLUMNS columns of a kernel block, or fewer where
    # the product would leave OpenBLAS's small-matrix kernel, are
    # multiplied as a row-major copy over the block's rows, which gives
    # the bytes of the band of a row-major kernel's product
    source = LinearGaussianSource(0.9, 1.0)
    grid = default_grid(source)
    cands = enumerate_interval_candidates(levels, -2.0, 2.0, n_cands)
    matrix = _cut_weights(grid, cands).matrix
    products = []
    for r0, block in _transition_kernel(source, grid).blocks:
        rows = np.ascontiguousarray(block)
        width = _product_columns(len(matrix), len(block), _PRODUCT_COLUMNS)
        for j in range(0, block.shape[1], width):
            products.append(matrix[:, r0 : r0 + len(block)] @ rows[:, j : j + width])
    expected = np.hstack(products)
    assert expected.shape == (matrix.shape[0], grid.n_points)
    assert _kernel_cut_moments(source, grid, cands).tobytes() == expected.tobytes()


class _Recorded(np.ndarray):
    """A view that records the operand shapes of every matmul it joins."""

    products = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) for x in inputs]
        if ufunc is np.matmul:
            _Recorded.products.append((inputs[0].shape, inputs[1].shape))
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize(
    "a, levels, lo, hi, steps, n_points",
    [(0.9, 2, -2.0, 2.0, 41, 801), (0.5, 3, -2.0, 2.0, 21, 801), (0.9, 3, -4.0, 4.0, 21, 801),
     (0.9, 2, -2.0, 2.0, 21, 1601), (0.5, 2, -2.0, 2.0, 137, 801)],
    ids=["K41", "L3-K210", "L3-wide", "a0.9-1601-nodes", "K137"],
)
def test_products_stay_in_the_small_matrix_kernel(monkeypatch, a, levels, lo, hi, steps, n_points):
    # OpenBLAS 0.3.31 on a 2-core Xeon multiplied (m, k) by (k, n) on one
    # thread while m k n <= 10^6, and past that in its threaded GEMM, whose
    # bytes depend on the thread count: every product of a grid belief's cell moments, of W K
    # and of the last-stage costs stays within the bound, on the largest
    # candidate sets of the tier-1 tests and the finest grid, and on 139
    # cut points, where cell_moments splits its product
    source = LinearGaussianSource(a, 1.0)
    grid = default_grid(source, n_points=n_points)
    cands = enumerate_interval_candidates(levels, lo, hi, steps)
    real = _cut_weights(grid, cands)
    recorded = CutWeights(grid, cands)
    recorded.__dict__.update(local=real.local.view(_Recorded), matrix=real.matrix.view(_Recorded))
    monkeypatch.setattr(zdq.beliefs, "_cut_weights", lambda grid, candidates: recorded)
    monkeypatch.setattr(zdq.sources, "_cut_weights", lambda grid, candidates: recorded)
    monkeypatch.setattr(_Recorded, "products", [])
    product = zdq.sources._kernel_cut_moments.__wrapped__(source, grid, cands)
    monkeypatch.setattr(zdq.sources, "_kernel_cut_moments", lambda *args: product.view(_Recorded))
    belief = GridBelief.normal(grid, 0.3, 0.5 * grid.hi)
    belief.cell_moments(cands)
    kept = np.ones((len(cands), cands.levels), dtype=bool)
    source.last_stage_costs(belief, cands, CostModel.quadratic(), kept)
    sizes = [m * k * (n[1] if len(n) > 1 else 1) for (m, k), n in _Recorded.products]
    assert len(sizes) > len(_transition_kernel(source, grid).blocks) + 1
    assert max(sizes) <= 10**6


def test_push_still_rejects_an_overflowed_kernel():
    # a subnormal noise_std overflows the kernel to inf, and the product to
    # inf and NaN; the checks that push skips for a normal mass catch it
    source = LinearGaussianSource(0.5, 5e-324)
    grid = Grid(-2.0, 2.0, 41)
    belief = GridBelief.normal(grid, 0.0, 1.0)
    for m in (1, 2):
        with pytest.raises(ValueError, match="density values must be finite"):
            with np.errstate(all="ignore"):
                filter_update(belief, source, IntervalQuantizer((0.0,)), m)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(GRIDS + (Grid(-1.0, 2.0, 3), Grid(0.25, 0.75, 17))),
    st.lists(
        st.one_of(
            st.floats(-10.0, 10.0),
            st.sampled_from([-math.inf, math.inf, -0.0, 0.0]),
            st.integers(0, 2).map(lambda i: [-1.0, 0.25, 2.0][i]),
        ),
        min_size=1,
        max_size=12,
    ),
    st.one_of(st.just(-math.inf), st.floats(-10.0, 10.0)),
)
def test_node_moment_weights_broadcast_matches_one_window_calls(grid, his, lo):
    # grid ends and nodes, cuts off the grid, signed zeros and infinities
    for t in (grid.lo, grid.hi, grid.nodes[1]):
        his = his + [t]
    rows = node_moment_weights(grid, lo, np.array(his))
    los = node_moment_weights(grid, np.full(len(his), lo), np.array(his))
    assert rows.shape == los.shape == (3, len(his), grid.n_points)
    for i, hi in enumerate(his):
        one = node_moment_weights(grid, lo, hi)
        assert one.shape == (3, grid.n_points)
        for m in range(3):
            assert rows[m, i].tobytes() == los[m, i].tobytes() == one[m].tobytes()
        # order 0 is the frozen weights of degree 0, bit for bit
        assert one[0].tobytes() == reference_moments.window_weights(grid, lo, hi, 0).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(GRIDS + (Grid(-1.0, 2.0, 3),)),
    st.lists(st.one_of(st.floats(-12.0, 12.0), st.sampled_from([-math.inf, math.inf])), min_size=2, max_size=2),
    st.floats(-12.0, 12.0),
)
def test_node_moment_weights_give_moments_about_any_center(grid, window, center):
    lo, hi = sorted(window)
    w = node_moment_weights(grid, lo, np.array([hi]))[:, 0]
    # order 0 is the frozen weights of degree 0, bit for bit
    assert w[0].tobytes() == reference_moments.window_weights(grid, lo, hi, 0).tobytes()
    values = np.exp(-0.5 * grid.nodes * grid.nodes) + 0.1
    y = grid.nodes - center
    about = [w[0] @ values, w[0] @ (y * values) + w[1] @ values,
             w[0] @ (y * y * values) + 2.0 * w[1] @ (y * values) + w[2] @ values]
    raw = [reference_moments.window_weights(grid, lo, hi, k) @ values for k in range(3)]
    expected = [raw[0], raw[1] - center * raw[0], raw[2] - 2.0 * center * raw[1] + center * center * raw[0]]
    scale = max(1.0, abs(center), grid.hi) ** 2
    assert np.allclose(about, expected, rtol=0.0, atol=1e-12 * scale)


def test_node_moment_weights_of_a_whole_hat():
    # an interior hat is symmetric about its node: d, 0 and d^3 / 6
    grid = GRIDS[0]
    d, j = grid.spacing, grid.n_points // 2
    w = node_moment_weights(grid, -math.inf, math.inf)
    assert np.allclose(w[:, j], [d, 0.0, d**3 / 6.0], rtol=1e-14, atol=1e-18)
