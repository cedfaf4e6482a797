import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from scipy.integrate import trapezoid

import reference_moments
import zdq.beliefs
from conftest import MOMENT_ERROR
from reference_density import check_S_membership, density_bounds, uniform_belief
from reference_filter import invert_one, predict, sample_one, tv_distance
from zdq.beliefs import (
    Grid,
    GridBelief,
    SimplexBelief,
    ZeroMassSymbolError,
    _cell_weights,
    _cut_weights,
    _raw_moment_weights,
    default_grid,
    filter_update,
    node_moment_weights,
)
from zdq.costs import CostModel, cell_decisions
from zdq.quantizers import (
    CandidateSet,
    FinitePartition,
    IntervalQuantizer,
    enumerate_finite_partitions,
    enumerate_interval_candidates,
)
from zdq.sources import (
    TAIL,
    FiniteChain,
    LinearGaussianSource,
    _transition_kernel,
)


def std_normal_belief(n_points=801, span=8.0):
    grid = Grid(-span, span, n_points)
    return GridBelief.normal(grid, 0.0, 1.0)


@functools.lru_cache(maxsize=32)
def one_shot_kernel(model, grid):
    """The dense transition kernel K[j, i], by the elementwise formula;
    read-only, kept per (model, grid)."""
    x, s = grid.nodes, model.noise_std
    u = (x[:, None] - model.a * x[None, :]) / s
    kernel = np.exp(-0.5 * u * u) / (s * math.sqrt(2.0 * math.pi))
    kernel.flags.writeable = False
    return kernel


def kernel_blocks(kernel):
    """(rows, cols, block) of every block of a banded kernel: the slices
    of the dense kernel that the block holds."""
    i = 0
    for r0, block in kernel.blocks:
        yield slice(r0, r0 + len(block)), slice(i, i + block.shape[1]), block
        i += block.shape[1]


def assert_band_drops_only_tiny_entries(model, grid, one_shot):
    # the blocks cover every column, and every entry they drop is at
    # most 2^-60 of its column's largest
    kept = np.zeros(one_shot.shape, dtype=bool)
    for rows, cols, _ in kernel_blocks(_transition_kernel(model, grid)):
        kept[rows, cols] = True
    assert cols.stop == grid.n_points
    assert np.all(np.where(kept, 0.0, one_shot) <= 2.0**-60 * one_shot.max(axis=0))


# ---------------------------------------------------------------------------
# grids and the weights of a window


def test_grid_basics():
    g = Grid(-2.0, 2.0, 17)
    assert g.spacing == 0.25
    assert g.nodes[0] == -2.0 and g.nodes[-1] == 2.0
    assert abs(g.trapezoid_weights.sum() - 4.0) < 1e-12
    with pytest.raises(ValueError):
        Grid(1.0, -1.0, 17)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 2)


def test_default_grid_span(ar_source):
    g = default_grid(ar_source)
    assert abs(g.hi - 8.0 * ar_source.stationary_std) < 1e-12
    assert g.lo == -g.hi


def test_window_weights_full_range_is_trapezoid():
    g = Grid(-1.0, 3.0, 33)
    w = g.moment_weights[0]
    assert w.tobytes() == node_moment_weights(g, -np.inf, np.inf)[0].tobytes()
    assert np.max(np.abs(w - g.trapezoid_weights)) < 1e-15


def test_window_weights_exact_on_piecewise_linear():
    # reference: dense trapezoid on the interpolant, which converges to
    # the exact piecewise-linear integral
    rng = np.random.default_rng(4)
    g = Grid(-2.0, 2.0, 21)
    vals = rng.uniform(0.2, 1.0, g.n_points)
    lo, hi = -1.37, 0.83  # cuts interior segments
    fine = np.linspace(lo, hi, 400001)
    interp = np.interp(fine, g.nodes, vals)
    # the weights of x and x^2 are derived from the node-moment weights,
    # of the window and up to each cut of a candidate set (points -inf,
    # lo, hi, +inf)
    raw = _raw_moment_weights(g, node_moment_weights(g, lo, hi))
    matrix = _cut_weights(g, CandidateSet((IntervalQuantizer((lo, hi)),))).matrix
    for degree in (0, 1, 2):
        ref = float(trapezoid(interp * fine**degree, fine))
        for w in (raw[degree], matrix[4 * degree + 2] - matrix[4 * degree + 1]):
            got = float(w @ vals)
            assert abs(got - ref) < 5e-9, (degree, got, ref)


def test_window_weights_splits_boundary_segment():
    # integrating half a segment must not round to whole nodes
    g = Grid(0.0, 1.0, 17)
    vals = np.ones(g.n_points)
    w = node_moment_weights(g, 0.0, g.spacing / 2)[0]
    assert abs(w @ vals - g.spacing / 2) < 1e-15


def test_window_weights_empty_window():
    g = Grid(0.0, 1.0, 17)
    assert np.all(node_moment_weights(g, 0.7, 0.7) == 0.0)
    assert np.all(node_moment_weights(g, 0.7, 0.2) == 0.0)
    assert _cell_weights(g, 0.7, 0.7)[1].size == 0


# ---------------------------------------------------------------------------
# belief containers


def test_grid_belief_normalization_and_validation():
    g = Grid(-8.0, 8.0, 101)
    b = GridBelief.from_unnormalized(g, np.exp(-0.5 * g.nodes**2))
    assert abs(float(trapezoid(b.values, g.nodes)) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        GridBelief(g, -np.ones(g.n_points))
    with pytest.raises(ValueError):
        GridBelief(g, np.ones(g.n_points))  # integrates to 16, not 1


@pytest.mark.parametrize(
    "hi, tiny, scaled",
    [
        (1.0, [0.0, 0.0, 5e-324], [0.0, 0.0, 1.0]),  # the mass underflows to 0
        (3.0, [0.0, 0.0, 5e-324], [0.0, 0.0, 1.0]),  # rounds to 1 ulp, 0.75 too much
        (3.0, [1e-310, 3e-310, 0.0, 2e-310], [1.0, 3.0, 0.0, 2.0]),
    ],
)
def test_grid_belief_normalizes_a_subnormal_mass(hi, tiny, scaled):
    # a total mass below the least normal float is rescaled by the
    # largest value before it is divided by
    g = Grid(0.0, hi, len(tiny))
    b = GridBelief.from_unnormalized(g, np.array(tiny))
    expected = GridBelief.from_unnormalized(g, np.array(scaled)).values
    np.testing.assert_allclose(b.values, expected, rtol=1e-12, atol=0.0)
    # a normal mass, however small, is divided by as it is
    v = np.array(scaled) * 1e-300
    assert np.array_equal(
        GridBelief.from_unnormalized(g, v).values, v / float(g.trapezoid_weights @ v)
    )
    with pytest.raises(ValueError, match="nonpositive total mass"):
        GridBelief.from_unnormalized(g, np.zeros(len(tiny)))


def test_grid_belief_moments():
    b = std_normal_belief()
    assert abs(b.mean) < 1e-12
    assert abs(b.std - 1.0) < 1e-3
    assert abs(b.grid.moment_weights[1] @ b.values) < 1e-12
    assert abs(b.grid.moment_weights[2] @ b.values - 1.0) < 1e-3


def test_grid_belief_point_mass():
    g = Grid(-4.0, 4.0, 161)
    b = GridBelief.point_mass(g, 1.0)
    assert abs(b.mean - 1.0) < 1e-9
    assert b.std < g.spacing


def test_grid_belief_keys_differ():
    b1 = std_normal_belief()
    b2 = std_normal_belief()
    assert b1.key() == b2.key()
    g = b1.grid
    b3 = GridBelief.normal(g, 0.1, 1.0)
    assert b1.key() != b3.key()


def test_belief_equality_is_identity():
    # == is identity, so it never compares the arrays (which raised);
    # key() compares two beliefs by value
    grid = Grid(-3.0, 3.0, 31)
    pairs = [
        (GridBelief.normal(grid, 0.0, 1.0), GridBelief.normal(grid, 0.0, 1.0)),
        (SimplexBelief(np.array([0.25, 0.75])), SimplexBelief(np.array([0.25, 0.75]))),
    ]
    for belief, copy in pairs:
        assert belief == belief
        assert (belief == copy) is False and belief != copy
        assert belief.key() == copy.key()


def test_grid_belief_holds_one_read_only_buffer(ar_source):
    grid = default_grid(ar_source)
    prior = GridBelief.normal(grid, 0.3, 1.2)
    # the checked constructor and the filter's unchecked one
    for b in (prior, filter_update(prior, ar_source, IntervalQuantizer((0.0,)), 2)):
        key = b.key()
        assert b.key() is key and b.values.base is key
        assert b.values.tobytes() == key and not b.values.flags.writeable
        with pytest.raises(ValueError):
            b.values[0] = 0.0


def test_mirror_image_shares_its_twins_buffer(ar_source):
    # mirror() builds no array: the image's values are a reversed view of
    # its twin's buffer until its key() is first read, which copies them
    # into a buffer of its own that its values then view. The image of
    # the image has the belief's key, and a belief that is not its own
    # mirror image has a key other than its image's
    grid = default_grid(ar_source)
    prior = GridBelief.normal(grid, 0.3, 1.2)
    posterior = filter_update(prior, ar_source, IntervalQuantizer((0.0,)), 2)
    for b in (prior, posterior, GridBelief.normal(grid, -0.3, 1.2)):
        image = b.mirror()
        assert np.shares_memory(image.values, b.values)
        assert image.values.tobytes() == b.values[::-1].tobytes()
        assert image.mirror().key() == b.key()
        assert b.orientation != 0 and image.orientation == -b.orientation
        key = image.key()
        assert key != b.key() and image.values.base is key
        assert not np.shares_memory(image.values, b.values)
    centred = GridBelief.normal(grid, 0.0, 1.0)
    assert centred.orientation == 0 and centred.mirror() is centred


def test_grid_belief_caches_mean_and_std():
    for b in (std_normal_belief(), GridBelief.normal(Grid(-3.0, 9.0, 301), 4.0, 0.7)):
        mean = float(b.grid.moment_weights[1] @ b.values)
        var = float(b.grid.moment_weights[2] @ b.values) - mean * mean
        for _ in range(2):
            assert b.mean == mean and b.std == math.sqrt(max(var, 0.0))


def test_grid_belief_copies_the_array_it_is_built_from():
    grid = Grid(-4.0, 4.0, 161)
    values = GridBelief.normal(grid, 0.0, 1.0).values.copy()
    b = GridBelief(grid, values)
    key, mean = b.key(), b.mean
    values[:] = 0.0
    assert b.key() == key and b.values.tobytes() == key and b.mean == mean


def test_grid_belief_sampling():
    b = std_normal_belief()
    rng = np.random.default_rng(5)
    draws = b.inverse_cdf(rng.random(4000))
    assert abs(draws.mean()) < 0.06
    assert abs(draws.std() - 1.0) < 0.06


def test_simplex_belief_validation_and_stats():
    b = SimplexBelief(np.array([0.25, 0.75]), states=np.array([-1.0, 1.0]))
    assert abs(b.mean - 0.5) < 1e-15
    assert abs(b.std - math.sqrt(1.0 - 0.25)) < 1e-15
    with pytest.raises(ValueError):
        SimplexBelief(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SimplexBelief(np.array([-0.1, 1.1]))


@pytest.mark.parametrize(
    "probabilities",
    [[math.nan, 0.5], [math.nan, math.nan], [math.inf, 0.0], [0.5, 0.5, -math.inf]],
)
def test_simplex_belief_rejects_non_finite(probabilities):
    with pytest.raises(ValueError, match="finite"):
        SimplexBelief(np.array(probabilities))


def test_grid_belief_rejects_non_finite():
    g = Grid(-1.0, 1.0, 5)
    values = np.full(g.n_points, 0.5)
    values[2] = math.nan
    with pytest.raises(ValueError, match="finite"):
        GridBelief(g, values)


def test_simplex_belief_sampling():
    b = SimplexBelief(np.array([0.3, 0.7]))
    rng = np.random.default_rng(6)
    draws = b.inverse_cdf(rng.random(5000))
    assert abs(draws.mean() - 0.7) < 0.02


@pytest.mark.parametrize(
    "belief",
    [
        SimplexBelief(np.array([0.3, 0.0, 0.2, 0.5])),
        SimplexBelief(np.array([0.0, 1.0])),
        GridBelief.normal(Grid(-4.0, 4.0, 41), 0.7, 1.1),
        uniform_belief(Grid(-1.0, 1.0, 21), -0.5, 0.25),
    ],
    ids=["simplex", "simplex-point", "grid-normal", "grid-uniform"],
)
def test_inverse_cdf_matches_sample(belief):
    # inverse_cdf of a generator's next uniform variate is the reference
    # draw, which takes uniform(0, total mass) or Generator.choice from it
    seeds = range(300)
    variates = [np.random.default_rng(seed).random() for seed in seeds]
    draws = [sample_one(belief, np.random.default_rng(seed)) for seed in seeds]
    assert belief.inverse_cdf(variates).tolist() == draws


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0.0), st.sampled_from([0.5, 2.0]), st.floats(1e-3, 5.0)),
        min_size=3,
        max_size=40,
    ).filter(any),
    st.floats(-3.0, 0.0, exclude_max=True),
    st.floats(0.1, 3.0),
    st.integers(0, 2**32 - 1),
)
# some variate here gives dv0 * dv0 != dv0 ** 2 in the segment solve, so
# either solve squaring with ** again fails on it
@example(values=[4.43, 1.83, 0.41], lo=-1.0, width=2.0, seed=0)
def test_grid_inverse_cdf_matches_scalar_inversion(values, lo, width, seed):
    # flat segments (repeated values), zero-density nodes, the variate 0
    # and every segment's start, plus random variates
    belief = GridBelief.from_unnormalized(Grid(lo, lo + width, len(values)), values)
    cum = belief._cumulative_mass()
    starts = cum / cum[-1]
    variates = np.concatenate(
        ([0.0], starts[starts < 1.0], np.random.default_rng(seed).random(64))
    )
    got = belief.inverse_cdf(variates)
    want = np.array([invert_one(belief, w) for w in variates.tolist()])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "a, grid",
    [(0.5, None), (0.9, None), (0.5, Grid(-3.0, 3.0, 130)), (-0.7, Grid(-2.0, 1.0, 50))],
    ids=["a0.5-default", "a0.9-default", "130-nodes", "50-nodes"],
)
def test_transition_kernel_matches_one_shot_formula(a, grid):
    # the kernel holds each column's band, in blocks of columns: every
    # entry of every block is the one-shot formula's, every dropped entry
    # at most 2^-60 of its column's largest; each stored block is
    # column-major and read-only, and each mirrored one a read-only view
    # of its stored image
    model = LinearGaussianSource(a, 1.0)
    grid = default_grid(model) if grid is None else grid
    one_shot = one_shot_kernel(model, grid)
    kernel = _transition_kernel(model, grid)
    for b, (rows, cols, block) in enumerate(kernel_blocks(kernel)):
        assert np.array_equal(block, one_shot[rows, cols])
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 0.0
        if b < kernel.stored:
            assert block.flags.f_contiguous
        else:
            assert np.shares_memory(block, kernel.blocks[-1 - b][1])
    assert_band_drops_only_tiny_entries(model, grid, one_shot)


# no example database: target() would send every example through
# hypothesis's Pareto-front bookkeeping, which cost more than the checks
@settings(max_examples=200, deadline=None, database=None)
@given(
    st.sampled_from([-0.7, 0.0, 0.5, 0.9, 0.99]),
    st.sampled_from([0.3, 1.0, 2.5]),
    st.one_of(
        st.none(),
        st.builds(
            lambda lo, width, n: Grid(lo, lo + width, n),
            st.floats(-30.0, 10.0),
            st.floats(0.5, 40.0),
            st.integers(3, 200),
        ),
        st.builds(lambda c, n: Grid(-c, c, n), st.floats(0.5, 20.0), st.integers(130, 400)),
    ),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_banded_push_matches_the_dense_product(a, noise, grid, seed, blind):
    # the push's banded product against the dense kernel's, over random
    # restrictions (start, part) and the full-width blind cell; default
    # grids and grids [-c, c] are symmetric, so the push reads mirrored
    # blocks there
    model = LinearGaussianSource(a, noise)
    grid = default_grid(model) if grid is None else grid
    n = grid.n_points
    rng = np.random.default_rng(seed)
    start = 0 if blind else int(rng.integers(0, n))
    stop = n if blind else int(rng.integers(start + 1, n + 1))
    part = rng.random(stop - start)
    one_shot = one_shot_kernel(model, grid)
    assert_band_drops_only_tiny_entries(model, grid, one_shot)
    dense = one_shot[:, start:stop] @ part
    got = _transition_kernel(model, grid).times(start, part)
    # a grid far from every column's centre underflows both to 0
    deviation, scale = float(np.max(np.abs(got - dense))), float(dense.max())
    target(deviation / scale if scale else 0.0, label="deviation over the dense result's largest entry")
    assert deviation <= 1e-13 * scale


def accumulated_push(kernel, start, part):
    """K[:, start : start + len(part)] @ part block by block, each block's
    product (through its stored image, reversed, for a mirrored block)
    added into one array in increasing block order."""
    out = np.zeros(kernel.n_points)
    stop = start + len(part)
    flipped = part[::-1].copy()
    for b, (c0, (r0, block)) in enumerate(zip(kernel.starts, kernel.blocks)):
        c1 = c0 + block.shape[1]
        lo, hi = max(start, c0), min(stop, c1)
        if lo >= hi:
            continue
        rows = out[r0 : r0 + len(block)]
        if b < kernel.stored:
            rows += block[:, lo - c0 : hi - c0] @ part[lo - start : hi - start]
        else:
            image = kernel.blocks[-1 - b][1]
            rows[::-1] += image[:, c1 - hi : c1 - lo] @ flipped[stop - hi : stop - lo]
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([-0.7, 0.0, 0.5, 0.9, 0.99]),
    st.sampled_from([0.3, 1.0, 2.5]),
    st.sampled_from([None, Grid(-4.0, 2.0, 300), Grid(-6.0, 6.0, 1600)]),
    st.integers(0, 2**32 - 1),
)
def test_banded_push_sums_block_products_in_order(a, noise, grid, seed):
    # the push writes each block's product into its rows of a row of
    # zeros of its own and sums the rows in block order: the bytes of
    # adding every product into one array in block order
    model = LinearGaussianSource(a, noise)
    grid = default_grid(model) if grid is None else grid
    n = grid.n_points
    kernel = _transition_kernel(model, grid)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        start = int(rng.integers(0, n))
        part = rng.random(int(rng.integers(1, n - start + 1))) * 10.0 ** rng.integers(-200, 200)
        assert kernel.times(start, part).tobytes() == accumulated_push(kernel, start, part).tobytes()


@pytest.mark.parametrize(
    "where",
    ["right-of-middle", "straddling-middle", "to-last-node", "blind"],
)
def test_banded_push_reads_mirrored_blocks(where):
    # on the a = 0.9 default grid the blocks past the middle one are
    # mirrored views: a part wholly right of the middle block, one across
    # it, one ending at the last node and the blind cell
    model = LinearGaussianSource(0.9, 1.0)
    grid = default_grid(model)
    n = grid.n_points
    kernel = _transition_kernel(model, grid)
    start, stop = {
        "right-of-middle": (kernel.starts[kernel.stored] + 10, n - 30),
        "straddling-middle": (kernel.starts[kernel.stored - 1] - 50, kernel.starts[kernel.stored] + 70),
        "to-last-node": (n - 150, n),
        "blind": (0, n),
    }[where]
    assert kernel.stored < len(kernel.blocks) and start >= 0 and stop <= n
    part = np.random.default_rng(start).random(stop - start)
    dense = one_shot_kernel(model, grid)[:, start:stop] @ part
    got = kernel.times(start, part)
    assert float(np.max(np.abs(got - dense))) <= 1e-13 * float(dense.max())


def test_band_covers_the_default_grid_at_a_zero():
    # at a = 0 every column is N(0, s^2), and the default grid's 8
    # stationary stds lie within the band's 9.12 noise stds
    model = LinearGaussianSource(0.0, 1.0)
    grid = default_grid(model)
    for r0, block in _transition_kernel(model, grid).blocks:
        assert (r0, len(block)) == (0, grid.n_points)


def nonzero_extent(values):
    nz = np.flatnonzero(values)
    return int(nz[0]), int(nz[-1]) + 1


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([-0.7, 0.5, 0.9, 0.99]),
    st.sampled_from([0.3, 1.0, 2.5]),
    st.one_of(
        st.none(),
        st.builds(
            lambda half, ratio, n: Grid(-half, ratio * half, n),
            st.floats(1.0, 20.0),
            st.floats(0.7, 1.4),
            st.integers(3, 200),
        ),
    ),
    st.integers(0, 2**32 - 1),
)
def test_pushed_beliefs_are_trimmed_to_their_support(a, noise, grid, seed):
    # the push zeroes each tail of its product below TAIL of the largest
    # entry and the belief keeps the node range between as its support;
    # every constructor's support is the extent of the nonzero values
    model = LinearGaussianSource(a, noise)
    grid = default_grid(model) if grid is None else grid
    rng = np.random.default_rng(seed)
    span = grid.hi - grid.lo
    belief = GridBelief.normal(grid, rng.uniform(grid.lo, grid.hi), rng.uniform(0.02, 0.5) * span)
    values = rng.random(grid.n_points)
    values[rng.integers(0, grid.n_points) :] = 0.0
    values[: rng.integers(0, grid.n_points // 2)] = 0.0
    inner = rng.integers(0, grid.n_points)
    values[inner : inner + rng.integers(0, 5)] = 0.0  # zeros inside the extent
    built = [belief, GridBelief.point_mass(grid, rng.uniform(grid.lo, grid.hi))]
    built.append(uniform_belief(grid, grid.lo + 0.3 * span, grid.hi - 0.3 * span))
    if values.any():
        built.append(GridBelief.from_unnormalized(grid, values))
        built.append(GridBelief(grid, built[-1].values))
    for b in built:
        assert b.support == nonzero_extent(b.values)
    kernel = _transition_kernel(model, grid)
    e = MOMENT_ERROR
    deviations = []
    for _ in range(3):
        q = IntervalQuantizer(tuple(sorted(rng.uniform(grid.lo, grid.hi, rng.integers(1, 3)))))
        m = 1 + int(np.argmax(belief.cell_moments([q])[0][0, 0]))
        try:
            pushed = filter_update(belief, model, q, m)
        except ZeroMassSymbolError:
            break  # the restriction's columns all underflow on a coarse grid
        values, (lo, hi) = pushed.values, pushed.support
        assert (lo, hi) == nonzero_extent(values)
        assert min(values[lo], values[hi - 1]) >= TAIL * values.max()
        # the untrimmed product of the same restriction, renormalized
        start, part = belief.restrict(q, m)
        raw = kernel.times(start, part)
        untrimmed = raw / float(grid.trapezoid_weights @ raw)
        deviations.append(float(np.abs(values - untrimmed).max() / untrimmed.max()))
        # the support's moments against the full grid's: each a sum of
        # the same nonzero terms, so within the cell moments' error bound
        mean_full = float(grid.moment_weights[1] @ values)
        m2_full = float(grid.moment_weights[2] @ values)
        a1 = float(np.abs(grid.moment_weights[1]) @ values)
        assert abs(pushed.mean - mean_full) <= e * a1
        assert abs(pushed.std**2 - (m2_full - mean_full**2)) <= 2.0 * e * (m2_full + abs(mean_full) * a1)
        cands = [q, IntervalQuantizer((float(rng.uniform(grid.lo, grid.hi)),))]
        # and the cell moments against the same sums in extended precision
        moments, center = pushed.cell_moments(cands)
        exact, _ = reference_moments.cell_moments(pushed, cands, np.longdouble)
        assert center == pushed.mean
        scale = pushed.std + grid.spacing
        for k in range(3):
            assert np.all(np.abs(moments[k] - exact[k]) <= e * scale**k)
        belief = pushed
    assert max(deviations, default=0.0) <= 1e-14


# ---------------------------------------------------------------------------
# filtering


def test_filter_update_no_information_is_prediction(two_state_chain):
    # one-cell quantizer conveys nothing: posterior = prior pushed by P
    b = SimplexBelief(np.array([0.5, 0.5]))
    blind = FinitePartition((1, 1), 1)
    out = filter_update(b, two_state_chain, blind, 1)
    assert np.max(np.abs(out.probabilities - [0.55, 0.45])) < 1e-12


def test_filter_update_identity_conditioning():
    chain = FiniteChain(np.eye(2), np.array([0.5, 0.5]))
    b = SimplexBelief(np.array([0.5, 0.5]))
    sep = FinitePartition((1, 2), 2)
    out = filter_update(b, chain, sep, 1)
    assert np.max(np.abs(out.probabilities - [1.0, 0.0])) < 1e-15


def test_filter_update_matches_hand_bayes(three_state_chain):
    b = SimplexBelief(np.array([0.2, 0.5, 0.3]), states=three_state_chain.state_values)
    part = FinitePartition((1, 2, 1), 2)
    out = filter_update(b, three_state_chain, part, 1)
    mass = 0.2 + 0.3
    post = np.array([0.2, 0.0, 0.3]) / mass
    expected = post @ three_state_chain.transition
    assert np.max(np.abs(out.probabilities - expected)) < 1e-15


def test_filter_update_iid_forgets_everything(iid_source):
    b = GridBelief.normal(default_grid(iid_source), 1.5, 0.7)
    q = IntervalQuantizer((0.0,))
    out = filter_update(b, iid_source, q, 2)
    target = GridBelief.normal(b.grid, 0.0, 1.0)
    assert tv_distance(out, target) < 1e-12


def test_filter_update_zero_mass_symbol_raises(two_state_chain):
    b = SimplexBelief(np.array([1.0, 0.0]))
    sep = FinitePartition((1, 2), 2)
    with pytest.raises(ZeroMassSymbolError):
        filter_update(b, two_state_chain, sep, 2)


WIDE_CELL_UPDATES = """
import hashlib
from zdq.beliefs import GridBelief, default_grid, filter_update
from zdq.quantizers import IntervalQuantizer
from zdq.sources import LinearGaussianSource
source = LinearGaussianSource(0.5, 1.0)
prior = GridBelief.normal(default_grid(source), 0.3, 1.2)
for q in (IntervalQuantizer(()), IntervalQuantizer((5.0,))):
    print(hashlib.sha256(filter_update(prior, source, q, 1).key()).hexdigest())
"""


def test_wide_cell_update_does_not_depend_on_blas_threads():
    # a blind or lopsided cell reads every kernel column; no product of
    # the push is wide enough for a threaded BLAS path, so one BLAS
    # thread and the default count give the same bytes
    src = os.path.dirname(os.path.dirname(zdq.beliefs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    outputs = [
        subprocess.run(
            [sys.executable, "-c", WIDE_CELL_UPDATES], env=e, capture_output=True, text=True, check=True
        ).stdout
        for e in (env, dict(env, OPENBLAS_NUM_THREADS="1"))
    ]
    assert len(outputs[0].split()) == 2 and outputs[0] == outputs[1]


def test_filter_law_of_total_probability(ar_source):
    b = GridBelief.normal(default_grid(ar_source), 0.3, 1.1)
    q = IntervalQuantizer((-0.5, 0.8))
    pred = predict(b, ar_source)
    mix = np.zeros_like(pred.values)
    masses = cell_decisions(b, [q], CostModel.quadratic())[1][0]
    for m, mass in enumerate(masses, start=1):
        mix += mass * filter_update(b, ar_source, q, m).values
    assert float(trapezoid(np.abs(mix - pred.values), b.grid.nodes)) < 1e-12


def test_predict_point_mass(ar_source):
    # the spike snaps to the nearest node, so compare against the law
    # pushed through from the snapped belief, not from x0 itself
    g = default_grid(ar_source)
    b = GridBelief.point_mass(g, 2.0)
    out = predict(b, ar_source)
    a, s = ar_source.a, ar_source.noise_std
    want_mean = a * b.mean
    want_std = math.sqrt(s * s + (a * b.std) ** 2)
    assert abs(out.mean - want_mean) < 2e-4
    assert abs(out.std - want_std) < 2e-4


def test_predict_identity_chain():
    chain = FiniteChain(np.eye(3), np.array([0.2, 0.3, 0.5]))
    b = SimplexBelief(np.array([0.2, 0.3, 0.5]))
    out = predict(b, chain)
    assert np.max(np.abs(out.probabilities - b.probabilities)) < 1e-15


# ---------------------------------------------------------------------------
# distances and diagnostics


def test_tv_distance_simplex():
    b1 = SimplexBelief(np.array([1.0, 0.0]))
    b2 = SimplexBelief(np.array([0.0, 1.0]))
    assert tv_distance(b1, b1) == 0.0
    assert abs(tv_distance(b1, b2) - 2.0) < 1e-15
    b3 = SimplexBelief(np.array([0.75, 0.25]))
    b4 = SimplexBelief(np.array([0.25, 0.75]))
    assert abs(tv_distance(b3, b4) - 1.0) < 1e-15


def test_tv_distance_grid():
    g = Grid(-10.0, 10.0, 801)
    near = GridBelief.normal(g, 4.0, 0.5)
    far = GridBelief.normal(g, -4.0, 0.5)
    assert tv_distance(near, far) > 2.0 - 1e-6
    assert tv_distance(near, near) == 0.0
    other = GridBelief.normal(Grid(-10.0, 10.0, 401), 4.0, 0.5)
    with pytest.raises(ValueError):
        tv_distance(near, other)


def test_check_s_membership_uniform_passes():
    g = Grid(-5.0, 5.0, 101)
    b = uniform_belief(g, -5.0, 5.0)

    class Bounds:
        sup_density = 0.4
        slope_bound = 0.25

    rep = check_S_membership(b, Bounds(), tol=0.0)
    assert rep.passed
    assert abs(rep.max_density - 0.1) < 1e-12
    assert rep.max_slope == 0.0


def test_check_s_membership_spike_fails(iid_source):
    g = Grid(-5.0, 5.0, 101)
    b = GridBelief.point_mass(g, 0.0)
    rep = check_S_membership(b, density_bounds(iid_source), tol=0.01)
    assert not rep.passed


def test_filter_outputs_stay_in_class(ar_source):
    bounds = density_bounds(ar_source)
    b = GridBelief.normal(default_grid(ar_source), 0.0, ar_source.stationary_std)
    q = IntervalQuantizer((0.0,))
    tol = 2.0 * b.grid.spacing * bounds.slope_bound
    for m in (1, 2):
        out = filter_update(b, ar_source, q, m)
        rep = check_S_membership(out, bounds, tol=tol)
        assert rep.passed, (m, rep)


def _bits(result) -> list:
    return [np.asarray(part).tobytes() for part in (result if isinstance(result, tuple) else (result,))]


def test_set_methods_take_a_list(ar_source, three_state_chain):
    # a list of quantizers is taken as its CandidateSet, with the same bits
    cands = enumerate_interval_candidates(3, -2.0, 2.0, 7)
    grid_belief = GridBelief.normal(default_grid(ar_source), 0.3, 1.2)
    kept = np.ones((len(cands), cands.levels), dtype=bool)
    quad = CostModel.quadratic()
    partitions = enumerate_finite_partitions(3, 2)
    simplex = three_state_chain.invariant_distribution()
    for method, given, extra in [
        (grid_belief.cell_moments, cands, ()),
        (simplex.cell_moments, partitions, ()),
        (lambda c: ar_source.column_costs(grid_belief, c, quad).min(), cands, ()),
        (lambda c, k: ar_source.last_stage_costs(grid_belief, c, quad, k), cands, (kept,)),
    ]:
        assert _bits(method(list(given), *extra)) == _bits(method(given, *extra))
