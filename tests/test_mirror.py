"""Mirror symmetry under x -> -x: exact where the inputs are symmetric.

A Grid on [-c, c] has nodes that are exact negations of each other, and
so are the candidate thresholds enumerated on [-c, c]. A CandidateSet
closed under exact negation carries its mirror map k -> k̄, an
involution; any other set has none. The banded transition kernel of an
AR(1) source is centrosymmetric on such a grid, bit for bit, holds the
one-shot formula's entries and stores each mirror pair of blocks once. filter_update and cell_decisions read a
belief in its canonical orientation, so a belief's mirror image gives
the mirror image of every output, byte for byte. The dynamic program
searches mirror twins once and must still return what the exhaustive
reference returns, on sets with two and three levels.
"""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_dp import exhaustive_solve
from test_beliefs import kernel_blocks, one_shot_kernel
from test_branch_and_bound import assert_matches_reference
import zdq.sources
from zdq.beliefs import EPS_MASS, Grid, GridBelief, default_grid, filter_update
from zdq.costs import CostModel, cell_decisions
from zdq.dp import solve_finite_horizon
from zdq.quantizers import CandidateSet, IntervalQuantizer, enumerate_interval_candidates
from zdq.sources import LinearGaussianSource, _transition_kernel

QUAD = CostModel.quadratic()


@pytest.mark.parametrize("n", [801, 800, 3])
def test_grid_nodes_are_exact_negations(n):
    x = Grid(-9.237604307034013, 9.237604307034013, n).nodes
    assert np.array_equal(x, -x[::-1])
    assert x[0] == -9.237604307034013 and x[-1] == 9.237604307034013


@pytest.mark.parametrize("levels, lo, hi, steps", [(2, -2.0, 2.0, 11), (3, -4.0, 4.0, 21)])
def test_mirror_map_is_an_involution_of_negated_thresholds(levels, lo, hi, steps):
    cands = enumerate_interval_candidates(levels, lo, hi, steps)
    ids = cands.mirror.ids
    assert np.array_equal(ids[ids], np.arange(len(cands)))
    for k, j in enumerate(ids.tolist()):
        assert cands[j].thresholds == tuple(-t for t in reversed(cands[k].thresholds))
    # the cells of k̄ are those of k, reversed
    q = cands[0]
    assert [cands[ids[0]].cell_interval(q.levels + 1 - m) for m in range(1, q.levels + 1)] == [
        (-hi_, -lo_) for lo_, hi_ in (q.cell_interval(m) for m in range(1, q.levels + 1))
    ]


def test_sets_not_closed_under_negation_have_no_mirror_map():
    assert enumerate_interval_candidates(2, -4.0, 2.0, 21).mirror is None
    near = CandidateSet([IntervalQuantizer((0.4,)), IntervalQuantizer((-0.3999999999999999,))])
    assert near.mirror is None
    # copies pair off one to one, so unequal counts have no map
    once = IntervalQuantizer((0.5,))
    assert CandidateSet([once, once, IntervalQuantizer((-0.5,))]).mirror is None
    assert CandidateSet([once, IntervalQuantizer((-0.5,)), once]).mirror is None


@pytest.mark.parametrize(
    "a, grid",
    [(0.5, None), (0.9, None), (-0.7, Grid(-3.0, 3.0, 130)), (0.3, Grid(-2.0, 2.0, 40))],
    ids=["a0.5-default", "a0.9-default", "130-nodes", "40-nodes"],
)
def test_kernel_is_the_formula_and_centrosymmetric(a, grid):
    model = LinearGaussianSource(a, 1.0)
    grid = default_grid(model) if grid is None else grid
    one_shot = one_shot_kernel(model, grid)
    dense = np.zeros_like(one_shot)
    kept = np.zeros(one_shot.shape, dtype=bool)
    for rows, cols, block in kernel_blocks(_transition_kernel(model, grid)):
        assert np.array_equal(block, one_shot[rows, cols])
        dense[rows, cols], kept[rows, cols] = block, True
    assert np.array_equal(dense, dense[::-1, ::-1])
    assert np.array_equal(kept, kept[::-1, ::-1])


@pytest.mark.parametrize("n", [801, 800, 101])
@pytest.mark.parametrize("a", [0.0, 0.5, 0.9, -0.6])
def test_symmetric_kernel_stores_each_mirror_pair_once(a, n):
    # a default grid's kernel owns the blocks up to and including the
    # middle one; each block past it is a view of the one it mirrors,
    # reversed. An asymmetric grid's kernel owns every block
    model = LinearGaussianSource(a, 1.0)
    for grid in (default_grid(model, n_points=n), Grid(-2.0, 1.0, 50), Grid(-4.0, 2.0, n)):
        kernel = _transition_kernel(model, grid)
        blocks = [block for _, block in kernel.blocks]
        assert kernel.stored == ((len(blocks) + 1) // 2 if grid.symmetric else len(blocks))
        for b, block in enumerate(blocks):
            if b < kernel.stored:
                assert block.base.base is None and block.flags.f_contiguous
                assert not any(np.shares_memory(block, other) for other in blocks[:b])
            else:
                image = blocks[-1 - b]
                assert block.base is image.base and block.tobytes() == image[::-1, ::-1].tobytes()


KERNEL_BUILD_RSS = """
from zdq.beliefs import default_grid
from zdq.sources import LinearGaussianSource, _BandedKernel

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) * 1024

source = LinearGaussianSource(0.5, 1.0)
grid = default_grid(source, n_points=1601)
grid.nodes
before = peak()
kernel = _BandedKernel(source, grid)
rise = peak() - before
blocks = [block for _, block in kernel.blocks]
built = sum(block.nbytes for block in blocks[: (len(blocks) + 1) // 2])
print(rise, built, sum(block.nbytes for block in blocks))
"""


def test_symmetric_kernel_build_holds_only_its_stored_blocks():
    # a fresh interpreter's peak RSS rises by the blocks up to the middle
    # one and little more while it builds the a = 0.5 kernel on 1,601
    # nodes: 8.97 of its 17.17 MiB. On a 2-core Xeon the rise was 0.4 MiB
    # past them; a build that also copied the mirrored half rose by
    # 17.9 MiB. The peak is the process's VmHWM, not ru_maxrss, which
    # Linux carries over from the forking process through exec
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux's /proc/self/status")
    src = os.path.dirname(os.path.dirname(zdq.sources.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", KERNEL_BUILD_RSS], env=env, capture_output=True, text=True, check=True)
    rise, built, logical = map(int, run.stdout.split())
    assert 2 * built > logical
    assert rise <= built + 2 * 2**20


@st.composite
def mirror_cases(draw):
    a = draw(st.sampled_from([0.0, 0.5, 0.9, -0.6]))
    src = LinearGaussianSource(a, draw(st.sampled_from([0.5, 1.0])))
    grid = default_grid(src, n_points=draw(st.sampled_from([21, 40, 101, 801])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = grid.nodes
    bump = (x - rng.uniform(0.5 * grid.lo, 0.5 * grid.hi)) / rng.uniform(0.1, 0.5) / grid.hi
    values = np.exp(-0.5 * bump * bump) + rng.uniform(0.0, 0.1) * rng.random(grid.n_points)
    belief = GridBelief.from_unnormalized(grid, values)
    cuts = sorted({float(c) for c in rng.uniform(0.01, 0.8 * grid.hi, 3)})
    if draw(st.booleans()):  # two levels
        cands = [IntervalQuantizer((s * c,)) for c in cuts for s in (1.0, -1.0)] + [IntervalQuantizer((0.0,))]
    else:  # three levels
        cands = [IntervalQuantizer((-cuts[-1], c)) for c in cuts[:-1]]
        cands += [q.mirror for q in cands] + [IntervalQuantizer((-cuts[0], cuts[0]))]
    order = rng.permutation(len(cands))
    return belief, src, CandidateSet([cands[i] for i in order])


@settings(max_examples=150, deadline=None)
@given(mirror_cases())
def test_mirror_image_gives_mirrored_outputs_bit_for_bit(case):
    belief, src, cands = case
    grid, n = belief.grid, belief.grid.n_points
    image = GridBelief(grid, belief.values[::-1])
    assume(image.key() != belief.key())
    assert image.key() == belief.mirror().key() and image.orientation == -belief.orientation
    assert image.mean == -belief.mean and image.std == belief.std
    assert image.support == (n - belief.support[1], n - belief.support[0])
    mirror = cands.mirror
    stages, masses, recon = cell_decisions(belief, cands, QUAD)
    got = cell_decisions(image, cands, QUAD)
    assert got[0].tobytes() == stages[mirror.ids].tobytes()
    assert got[1].tobytes() == masses.take(mirror.cells).tobytes()
    assert got[2].tobytes() == (-recon.take(mirror.cells)).tobytes()
    for q in cands:
        for m in range(1, q.levels + 1):
            if belief.restrict(q, m)[1].sum() <= EPS_MASS:
                continue
            post = filter_update(belief, src, q, m)
            mirrored = filter_update(image, src, q.mirror, q.levels + 1 - m)
            assert mirrored.values.tobytes() == post.values[::-1].tobytes()
            # a belief that is its own mirror image keeps its mean
            assert mirrored.mean == (post.mean if post.orientation == 0 else -post.mean)


@settings(max_examples=30, deadline=None)
@given(mirror_cases(), st.booleans(), st.integers(2, 3))
def test_twins_searched_once_match_the_exhaustive_reference(case, centred, horizon):
    # a root that is its own mirror image has every later belief in
    # mirror pairs; the search takes one of each pair from the other
    belief, src, cands = case
    if centred:
        std = 0.3 * belief.grid.hi
        belief = GridBelief.normal(belief.grid, 0.0, std)
        assert belief.orientation == 0
    assert_matches_reference(belief, src, cands, QUAD, horizon)


def test_design_ar1_searches_each_twin_pair_once():
    src = LinearGaussianSource(0.5, 1.0)
    cands = enumerate_interval_candidates(2, -2.0, 2.0, 11)
    tree = solve_finite_horizon(src.invariant_distribution(), src, cands, QUAD, 3).tree
    assert tree.expansions_by_stage == [1, 1, 2, 8]
    counters = tree.counters
    assert counters["mirror_twins"] > 0 and counters["filter_calls"] < 26
    # a set on [-4, 2] has no mirror map: every belief is searched
    asym = enumerate_interval_candidates(2, -4.0, 2.0, 11)
    tree = solve_finite_horizon(src.invariant_distribution(), src, asym, QUAD, 3).tree
    assert tree.counters["mirror_twins"] == 0
    assert exhaustive_solve(src.invariant_distribution(), src, asym, QUAD, 3).nodes[0].value == tree.value
