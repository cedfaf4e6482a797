import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zdq.costs
from zdq.beliefs import EPS_MASS, Grid, GridBelief, SimplexBelief, filter_update
from zdq.costs import CostModel, _stage_costs_from, cell_decisions
from zdq.dp import greedy_policy_step
from zdq.infinite import GreedyPolicy, _BeliefTable
from zdq.quantizers import (
    CandidateSet,
    FinitePartition,
    IntervalQuantizer,
    enumerate_finite_partitions,
    enumerate_interval_candidates,
)
from zdq.sources import LinearGaussianSource


def std_normal_belief():
    return GridBelief.normal(Grid(-8.0, 8.0, 801), 0.0, 1.0)




def test_cost_model_validation():
    CostModel.quadratic()
    CostModel.bounded_tabular([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        CostModel.bounded_tabular([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        CostModel.bounded_tabular([[math.inf, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        CostModel("bounded_tabular", None)
    with pytest.raises(ValueError):
        CostModel("quadratic", np.eye(2))


def test_pointwise():
    quad = CostModel.quadratic()
    assert quad.pointwise(2.0, 0.5) == 2.25
    tab = CostModel.bounded_tabular([[0.0, 1.0], [1.0, 0.0]])
    assert tab.pointwise(1, 0) == 1.0


def test_pointwise_arrays_match_scalars():
    rng = np.random.default_rng(0)
    x, u = rng.normal(size=(50, 40)), rng.normal(size=(50, 40))
    quad = CostModel.quadratic()
    expected = [[quad.pointwise(a, b) for a, b in zip(xr, ur)] for xr, ur in zip(x.tolist(), u.tolist())]
    got = quad.pointwise(x, u)
    assert got.shape == x.shape
    assert got.tolist() == expected
    assert np.array_equal(got, (x - u) * (x - u))
    tab = CostModel.bounded_tabular([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0]])
    states, recon = np.array([[0, 1, 1], [1, 0, 0]]), np.array([[2.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    assert tab.pointwise(states, recon).tolist() == [[0.5, 1.0, 0.0], [2.0, 1.0, 0.0]]


def reference_reconstruction(belief, quantizer, m, cost):
    """The optimal reconstruction of cell m worked out one cell at a time,
    None for a dead cell."""
    (m0, m1, _), center = belief.cell_moments(CandidateSet((quantizer,)))
    if cost.kind == "quadratic":
        if m0[0, m - 1] <= EPS_MASS:
            return None
        return float(center + m1[0, m - 1] / m0[0, m - 1])
    restricted = belief.restrict_cells(quantizer.membership)[m - 1]
    if float(restricted.sum()) <= EPS_MASS:
        return None
    return int(np.argmin(restricted @ cost.table))


def reference_stage_cost(belief, quantizer, cost):
    """The stage cost summed cell by cell in Python floats: the
    conditional variance of each live cell under quadratic cost, its
    least restricted column cost under a tabular one."""
    (m0, m1, m2), _ = belief.cell_moments(CandidateSet((quantizer,)))
    total = 0.0
    for m in range(quantizer.levels):
        if cost.kind == "quadratic":
            if m0[0, m] > EPS_MASS:
                total += max(m2[0, m] - m1[0, m] * m1[0, m] / m0[0, m], 0.0)
            continue
        restricted = belief.probabilities * quantizer.member_mask(m + 1)
        if float(restricted.sum()) > EPS_MASS:
            total += float(np.min(restricted @ cost.table))
    return total


CASES = [
    (std_normal_belief(), enumerate_interval_candidates(3, -3.0, 9.0, 13), CostModel.quadratic()),
    (
        SimplexBelief(np.array([0.5, 0.0, 0.2, 0.3]), states=np.array([-2.0, 0.0, 0.5, 4.0])),
        enumerate_finite_partitions(4, 3),
        CostModel.quadratic(),
    ),
    (
        SimplexBelief(np.array([0.0, 0.6, 0.4])),
        enumerate_finite_partitions(3, 2),
        CostModel.bounded_tabular([[0.0, 1.0, 0.3], [1.0, 0.0, 0.7], [0.2, 0.9, 0.0]]),
    ),
]


@pytest.mark.parametrize("belief, quantizers, cost", CASES, ids=["grid", "simplex", "tabular"])
def test_cell_decisions_match_reference(belief, quantizers, cost):
    stages, masses, recon = cell_decisions(belief, quantizers, cost)
    assert masses.shape == recon.shape == (len(quantizers), max(q.levels for q in quantizers))
    assert stages.tolist() == [reference_stage_cost(belief, q, cost) for q in quantizers]
    assert masses.tolist() == belief.cell_moments(quantizers)[0][0].tolist()
    for k, q in enumerate(quantizers):
        # one quantizer is one entry of the batch, bit for bit
        alone = cell_decisions(belief, [q], cost)
        assert alone[0].tolist() == [stages[k]]
        assert alone[1][0].tolist() == masses[k, : q.levels].tolist()
        assert not masses[k, q.levels :].any()
        for m in range(1, recon.shape[1] + 1):
            expected = reference_reconstruction(belief, q, m, cost) if m <= q.levels else None
            if expected is None:
                assert math.isnan(recon[k, m - 1])
            else:
                assert recon[k, m - 1] == expected
                assert alone[2][0, m - 1] == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 12), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_stage_costs_sum_cells_alike_in_every_layout(n_candidates, levels, n_columns, seed):
    # moments of K candidates with L cells at C columns: the (K, L, C)
    # block, one column as (K, L, 1) and as its own (K, L) array, whose
    # cells are contiguous where the block's are strided
    rng = np.random.default_rng(seed)
    shape = (n_candidates, levels, n_columns)
    m0 = rng.random(shape) * 10.0 ** rng.integers(-14, 3, shape) * (rng.random(shape) > 0.2)
    mean = rng.normal(size=shape)
    moments = np.stack([m0, m0 * mean, m0 * (mean * mean + rng.random(shape))])
    block = _stage_costs_from(moments)
    for c in range(n_columns):
        expected = block[:, c].tobytes()
        assert _stage_costs_from(np.ascontiguousarray(moments[..., c])).tobytes() == expected
        assert _stage_costs_from(moments[..., c : c + 1].copy())[:, 0].tobytes() == expected


def test_tabular_cell_decisions_walk_each_quantizer_once(monkeypatch):
    belief, quantizers, cost = CASES[2]
    calls = []

    def counted(belief, quantizer, cost, walk=zdq.costs._tabular_cells):
        calls.append(quantizer)
        return walk(belief, quantizer, cost)

    monkeypatch.setattr(zdq.costs, "_tabular_cells", counted)
    cell_decisions(belief, quantizers, cost)
    assert calls == list(quantizers)


def test_reconstruction_half_normal():
    b = std_normal_belief()
    q = IntervalQuantizer((0.0,))
    u = cell_decisions(b, [q], CostModel.quadratic())[2][0, 1]
    assert abs(u - math.sqrt(2.0 / math.pi)) < 1e-4


def test_reconstruction_simplex_quadratic():
    b = SimplexBelief(np.array([0.25, 0.25, 0.5]), states=np.array([-1.0, 0.0, 1.0]))
    p = FinitePartition((1, 1, 2), 2)
    u = cell_decisions(b, [p], CostModel.quadratic())[2][0, 0]
    assert abs(u - (-0.5)) < 1e-15  # mean of {-1, 0} weighted (0.25, 0.25)


def test_reconstruction_tabular_argmin():
    b = SimplexBelief(np.array([0.5, 0.5]))
    tab = CostModel.bounded_tabular([[0.0, 1.0], [1.0, 0.0]])
    blind = FinitePartition((1, 1), 1)
    # expected column costs tie at 0.5; lowest index wins
    assert cell_decisions(b, [blind], tab)[2][0, 0] == 0


def test_reconstruction_zero_mass_raises(two_state_chain):
    # a dead cell has no reconstruction: NaN in cell_decisions, and a
    # rollout's belief table raises when a path reaches it
    b = SimplexBelief(np.array([1.0, 0.0]))
    sep = FinitePartition((1, 2), 2)
    quad = CostModel.quadratic()
    assert math.isnan(cell_decisions(b, [sep], quad)[2][0, 1])
    table = _BeliefTable(two_state_chain, quad, CandidateSet((sep,)))
    # the key of (belief, quantizer 0, symbol 2)
    key = (table.intern(b) * len(table.quantizers) + 0) * table.width + 2
    with pytest.raises(ValueError, match="carries no mass"):
        table.successors(np.array([key]))


def test_stage_cost_no_quantization_is_variance():
    b = std_normal_belief()
    q1 = IntervalQuantizer(())
    c = cell_decisions(b, [q1], CostModel.quadratic())[0][0]
    assert abs(c - 1.0) < 1e-3


def test_stage_cost_one_bit_normal():
    b = std_normal_belief()
    q = IntervalQuantizer((0.0,))
    c = cell_decisions(b, [q], CostModel.quadratic())[0][0]
    assert abs(c - (1.0 - 2.0 / math.pi)) < 1e-3


def test_stage_cost_never_exceeds_second_moment():
    # consistency of the two quadrature paths: quantizing cannot hurt
    rng = np.random.default_rng(7)
    b = GridBelief.normal(Grid(-8.0, 8.0, 801), 0.4, 1.2)
    m2 = float(b.grid.moment_weights[2] @ b.values)
    for _ in range(10):
        cuts = np.sort(rng.uniform(-3.0, 3.0, size=2))
        q = IntervalQuantizer(tuple(cuts))
        assert cell_decisions(b, [q], CostModel.quadratic())[0][0] <= m2 + 1e-12


def test_stage_cost_monotone_in_refinement():
    b = std_normal_belief()
    coarse = IntervalQuantizer((0.0,))
    fine = IntervalQuantizer((-0.7, 0.0, 0.7))
    quad = CostModel.quadratic()
    assert cell_decisions(b, [fine], quad)[0][0] <= cell_decisions(b, [coarse], quad)[0][0] + 1e-12


def test_stage_cost_simplex_quadratic():
    b = SimplexBelief(np.array([0.5, 0.5]), states=np.array([0.0, 1.0]))
    blind = FinitePartition((1, 1), 1)
    sep = FinitePartition((1, 2), 2)
    quad = CostModel.quadratic()
    assert abs(cell_decisions(b, [blind], quad)[0][0] - 0.25) < 1e-15
    assert cell_decisions(b, [sep], quad)[0][0] == 0.0


def test_stage_cost_tabular():
    b = SimplexBelief(np.array([0.3, 0.7]))
    tab = CostModel.bounded_tabular([[0.0, 1.0], [1.0, 0.0]])
    blind = FinitePartition((1, 1), 1)
    # best single column: min(0.7, 0.3)
    assert abs(cell_decisions(b, [blind], tab)[0][0] - 0.3) < 1e-15
    sep = FinitePartition((1, 2), 2)
    assert cell_decisions(b, [sep], tab)[0][0] == 0.0
    assert cell_decisions(b, [blind], tab)[0][0] <= tab.table.max()


def test_stage_cost_tabular_needs_simplex():
    b = std_normal_belief()
    tab = CostModel.bounded_tabular([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(TypeError):
        cell_decisions(b, [IntervalQuantizer((0.0,))], tab)


def test_alphabet_mismatch_raises_on_every_path(two_state_chain):
    # a one-state partition would broadcast over a two-state belief
    b = SimplexBelief(np.array([0.3, 0.7]))
    short = FinitePartition((1,), 1)
    tab = CostModel.bounded_tabular([[0.0, 1.0], [1.0, 0.0]])
    quad = CostModel.quadratic()
    calls = [
        lambda: cell_decisions(b, [short], tab),
        lambda: cell_decisions(b, [short], quad),
        lambda: cell_decisions(b, [FinitePartition((1, 2), 2), short], quad),
        lambda: filter_update(b, two_state_chain, short, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="alphabet sizes differ"):
            call()


# ---------------------------------------------------------------------------
# greedy choices: the first argmin of cell_decisions' stages

QUAD = CostModel.quadratic()


def assert_greedy_matches(belief, cands, cost=QUAD):
    """The greedy step of the solver and the greedy rollout policy both
    pick the first argmin of the stages, and the policy's belief table
    holds the stages and reconstructions of cell_decisions, bit for bit."""
    stages, _, recon = cell_decisions(belief, cands, cost)
    k = int(np.argmin(stages))
    assert greedy_policy_step(belief, cands, cost) is CandidateSet.of(cands)[k]
    policy = GreedyPolicy(cands)
    table = _BeliefTable(None, cost, policy.quantizers)
    ids = np.full(3, table.intern(belief))
    assert policy.plan(None, 0, ids, table, None).quantizer_ids.tolist() == [k] * 3
    assert table.stage[0].tobytes() == stages.tobytes()
    assert table.recon[0, :, 1:].tobytes() == recon.tobytes()
    return k


def test_greedy_choice_keeps_the_first_candidate_on_ties():
    invariant = LinearGaussianSource(0.9, 1.0).invariant_distribution()
    # mirror-image three-level candidates whose stages differ by rounding
    # only (1e-15) on the symmetric invariant belief
    assert_greedy_matches(invariant, enumerate_interval_candidates(3, -4.0, 4.0, 21))
    # duplicate candidates tie exactly; the first one wins
    duplicates = [IntervalQuantizer((1.0,)), IntervalQuantizer((0.0,)), IntervalQuantizer((0.0,))]
    assert assert_greedy_matches(invariant, duplicates) == 1


def test_greedy_choice_on_simplex_beliefs_and_tabular_costs():
    belief = SimplexBelief(np.array([0.2, 0.5, 0.3]), states=np.array([-1.0, 0.0, 2.0]))
    cands = enumerate_finite_partitions(3, 2)
    tab = CostModel.bounded_tabular([[0.0, 1.0], [1.0, 0.2], [0.7, 0.0]])
    for cost in (QUAD, tab):
        assert_greedy_matches(belief, cands, cost)
