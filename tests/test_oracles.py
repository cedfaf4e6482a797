import math

import numpy as np
import pytest

from conftest import random_chain
from reference_density import uniform_belief
from reference_oracles import exhaustive_admissible_search, lloyd_max
from zdq.beliefs import Grid, GridBelief, SimplexBelief
from zdq.costs import CostModel, cell_decisions
from zdq.dp import solve_finite_horizon
from zdq.oracles import brute_force_finite
from zdq.quantizers import enumerate_finite_partitions

QUAD = CostModel.quadratic()


def test_brute_force_agrees_with_solver():
    rng = np.random.default_rng(9)
    for _ in range(3):
        chain = random_chain(rng, 3)
        init = SimplexBelief(chain.initial.copy(), states=chain.state_values)
        cands = enumerate_finite_partitions(3, 2)
        dp = solve_finite_horizon(init, chain, cands, QUAD, horizon=2).value
        bf = brute_force_finite(chain.initial, chain, 2, 2, QUAD)
        assert abs(dp - bf) < 1e-12


def test_brute_force_work_guard():
    rng = np.random.default_rng(10)
    chain = random_chain(rng, 3)
    with pytest.raises(ValueError):
        brute_force_finite(chain.initial, chain, 3, 10, QUAD, budget=1000)


def test_brute_force_tabular(two_state_chain):
    tab = CostModel.bounded_tabular([[0.2, 1.0], [1.0, 0.1]])
    init = SimplexBelief(two_state_chain.initial.copy())
    cands = enumerate_finite_partitions(2, 2)
    dp = solve_finite_horizon(init, two_state_chain, cands, tab, horizon=3).value
    bf = brute_force_finite(two_state_chain.initial, two_state_chain, 2, 3, tab)
    assert abs(dp - bf) < 1e-12


def test_admissible_search_equals_dp():
    # search over ALL zero-delay codes, not just belief-feedback ones:
    # agreement certifies that belief feedback loses nothing here
    rng = np.random.default_rng(11)
    for _ in range(3):
        chain = random_chain(rng, 3)
        init = SimplexBelief(chain.initial.copy(), states=chain.state_values)
        cands = enumerate_finite_partitions(3, 2)
        dp = solve_finite_horizon(init, chain, cands, QUAD, horizon=2).value
        full = exhaustive_admissible_search(chain, 2, 2, QUAD)
        assert abs(dp - full) < 1e-12


def test_admissible_search_guards():
    rng = np.random.default_rng(12)
    chain = random_chain(rng, 3)
    with pytest.raises(ValueError):
        exhaustive_admissible_search(chain, 2, 3, QUAD)  # horizon > 2
    big = random_chain(rng, 4)
    with pytest.raises(ValueError):
        exhaustive_admissible_search(big, 2, 2, QUAD)


def std_normal_belief():
    return GridBelief.normal(Grid(-8.0, 8.0, 801), 0.0, 1.0)


def test_lloyd_max_normal_one_bit():
    res = lloyd_max(std_normal_belief(), 2)
    assert res.converged
    assert abs(res.quantizer.thresholds[0]) < 1e-9
    root = math.sqrt(2.0 / math.pi)
    assert abs(res.reconstructions[0] + root) < 1e-4
    assert abs(res.reconstructions[1] - root) < 1e-4
    assert abs(res.mse - (1.0 - 2.0 / math.pi)) < 1e-4


def test_lloyd_max_normal_three_levels():
    res = lloyd_max(std_normal_belief(), 3)
    assert res.converged
    # classic 3-level design for the unit normal
    assert abs(res.quantizer.thresholds[0] + 0.6120) < 5e-3
    assert abs(res.quantizer.thresholds[1] - 0.6120) < 5e-3
    assert abs(res.reconstructions[1]) < 1e-6


def test_lloyd_max_uniform_exact():
    b = uniform_belief(Grid(0.0, 1.0, 801), 0.0, 1.0)
    res = lloyd_max(b, 2)
    assert abs(res.quantizer.thresholds[0] - 0.5) < 1e-9
    assert abs(res.reconstructions[0] - 0.25) < 1e-9
    assert abs(res.reconstructions[1] - 0.75) < 1e-9
    assert abs(res.mse - 1.0 / 48.0) < 1e-9


def test_lloyd_max_single_level_is_variance():
    b = std_normal_belief()
    res = lloyd_max(b, 1)
    assert res.quantizer.levels == 1
    assert abs(res.mse - cell_decisions(b, [res.quantizer], QUAD)[0][0]) < 1e-9


def test_lloyd_max_dual_route_consistency():
    # two independent quadratures of the same objective must agree
    b = std_normal_belief()
    for levels in (2, 3):
        res = lloyd_max(b, levels)
        assert abs(res.mse - cell_decisions(b, [res.quantizer], QUAD)[0][0]) < 1e-9


def test_lloyd_max_is_fixed_point():
    # converged design: thresholds sit midway between neighboring
    # centroids, and centroids are the cell conditional means
    b = std_normal_belief()
    res = lloyd_max(b, 3)
    centroids = cell_decisions(b, [res.quantizer], QUAD)[2][0].tolist()
    assert np.max(np.abs(np.asarray(centroids) - res.reconstructions)) < 1e-8
    mids = 0.5 * (np.asarray(centroids[:-1]) + np.asarray(centroids[1:]))
    assert np.max(np.abs(mids - np.asarray(res.quantizer.thresholds))) < 1e-8
