import math

import numpy as np
import pytest

from reference_filter import classify
from zdq.beliefs import Grid, GridBelief, SimplexBelief
from zdq.costs import CostModel, cell_decisions
from zdq.quantizers import (
    CandidateSet,
    FinitePartition,
    IntervalQuantizer,
    enumerate_finite_partitions,
    enumerate_interval_candidates,
)


def test_interval_quantizer_classify():
    q = CandidateSet([IntervalQuantizer((-1.0, 1.0))])
    x = np.array([-2.0, 0.0, 2.0, -1.0, 1.0])
    # a boundary goes to the lower cell
    assert q.classify(np.zeros(5, dtype=int), x).tolist() == [1, 2, 3, 1, 2]


def test_interval_quantizer_validation():
    with pytest.raises(ValueError):
        IntervalQuantizer((1.0, -1.0))
    with pytest.raises(ValueError):
        IntervalQuantizer((0.0, 0.0))
    with pytest.raises(ValueError):
        IntervalQuantizer((0.0, math.inf))
    assert IntervalQuantizer(()).levels == 1


def test_interval_quantizer_cells():
    q = IntervalQuantizer((-1.0, 1.0))
    assert q.cell_interval(1) == (-math.inf, -1.0)
    assert q.cell_interval(2) == (-1.0, 1.0)
    assert q.cell_interval(3) == (1.0, math.inf)
    with pytest.raises(ValueError):
        q.cell_interval(4)


def test_finite_partition_basics():
    p = FinitePartition((1, 2, 1), 2)
    assert CandidateSet([p]).classify(np.zeros(3, dtype=int), np.arange(3)).tolist() == [1, 2, 1]
    assert np.array_equal(p.member_mask(1), [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        FinitePartition((1, 3), 2)  # cell index above levels
    with pytest.raises(ValueError):
        FinitePartition((0, 1), 2)  # cells are 1-based


def test_cell_mass_grid_halves():
    b = GridBelief.normal(Grid(-8.0, 8.0, 801), 0.0, 1.0)
    q = IntervalQuantizer((0.0,))
    m1, m2 = cell_decisions(b, [q], CostModel.quadratic())[1][0]
    # threshold exactly on a node: the halves are exact, not O(spacing)
    assert abs(m1 - 0.5) < 1e-6
    assert abs(m2 - 0.5) < 1e-6
    assert abs(m1 + m2 - 1.0) < 1e-9


def test_cell_mass_grid_tail():
    b = GridBelief.normal(Grid(-8.0, 8.0, 801), 0.0, 1.0)
    q = IntervalQuantizer((1.0,))
    tail = 1.0 - 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(cell_decisions(b, [q], CostModel.quadratic())[1][0, 1] - tail) < 1e-4


def test_cell_mass_simplex():
    b = SimplexBelief(np.array([0.2, 0.5, 0.3]))
    p = FinitePartition((1, 2, 1), 2)
    m1, m2 = cell_decisions(b, [p], CostModel.quadratic())[1][0]
    assert abs(m1 - 0.5) < 1e-15
    assert abs(m2 - 0.5) < 1e-15


def test_enumerate_interval_candidates_counts():
    assert len(enumerate_interval_candidates(2, -1.0, 1.0, 5)) == 5
    assert len(enumerate_interval_candidates(3, -1.0, 1.0, 5)) == 10
    only = enumerate_interval_candidates(1, -1.0, 1.0, 5)
    assert len(only) == 1 and only[0].levels == 1
    assert only.classify(np.array([0]), np.array([3.3])).tolist() == [1]


def test_enumerate_interval_candidates_order():
    cands = enumerate_interval_candidates(2, -1.0, 1.0, 3)
    assert [q.thresholds for q in cands] == [(-1.0,), (0.0,), (1.0,)]


def test_enumerate_finite_partitions_counts():
    assert len(enumerate_finite_partitions(2, 2)) == 2
    assert len(enumerate_finite_partitions(3, 2)) == 4
    assert len(enumerate_finite_partitions(3, 3)) == 5


def test_enumerate_finite_partitions_canonical():
    for p in enumerate_finite_partitions(3, 3):
        seen = []
        for cell in p.assignment:
            if cell not in seen:
                seen.append(cell)
        # cells numbered in order of first use
        assert seen == sorted(seen)
    # no duplicate assignments
    all_assignments = [p.assignment for p in enumerate_finite_partitions(3, 3)]
    assert len(set(all_assignments)) == len(all_assignments)


def test_to_json_describes_the_quantizer_in_full():
    assert IntervalQuantizer((-0.5, 1.5)).to_json() == {
        "type": "interval", "levels": 3, "thresholds": [-0.5, 1.5],
    }
    assert FinitePartition((1, 2, 2), 2).to_json() == {
        "type": "finite_partition", "levels": 2, "assignment": [1, 2, 2],
    }


def test_stacked_classifier_matches_classify():
    intervals = CandidateSet([
        IntervalQuantizer((-1.0, 0.5)),
        IntervalQuantizer((2.0,)),  # an id no one asks for
        IntervalQuantizer(()),
        IntervalQuantizer((0.0,)),
    ])
    x = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 0.75, 3.0] * 3)
    ids = np.array([0, 2, 3] * 7)
    got = intervals.classify(ids, x)
    assert got.tolist() == [classify(intervals[k], v) for k, v in zip(ids, x)]
    partitions = enumerate_finite_partitions(3, 3)
    states = np.array([0, 1, 2] * len(partitions))
    ids = np.repeat(np.arange(len(partitions)), 3)
    got = partitions.classify(ids, states)
    assert got.tolist() == [classify(partitions[k], s) for k, s in zip(ids, states)]
