import numpy as np
import pytest

from zdq.sources import FiniteChain, LinearGaussianSource

# the largest error of a grid cell moment of order k, in units of
# (std + spacing)^k of its belief, that the tests allow (u = 2^-53);
# test_moments.py measures it against sums in extended precision
MOMENT_ERROR = 16 * 2.0**-53


@pytest.fixture
def two_state_chain():
    return FiniteChain(
        np.array([[0.9, 0.1], [0.2, 0.8]]),
        np.array([0.5, 0.5]),
    )


@pytest.fixture
def three_state_chain():
    return FiniteChain(
        np.array([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
        np.array([-1.0, 0.0, 1.0]),
    )


@pytest.fixture
def iid_source():
    return LinearGaussianSource(0.0, 1.0)


@pytest.fixture
def ar_source():
    return LinearGaussianSource(0.5, 1.0)


def random_chain(rng, n_states, state_values=None):
    """Dense random chain with strictly positive rows."""
    rows = rng.dirichlet(np.full(n_states, 2.0), size=n_states)
    rows += 1e-6
    rows /= rows.sum(axis=1, keepdims=True)
    initial = rng.dirichlet(np.full(n_states, 2.0))
    initial += 1e-6
    initial /= initial.sum()
    if state_values is None:
        state_values = np.sort(rng.normal(size=n_states))
    return FiniteChain(rows, initial, state_values)
