import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zdq.beliefs import GridBelief
from zdq.sources import (
    DensityBounds,
    FiniteChain,
    LinearGaussianSource,
    _PathStreams,
    density_bounds,
    transition_density,
)

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)  # standard normal peak


def test_gaussian_validation():
    LinearGaussianSource(0.5, 1.0)
    LinearGaussianSource(-1.5, 0.0)  # deterministic maps are representable
    with pytest.raises(ValueError):
        LinearGaussianSource(0.5, -1.0)
    with pytest.raises(ValueError):
        LinearGaussianSource(math.nan, 1.0)


def test_stationary_std():
    assert LinearGaussianSource(0.0, 1.0).stationary_std == 1.0
    src = LinearGaussianSource(0.5, 1.0)
    assert abs(src.stationary_std - 1.0 / math.sqrt(0.75)) < 1e-15
    with pytest.raises(ValueError):
        _ = LinearGaussianSource(1.0, 1.0).stationary_std


def test_transition_density_values(ar_source):
    # peak: z exactly at a*x
    assert abs(transition_density(ar_source, 0.25, 0.5) - PHI0) < 1e-12
    wide = LinearGaussianSource(0.5, 2.0)
    assert abs(transition_density(wide, 0.25, 0.5) - PHI0 / 2.0) < 1e-12
    # symmetric about the conditional mean a*x
    assert abs(
        transition_density(ar_source, 0.25 - 0.7, 0.5)
        - transition_density(ar_source, 0.25 + 0.7, 0.5)
    ) < 1e-15


def test_transition_density_requires_noise():
    src = LinearGaussianSource(0.5, 0.0)
    with pytest.raises(ValueError):
        transition_density(src, 0.0, 0.0)


def test_chain_validation():
    with pytest.raises(ValueError):
        FiniteChain(np.array([[0.5, 0.6], [0.2, 0.8]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        FiniteChain(np.array([[1.1, -0.1], [0.2, 0.8]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        FiniteChain(np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        FiniteChain(
            np.array([[0.9, 0.1], [0.2, 0.8]]),
            np.array([0.5, 0.5]),
            np.array([1.0, 2.0, 3.0]),
        )
    with pytest.raises(ValueError):
        FiniteChain(np.array([[math.nan, 0.5], [0.2, 0.8]]), np.array([0.5, 0.5]))


def test_chain_keeps_a_read_only_transition_copy():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    chain = FiniteChain(P, np.array([0.5, 0.5]))
    cdf = chain.row_cdf
    P[0] = [0.1, 0.9]
    assert chain.transition[0, 0] == 0.9
    with pytest.raises(ValueError):
        chain.transition[0, 0] = 0.5
    with pytest.raises(ValueError):
        cdf[0, 0] = 0.5
    with pytest.raises(AttributeError):
        chain.transition = P
    assert np.array_equal(chain.row_cdf, [[0.9, 1.0], [0.2, 1.0]])


@st.composite
def row_stochastic(draw):
    n = draw(st.integers(2, 5))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    rows = np.array(draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(np.all(rows.sum(axis=1) > 0.0))
    return rows / rows.sum(axis=1, keepdims=True)


@settings(max_examples=20, deadline=None)
@given(row_stochastic(), st.integers(0, 2**32 - 1))
def test_sample_next_finite_matches_generator_choice(P, seed):
    chain = FiniteChain(P, np.full(len(P), 1.0 / len(P)))
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    x = y = 0
    for _ in range(10_000):
        x = chain.sample_next(x, fast)
        y = int(ref.choice(len(P), p=P[y]))
        assert x == y
    # both consumed the same variates
    assert fast.random() == ref.random()


@settings(max_examples=20, deadline=None)
@given(row_stochastic(), st.integers(1, 4), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_state_paths_match_sample_next(P, n_paths, steps, seed):
    chain = FiniteChain(P, np.full(len(P), 1.0 / len(P)))
    for model, x0 in ((chain, np.arange(n_paths) % len(P)), (LinearGaussianSource(0.7, 1.3), np.linspace(-1.0, 2.0, n_paths))):
        v = np.empty((n_paths, steps))
        for p in range(n_paths):
            model.step_variates(np.random.default_rng([seed, p]), v[p])
        paths = model.state_paths(x0, v)
        for p in range(n_paths):
            rng, x = np.random.default_rng([seed, p]), x0[p].item()
            for j in range(steps):
                x = model.sample_next(x, rng)
                assert paths[p, j] == x


def test_chain_defaults(two_state_chain):
    assert two_state_chain.n_states == 2
    assert np.array_equal(two_state_chain.state_values, [0.0, 1.0])


def test_sample_next_gaussian_deterministic():
    src = LinearGaussianSource(-0.8, 0.0)
    rng = np.random.default_rng(0)
    assert src.sample_next(2.0, rng) == -1.6


def test_sample_next_gaussian_moments(ar_source):
    rng = np.random.default_rng(1)
    draws = np.array([ar_source.sample_next(1.0, rng) for _ in range(4000)])
    assert abs(draws.mean() - 0.5) < 0.05
    assert abs(draws.std() - 1.0) < 0.05


def test_sample_next_finite_respects_support():
    chain = FiniteChain(np.eye(2), np.array([0.5, 0.5]))
    rng = np.random.default_rng(2)
    assert all(chain.sample_next(1, rng) == 1 for _ in range(20))


def test_sample_next_finite_frequencies(two_state_chain):
    rng = np.random.default_rng(3)
    draws = np.array([two_state_chain.sample_next(0, rng) for _ in range(5000)])
    assert abs(draws.mean() - 0.1) < 0.02


def test_invariant_two_state(two_state_chain):
    pi = two_state_chain.invariant_distribution()
    assert np.max(np.abs(pi.probabilities - [2 / 3, 1 / 3])) < 1e-12
    # fixed point of the transition
    pushed = pi.probabilities @ two_state_chain.transition
    assert np.max(np.abs(pushed - pi.probabilities)) < 1e-12


def test_invariant_rejects_degenerate_chains():
    with pytest.raises(ValueError):
        FiniteChain(np.eye(2), np.array([0.5, 0.5])).invariant_distribution()
    flip = FiniteChain(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        flip.invariant_distribution()


def test_invariant_gaussian(ar_source):
    pi = ar_source.invariant_distribution()
    assert isinstance(pi, GridBelief)
    assert abs(pi.std - ar_source.stationary_std) < 1e-3
    assert abs(pi.mean) < 1e-12
    with pytest.raises(ValueError):
        LinearGaussianSource(1.01, 1.0).invariant_distribution()


def test_density_bounds_std_normal(iid_source):
    b = density_bounds(iid_source)
    assert isinstance(b, DensityBounds)
    assert abs(b.sup_density - PHI0) < 1e-12
    # max |d/dz phi| is attained at z = 1: phi(1)
    phi1 = PHI0 * math.exp(-0.5)
    assert abs(b.slope_bound - phi1) < 1e-9


def test_density_bounds_scaling():
    b = density_bounds(LinearGaussianSource(0.3, 2.0))
    assert abs(b.sup_density - PHI0 / 2.0) < 1e-12
    phi1 = PHI0 * math.exp(-0.5)
    assert abs(b.slope_bound - phi1 / 4.0) < 1e-9


# ---------------------------------------------------------------------------
# rollout path streams


SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1, np.uint64(2**64 - 1)]


def checked_paths(n_paths):
    """The first and last 300 paths and every 97th one between."""
    return [*range(300), *range(300, n_paths - 300, 97), *range(n_paths - 300, n_paths)]


def generator_states(streams):
    """Every path's bit generator state, rebuilt from the word arrays."""
    assert streams.state.dtype == streams.inc.dtype == np.uint64
    return [
        {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for (s_hi, s_lo), (i_hi, i_lo) in zip(streams.state.T.tolist(), streams.inc.T.tolist())
    ]


def child_generator(seed, p, j):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(p, j)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("j", [0, 1])
def test_path_streams_match_seed_sequence(seed, j):
    # the bulk states are numpy's SeedSequence children's, for one-word,
    # multi-word and past-the-pool seeds and paths up to 10**4
    n_paths = 10**4 + 1
    states = generator_states(_PathStreams(seed, n_paths, j))
    assert len(states) == n_paths
    for p in checked_paths(n_paths):
        assert states[p] == child_generator(seed, p, j).bit_generator.state, p


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("j", [0, 1])
def test_path_stream_uniforms_match_generator_random(seed, j):
    # blocks of 1, 2, 12, 0, 5 and 17 variates: one step, whole and partial
    # doubling passes, and an empty block
    n_paths = 10**4 + 1
    streams = _PathStreams(seed, n_paths, j)
    blocks = []
    for n in (1, 2, 12, 0, 5, 17):
        blocks.append(streams.random(out=np.empty((n_paths, n))))
        assert streams.state.dtype == streams.inc.dtype == np.uint64
    v = np.hstack(blocks)
    states = generator_states(streams)
    for p in checked_paths(n_paths):
        rng = child_generator(seed, p, j)
        assert np.array_equal(v[p], rng.random(v.shape[1])), p
        assert states[p] == rng.bit_generator.state, p


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", SEEDS)
def test_path_stream_gaussian_paths_match_generator(seed):
    # a Gaussian rollout's draws: one uniform for the initial state, then
    # the source's normals over blocks, then uniforms again
    n_paths, model = 700, LinearGaussianSource(0.5, 1.0)
    streams = _PathStreams(seed, n_paths, 0)
    first = streams.random(out=np.empty((n_paths, 1)))
    normals = np.hstack([model.step_variates(streams, np.empty((n_paths, n))) for n in (4, 1, 9)])
    after = streams.random(out=np.empty((n_paths, 3)))
    assert streams.state.dtype == streams.inc.dtype == np.uint64
    for p in checked_paths(n_paths):
        rng = child_generator(seed, p, 0)
        assert first[p, 0] == rng.random()
        assert np.array_equal(normals[p], rng.standard_normal(14)), p
        assert np.array_equal(after[p], rng.random(3)), p


def test_path_streams_reject_negative_seed():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    for seed in (-1, -(2**40)):
        with pytest.raises(ValueError, match="non-negative"):
            _PathStreams(seed, 3, 0)
