import dataclasses
import logging

import numpy as np
import pytest

from reference_filter import sample_one
import zdq.infinite
from zdq.beliefs import GridBelief, SimplexBelief, default_grid, filter_update
from zdq.costs import CostModel, optimal_reconstruction, stage_cost, stage_costs
from zdq.dp import solve_finite_horizon
from zdq.infinite import (
    DiscountedVINotConverged,
    FixedQuantizerPolicy,
    GreedyPolicy,
    GridFeatureBinning,
    PiecedPolicy,
    RandomizedStationaryPolicy,
    SimplexBinning,
    TreeReplayPolicy,
    build_pieced_policy,
    discounted_value_iteration,
    invariance_residual,
    occupation_measure,
    piecing_schedule,
    rollout,
    simplex_belief_grid,
)
from zdq.quantizers import (
    FinitePartition,
    IntervalQuantizer,
    enumerate_finite_partitions,
    enumerate_interval_candidates,
)
from zdq.sources import FiniteChain

QUAD = CostModel.quadratic()
TAB = CostModel.bounded_tabular([[0.2, 1.0], [1.0, 0.1]])


# ---------------------------------------------------------------------------
# piecing schedule


def test_schedule_worked_example():
    s = piecing_schedule([2, 4, 8, 16], 3)
    assert s.n_reps == (1, 4, 6)
    assert s.block_lengths == (2, 16, 48)
    assert s.boundaries == (2, 18, 66)


def test_schedule_invariants_doubling():
    s = piecing_schedule([2**k for k in range(1, 10)], 8)
    assert s.n_reps[0] == 1
    for k in range(2, 9):
        assert s.block_lengths[k - 1] >= k * s.block_lengths[k - 2]
    # early segments occupy a vanishing fraction of time
    assert s.ratios[-1] < s.ratios[1]


def test_schedule_validation():
    with pytest.raises(ValueError):
        piecing_schedule([2, 4], 2)  # needs k_max + 1 horizons
    with pytest.raises(ValueError):
        piecing_schedule([4, 2, 8], 2)
    with pytest.raises(ValueError):
        piecing_schedule([0, 2, 4], 2)
    with pytest.raises(ValueError):
        piecing_schedule([2, 4, 8], 0)


# ---------------------------------------------------------------------------
# rollout and policies


def test_rollout_matches_dp_value(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    init = SimplexBelief(
        three_state_chain.initial.copy(), states=three_state_chain.state_values
    )
    res = solve_finite_horizon(init, three_state_chain, cands, QUAD, horizon=3)
    rr = rollout(
        TreeReplayPolicy(res.tree),
        three_state_chain,
        QUAD,
        horizon=3,
        n_paths=2000,
        seed=7,
        initial_belief=init,
    )
    assert abs(rr.mean_cost - res.value) <= 3.0 * rr.stderr


def test_rollout_is_deterministic(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    policy = GreedyPolicy(cands, QUAD)
    a = rollout(policy, three_state_chain, QUAD, horizon=5, n_paths=40, seed=3)
    b = rollout(policy, three_state_chain, QUAD, horizon=5, n_paths=40, seed=3)
    assert np.array_equal(a.path_costs, b.path_costs)
    c = rollout(policy, three_state_chain, QUAD, horizon=5, n_paths=40, seed=4)
    assert not np.array_equal(a.path_costs, c.path_costs)


def test_rollout_log_columns(two_state_chain):
    cands = enumerate_finite_partitions(2, 2)
    rr = rollout(
        GreedyPolicy(cands, QUAD), two_state_chain, QUAD, horizon=7, n_paths=2, seed=1
    )
    log = rr.log
    assert len(log.t) == 7
    assert log.probabilities.shape == (7, 2)
    assert np.all(log.stage >= 0.0)
    assert abs(rr.cesaro[-1] - rr.path_costs[0]) < 1e-12
    assert rr.stderr >= 0.0


def test_tree_replay_restarts_at_block_boundaries(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    init = three_state_chain.invariant_distribution()
    res = solve_finite_horizon(init, three_state_chain, cands, QUAD, horizon=2)
    rr = rollout(
        TreeReplayPolicy(res.tree),
        three_state_chain,
        QUAD,
        horizon=8,
        n_paths=1,
        seed=5,
        initial_belief=init,
    )
    root_q = res.tree.nodes[res.tree.root].quantizer_id
    assert all(rr.log.quantizer_id[t] == root_q for t in (0, 2, 4, 6))
    # belief resets to the design belief at every block start
    for t in (2, 4, 6):
        assert abs(rr.log.belief_mean[t] - init.mean) < 1e-12


def test_pieced_policy_structure(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    init = three_state_chain.invariant_distribution()
    sched = piecing_schedule([2, 4, 8], 2)  # blocks: [0,2) then 4-blocks
    trees = [
        solve_finite_horizon(init, three_state_chain, cands, QUAD, horizon=T).tree
        for T in sched.horizons
    ]
    policy = build_pieced_policy(trees, sched)
    rr = rollout(
        policy, three_state_chain, QUAD, horizon=30, n_paths=1, seed=2,
        initial_belief=init,
    )
    q2 = trees[1].nodes[trees[1].root].quantizer_id
    # segment 2 starts at N_1 = 2 and repeats with period 4, forever
    for t in (2, 6, 10, 14, 18, 22, 26):
        assert rr.log.quantizer_id[t] == q2
        assert abs(rr.log.belief_mean[t] - init.mean) < 1e-12


def test_pieced_policy_rejects_mismatched_solutions(three_state_chain):
    cands = enumerate_finite_partitions(3, 2)
    init = three_state_chain.invariant_distribution()
    sched = piecing_schedule([2, 4, 8], 2)
    tree2 = solve_finite_horizon(init, three_state_chain, cands, QUAD, 2).tree
    with pytest.raises(ValueError):
        PiecedPolicy(sched, [tree2], init)  # wrong count
    with pytest.raises(ValueError):
        PiecedPolicy(sched, [tree2, tree2], init)  # wrong horizon
    other = SimplexBelief(
        np.array([0.5, 0.25, 0.25]), states=three_state_chain.state_values
    )
    tree4 = solve_finite_horizon(init, three_state_chain, cands, QUAD, 4).tree
    with pytest.raises(ValueError):
        PiecedPolicy(sched, [tree2, tree4], other)  # wrong restart belief


def test_randomized_policy_validation(two_state_chain):
    cands = enumerate_finite_partitions(2, 2)
    binning = SimplexBinning(10)
    good = np.tile([0.5, 0.5], (10, 1))
    RandomizedStationaryPolicy(binning, good, cands)
    with pytest.raises(ValueError):
        RandomizedStationaryPolicy(binning, np.tile([0.6, 0.5], (10, 1)), cands)
    with pytest.raises(ValueError):
        RandomizedStationaryPolicy(binning, good[:, :1], cands)
    with pytest.raises(ValueError):
        RandomizedStationaryPolicy(binning, good[:4], cands)


def test_randomized_policy_mixes(two_state_chain):
    cands = enumerate_finite_partitions(2, 2)
    binning = SimplexBinning(10)
    table = np.tile([0.5, 0.5], (10, 1))
    policy = RandomizedStationaryPolicy(binning, table, cands)
    rr = rollout(
        policy, two_state_chain, QUAD, horizon=400, n_paths=1, seed=6,
        initial_belief=two_state_chain.invariant_distribution(),
    )
    used = set(rr.log.quantizer_id.tolist())
    assert used == {0, 1}


def _path_ids(n_paths):
    # one path, or n_paths over the 3 beliefs 0, 2 and 3 (id 1 unused)
    if n_paths == 1:
        return np.array([2])
    return np.random.default_rng(31).choice([0, 2, 3], size=n_paths)


def _identities(calls, beliefs):
    return [next(i for i, b in enumerate(beliefs) if b is c) for c in calls]


@pytest.mark.parametrize("n_paths", [1, 2000])
def test_greedy_plan_decides_each_distinct_belief_once(monkeypatch, ar_source, n_paths):
    grid = default_grid(ar_source)
    beliefs = [GridBelief.normal(grid, m, s) for m, s in [(-1.5, 0.4), (0.2, 1.0), (1.1, 0.7), (3.0, 0.5)]]
    cands = enumerate_interval_candidates(2, -2.0, 2.0, 9)
    ids = _path_ids(n_paths)
    calls = []

    def counted(belief, quantizers, cost, decide=zdq.infinite.cell_decisions):
        calls.append(belief)
        return decide(belief, quantizers, cost)

    monkeypatch.setattr(zdq.infinite, "cell_decisions", counted)
    plan = GreedyPolicy(cands, QUAD).plan(None, 0, ids, beliefs, None)
    distinct = sorted(set(ids.tolist()))
    assert _identities(calls, beliefs) == distinct
    assert [d[0] for d in plan.decisions] == distinct
    own = [int(np.argmin(stage_costs(beliefs[b], cands, QUAD))) for b in ids.tolist()]
    assert plan.quantizer_ids.tolist() == own
    assert n_paths == 1 or len(set(own)) == 3


@pytest.mark.parametrize("n_paths", [1, 2000])
def test_randomized_plan_bins_each_distinct_belief_once(monkeypatch, n_paths):
    binning = SimplexBinning(10)
    table = np.column_stack([np.linspace(0.0, 1.0, 10), np.linspace(1.0, 0.0, 10)])
    policy = RandomizedStationaryPolicy(binning, table, enumerate_finite_partitions(2, 2))
    beliefs = [SimplexBelief([p, 1.0 - p]) for p in (0.05, 0.5, 0.33, 0.95)]
    ids = _path_ids(n_paths)
    r = np.random.default_rng(32).random(n_paths)
    calls = []

    def counted(self, belief, bin_of=SimplexBinning.bin_of):
        calls.append(belief)
        return bin_of(self, belief)

    monkeypatch.setattr(SimplexBinning, "bin_of", counted)
    picks = policy.plan(None, 0, ids, beliefs, r).quantizer_ids
    assert _identities(calls, beliefs) == sorted(set(ids.tolist()))
    # each path's own draw: the count of its cumulative row entries <= r
    rows = np.cumsum(table, axis=1)
    own = [
        min(int(np.searchsorted(rows[binning.bin_of(beliefs[b])], v, side="right")), 1)
        for b, v in zip(ids.tolist(), r.tolist())
    ]
    assert picks.tolist() == own


def test_fixed_policy_gaussian(ar_source):
    cands = enumerate_interval_candidates(2, -2.0, 2.0, 5)
    rr = rollout(
        FixedQuantizerPolicy(cands[2]),
        ar_source,
        QUAD,
        horizon=15,
        n_paths=2,
        seed=8,
        initial_belief=ar_source.invariant_distribution(),
    )
    assert np.isfinite(rr.mean_cost)
    assert rr.log.probabilities is None


# ---------------------------------------------------------------------------
# discounted value iteration


def test_vi_converges(two_state_chain):
    cands = enumerate_finite_partitions(2, 2)
    grid = simplex_belief_grid(two_state_chain, 101)
    res = discounted_value_iteration(
        grid, two_state_chain, 0.9, cands, TAB, tol=1e-8, max_iter=600
    )
    assert res.residual < 1e-7
    assert res.values.shape == (101,)
    assert np.all(res.values >= 0.0)
    # discounted total of a bounded stage cost is bounded by c_max/(1-b)
    assert res.values.max() <= TAB.bound / (1.0 - 0.9) + 1e-9


def test_vi_beta_zero_is_stage_minimum(two_state_chain):
    cands = enumerate_finite_partitions(2, 2)
    grid = simplex_belief_grid(two_state_chain, 101)
    res = discounted_value_iteration(grid, two_state_chain, 0.0, cands, TAB, tol=1e-12)
    expected = np.array([min(stage_cost(b, q, TAB) for q in cands) for b in grid])
    assert np.max(np.abs(res.values - expected)) < 1e-15
    assert res.residual == 0.0


def test_vi_nonconvergence_raises(two_state_chain):
    cands = enumerate_finite_partitions(2, 2)
    grid = simplex_belief_grid(two_state_chain, 101)
    with pytest.raises(DiscountedVINotConverged):
        discounted_value_iteration(
            grid, two_state_chain, 0.9, cands, TAB, tol=1e-10, max_iter=2
        )


def test_vi_input_validation(two_state_chain, three_state_chain):
    cands = enumerate_finite_partitions(2, 2)
    grid = simplex_belief_grid(two_state_chain, 11)
    with pytest.raises(ValueError):
        discounted_value_iteration(grid, two_state_chain, 1.0, cands, TAB)
    with pytest.raises(ValueError):
        discounted_value_iteration([], two_state_chain, 0.5, cands, TAB)
    with pytest.raises(ValueError):
        simplex_belief_grid(three_state_chain, 11)


# ---------------------------------------------------------------------------
# occupation measures


def test_simplex_binning_edges():
    binning = SimplexBinning(50)
    assert binning.bin_of(SimplexBelief(np.array([0.0, 1.0]))) == 0
    assert binning.bin_of(SimplexBelief(np.array([1.0, 0.0]))) == 49
    assert binning.bin_of(SimplexBelief(np.array([0.5, 0.5]))) == 25
    with pytest.raises(ValueError):
        binning.bin_of(SimplexBelief(np.full(3, 1 / 3)))


def test_grid_feature_binning_clips(ar_source):
    from zdq.beliefs import GridBelief, default_grid

    binning = GridFeatureBinning.for_grid(default_grid(ar_source))
    b = GridBelief.normal(default_grid(ar_source), 0.0, 1.0)
    assert 0 <= binning.bin_of(b) < binning.n_total
    mean, std = binning.bin_center(binning.bin_of(b))
    assert abs(mean) < 1.0 and std > 0.0


def test_occupation_histogram_counts(two_state_chain):
    cands = enumerate_finite_partitions(2, 2)
    rr = rollout(
        GreedyPolicy(cands, TAB), two_state_chain, TAB, horizon=500, n_paths=1,
        seed=9, initial_belief=two_state_chain.invariant_distribution(),
    )
    hist = occupation_measure(rr.log, SimplexBinning(50))
    assert hist.counts.sum() == 500
    assert hist.steps == 500
    assert abs(hist.mean_stage_cost - rr.log.stage.mean()) < 1e-15
    doc = hist.to_json()
    assert doc["steps"] == 500
    assert sum(e["count"] for e in doc["entries"]) == 500


def test_invariance_residual_under_stationary_policy(two_state_chain):
    sep = FinitePartition((1, 2), 2)
    rr = rollout(
        FixedQuantizerPolicy(sep), two_state_chain, QUAD, horizon=5000, n_paths=1,
        seed=10, initial_belief=two_state_chain.invariant_distribution(),
    )
    hist = occupation_measure(rr.log, SimplexBinning(50))
    resid = invariance_residual(hist, two_state_chain, [sep])
    assert resid < 0.05


# ---------------------------------------------------------------------------
# rollout against the per-step loop and a symbols-only decoder

LOG_COLUMNS = ("t", "x", "symbol", "u", "stage", "belief_mean", "belief_std",
               "quantizer_id", "probabilities")


def reference_rollout(policy, model, cost, horizon, n_paths, seed, initial_belief):
    """The per-step loop rollout ran before its transition memo.

    Encoder and decoder beliefs are filtered separately at every step,
    and chain draws go through Generator.choice. Returns the path costs
    and path 0's log columns.
    """
    finite = isinstance(model, FiniteChain)
    path_seeds = np.random.SeedSequence(seed).spawn(n_paths)
    path_costs = np.zeros(n_paths)
    rows = []
    for p in range(n_paths):
        src_stream, shared_stream = (np.random.default_rng(s) for s in path_seeds[p].spawn(2))
        x = sample_one(initial_belief, src_stream)
        enc = dec = initial_belief
        state = policy.begin(1)
        total = 0.0
        for t in range(horizon):
            r = float(shared_stream.uniform())
            plan = policy.plan(state, t, np.array([0]), [enc], np.array([r]))
            if plan.reset_belief is not None:
                enc = dec = plan.reset_belief
            quantizer_id = int(plan.quantizer_ids[0])
            quantizer = policy.quantizers[quantizer_id]
            symbol = quantizer.classify(x)
            u = optimal_reconstruction(dec, quantizer, symbol, cost)
            value = model.state_values[x] if finite else x
            total += cost.pointwise(value if cost.kind == "quadratic" else x, u)
            if p == 0:
                rows.append((t, value, symbol, u, stage_cost(enc, quantizer, cost), enc.mean,
                             enc.std, quantizer_id, enc.probabilities if finite else None))
            if finite:
                nxt = int(src_stream.choice(model.n_states, p=model.transition[x]))
            else:
                nxt = model.sample_next(x, src_stream)
            enc = filter_update(enc, model, quantizer, symbol)
            dec = filter_update(dec, model, quantizer, symbol)
            x = nxt
            state = policy.advance(state, t, np.array([symbol]))
        path_costs[p] = total / horizon
    columns = {name: np.array(col) for name, col in zip(LOG_COLUMNS, zip(*rows))}
    if not finite:
        columns["probabilities"] = None
    return path_costs, columns


def _rollout_chain_case(three_state_chain, two_state_chain, ar_source):
    # the rollout-chain benchmark workload, at 200 paths
    chain = FiniteChain(
        three_state_chain.transition, [0.334, 0.333, 0.333], three_state_chain.state_values
    )
    init = SimplexBelief(chain.initial.copy(), states=chain.state_values)
    tree = solve_finite_horizon(init, chain, enumerate_finite_partitions(3, 2), QUAD, 3).tree
    return TreeReplayPolicy(tree), chain, QUAD, 12, 200, 0, init


def _randomized_case(three_state_chain, two_state_chain, ar_source):
    table = np.tile([0.3, 0.7], (20, 1))
    policy = RandomizedStationaryPolicy(
        SimplexBinning(20), table, enumerate_finite_partitions(2, 2)
    )
    init = two_state_chain.invariant_distribution()
    return policy, two_state_chain, TAB, 300, 3, 11, init


def _multi_word_seed_case(three_state_chain, two_state_chain, ar_source):
    # a seed of five 32-bit words, past SeedSequence's pool of four, on a
    # policy that draws both streams
    policy, model, cost, horizon, n_paths, _, init = _randomized_case(
        three_state_chain, two_state_chain, ar_source
    )
    return policy, model, cost, 40, 6, 2**130 + 1, init


def _fixed_grid_past_cap_case(three_state_chain, two_state_chain, ar_source):
    policy = FixedQuantizerPolicy(IntervalQuantizer((0.0,)))
    init = ar_source.invariant_distribution()
    return policy, ar_source, QUAD, zdq.infinite._MEMO_CAP + 44, 1, 12, init


def _pieced_chain_case(three_state_chain, two_state_chain, ar_source):
    init = three_state_chain.invariant_distribution()
    sched = piecing_schedule([2, 4, 8], 2)
    cands = enumerate_finite_partitions(3, 2)
    trees = [
        solve_finite_horizon(init, three_state_chain, cands, QUAD, T).tree
        for T in sched.horizons
    ]
    return build_pieced_policy(trees, sched), three_state_chain, QUAD, 30, 40, 2, init


def _greedy_grid_case(three_state_chain, two_state_chain, ar_source):
    policy = GreedyPolicy(enumerate_interval_candidates(2, -2.0, 2.0, 5), QUAD)
    return policy, ar_source, QUAD, 40, 5, 8, ar_source.invariant_distribution()


def _tabular_chain_case(three_state_chain, two_state_chain, ar_source):
    policy = GreedyPolicy(enumerate_finite_partitions(2, 2), TAB)
    return policy, two_state_chain, TAB, 50, 20, 4, two_state_chain.invariant_distribution()


def _long_single_path_case(three_state_chain, two_state_chain, ar_source):
    init = three_state_chain.invariant_distribution()
    tree = solve_finite_horizon(
        init, three_state_chain, enumerate_finite_partitions(3, 2), QUAD, 3
    ).tree
    return TreeReplayPolicy(tree), three_state_chain, QUAD, 2000, 1, 13, init


def rollout_counters(caplog) -> dict:
    """The counters of the last rollout's INFO line."""
    records = [r for r in caplog.records if r.name == "zdq.infinite"]
    return records[-1].args


# (_DRAW_BLOCK, _CHUNK) small enough that a rollout spans many draw
# blocks and cost chunks
SMALL_BLOCKS = (48, 16)


@pytest.mark.parametrize(
    "case, blocks",
    [
        (_rollout_chain_case, None),
        (_randomized_case, None),
        (_multi_word_seed_case, None),
        (_fixed_grid_past_cap_case, None),
        (_pieced_chain_case, None),
        (_greedy_grid_case, None),
        (_tabular_chain_case, None),
        (_long_single_path_case, None),
        (_rollout_chain_case, SMALL_BLOCKS),
        (_randomized_case, SMALL_BLOCKS),
        (_greedy_grid_case, SMALL_BLOCKS),
        (_long_single_path_case, SMALL_BLOCKS),
    ],
    ids=[
        "rollout-chain",
        "randomized",
        "multi-word-seed",
        "ar1-fixed-past-cap",
        "pieced-chain",
        "greedy-grid",
        "tabular-chain",
        "one-path-2000-steps",
        "rollout-chain-small-blocks",
        "randomized-small-blocks",
        "greedy-grid-small-blocks",
        "one-path-small-blocks",
    ],
)
def test_rollout_matches_reference_loop(
    monkeypatch, caplog, case, blocks, three_state_chain, two_state_chain, ar_source
):
    policy, model, cost, horizon, n_paths, seed, init = case(
        three_state_chain, two_state_chain, ar_source
    )
    ref_costs, ref_log = reference_rollout(policy, model, cost, horizon, n_paths, seed, init)
    filtered = []

    def counting_filter(belief, model, quantizer, symbol):
        filtered.append((belief.key(), quantizer, symbol))
        return filter_update(belief, model, quantizer, symbol)

    monkeypatch.setattr(zdq.infinite, "filter_update", counting_filter)
    if blocks is not None:
        monkeypatch.setattr(zdq.infinite, "_DRAW_BLOCK", blocks[0])
        monkeypatch.setattr(zdq.infinite, "_CHUNK", blocks[1])
    caplog.set_level(logging.INFO, logger="zdq.infinite")
    rr = rollout(policy, model, cost, horizon, n_paths, seed, initial_belief=init)
    assert np.array_equal(rr.path_costs, ref_costs)
    for name in LOG_COLUMNS:
        got = getattr(rr.log, name)
        if ref_log[name] is None:
            assert got is None
        else:
            assert np.array_equal(got, ref_log[name]), name
    counters = rollout_counters(caplog)
    assert counters["filter_calls"] == len(filtered)
    if counters["clears"] == 0:
        # each distinct transition is filtered once
        assert len(set(filtered)) == len(filtered)
    if isinstance(model, FiniteChain):
        assert len(filtered) <= 100 < horizon * n_paths
    if case is _fixed_grid_past_cap_case:
        # grid beliefs do not repeat: the table reached its cap and was cleared
        assert len(filtered) > zdq.infinite._MEMO_CAP and counters["clears"] >= 1


def test_pruned_symbol_raises(two_state_chain):
    # a symbol of mass 1e-10 <= eps_prune is pruned from the tree, but its
    # cell is live, so reconstruction and filtering go through first
    sure = SimplexBelief(np.array([1.0 - 1e-10, 1e-10]))
    tree = solve_finite_horizon(sure, two_state_chain, enumerate_finite_partitions(2, 2), QUAD, 2).tree
    root = tree.nodes[tree.root]
    assert root.quantizer == FinitePartition((1, 2), 2) and 2 not in root.children
    starts_in_2 = SimplexBelief(np.array([0.0, 1.0]))
    for run in (rollout, reference_rollout):
        with pytest.raises(RuntimeError, match="^symbol 2 at t=0 was pruned from the policy tree$"):
            run(TreeReplayPolicy(tree), two_state_chain, QUAD, 4, 3, 0, starts_in_2)


@pytest.mark.parametrize(
    "policy, horizon, n_paths",
    [
        (FixedQuantizerPolicy(IntervalQuantizer((0.0,))), zdq.infinite._MEMO_CAP + 44, 1),
        (GreedyPolicy(enumerate_interval_candidates(2, -2.0, 2.0, 5), QUAD), 80, 5),
    ],
    ids=["ar1-fixed-past-cap", "greedy-grid-5-paths"],
)
def test_rollout_table_stays_bounded(caplog, ar_source, policy, horizon, n_paths):
    caplog.set_level(logging.INFO, logger="zdq.infinite")
    rollout(policy, ar_source, QUAD, horizon, n_paths, 3,
            initial_belief=ar_source.invariant_distribution())
    counters = rollout_counters(caplog)
    # more distinct beliefs than the cap were made, and the table dropped them
    assert counters["filter_calls"] > zdq.infinite._MEMO_CAP
    assert counters["clears"] >= 1
    # at most the cap plus the beliefs the paths move to in one step
    assert counters["peak_beliefs"] <= zdq.infinite._MEMO_CAP + n_paths


def test_rollout_logs_repeatable_counters(caplog, three_state_chain, two_state_chain, ar_source):
    policy, model, cost, horizon, n_paths, seed, init = _rollout_chain_case(
        three_state_chain, two_state_chain, ar_source
    )
    caplog.set_level(logging.INFO, logger="zdq.infinite")
    runs = []
    for _ in range(2):
        caplog.clear()
        rollout(policy, model, cost, horizon, n_paths, seed, initial_belief=init)
        (record,) = [r for r in caplog.records if r.name == "zdq.infinite"]
        runs.append((record.getMessage(), record.args))
    assert runs[0] == runs[1]
    message, counters = runs[0]
    assert message.startswith("rollout: 200 paths, 12 steps, ")
    assert counters["paths"] == n_paths and counters["steps"] == horizon
    assert horizon <= counters["groups"] <= horizon * n_paths
    # the table holds the initial belief, the tree's root belief and the
    # distinct filter outputs
    assert counters["clears"] == 0
    assert 0 < counters["peak_beliefs"] <= counters["filter_calls"] + 2


def decode_from_symbols(policy, model, cost, log, seed, n_paths, initial_belief):
    """A decoder that never sees the source: it rebuilds path 0's beliefs
    from the logged symbols and the path's shared randomness, re-plans
    with the policy, applies resets, and filters and reconstructs with
    fresh calls."""
    path_seed = np.random.SeedSequence(seed).spawn(n_paths)[0]
    shared = np.random.default_rng(path_seed.spawn(2)[1])
    belief, state = initial_belief, policy.begin(1)
    out = {"quantizer_id": [], "u": [], "belief_mean": [], "probabilities": []}
    for t, symbol in enumerate(log.symbol.tolist()):
        plan = policy.plan(state, t, np.array([0]), [belief], np.array([shared.uniform()]))
        if plan.reset_belief is not None:
            belief = plan.reset_belief
        quantizer_id = int(plan.quantizer_ids[0])
        quantizer = policy.quantizers[quantizer_id]
        out["quantizer_id"].append(quantizer_id)
        out["u"].append(optimal_reconstruction(belief, quantizer, symbol, cost))
        out["belief_mean"].append(belief.mean)
        out["probabilities"].append(getattr(belief, "probabilities", None))
        belief = filter_update(belief, model, quantizer, symbol)
        state = policy.advance(state, t, np.array([symbol]))
    return out


def test_encoder_decoder_stay_synchronized(three_state_chain, two_state_chain, ar_source):
    chain_cands = enumerate_finite_partitions(3, 2)
    chain_init = three_state_chain.invariant_distribution()
    tree2 = solve_finite_horizon(chain_init, three_state_chain, chain_cands, QUAD, 2).tree
    sched = piecing_schedule([2, 4, 8], 2)
    pieced = build_pieced_policy(
        [solve_finite_horizon(chain_init, three_state_chain, chain_cands, QUAD, T).tree
         for T in sched.horizons],
        sched,
    )
    randomized = RandomizedStationaryPolicy(
        SimplexBinning(20), np.tile([0.3, 0.7], (20, 1)), enumerate_finite_partitions(2, 2)
    )
    greedy = GreedyPolicy(enumerate_interval_candidates(2, -2.0, 2.0, 5), QUAD)
    cases = [
        # tree replay resets to the root belief every 2 steps
        (TreeReplayPolicy(tree2), three_state_chain, QUAD, 9, 3, 5, chain_init),
        (pieced, three_state_chain, QUAD, 30, 2, 2, chain_init),
        (randomized, two_state_chain, QUAD, 300, 2, 11, two_state_chain.invariant_distribution()),
        (greedy, ar_source, QUAD, 30, 2, 8, ar_source.invariant_distribution()),
    ]
    logs = []
    for policy, model, cost, horizon, n_paths, seed, init in cases:
        log = rollout(policy, model, cost, horizon, n_paths, seed, initial_belief=init).log
        decoded = decode_from_symbols(policy, model, cost, log, seed, n_paths, init)
        for name in ("quantizer_id", "u", "belief_mean"):
            assert np.array_equal(decoded[name], getattr(log, name)), name
        if log.probabilities is None:
            assert all(p is None for p in decoded["probabilities"])
        else:
            assert np.array_equal(np.stack(decoded["probabilities"]), log.probabilities)
        logs.append(log)
    # the shared variate really mixes the randomized policy's quantizers
    assert set(logs[2].quantizer_id.tolist()) == {0, 1}


# ---------------------------------------------------------------------------
# occupation measure against the per-step loop


def reference_occupation(log, binning):
    """The per-step loop occupation_measure ran before it was vectorized."""
    counts = np.zeros((binning.n_total, int(log.quantizer_id.max()) + 1), dtype=np.int64)
    belief_sums = None
    if log.probabilities is not None:
        belief_sums = np.zeros((binning.n_total, log.probabilities.shape[1]))
    for idx in range(len(log.t)):
        if log.probabilities is not None:
            b = binning.bin_of(SimplexBelief(log.probabilities[idx]))
            belief_sums[b] += log.probabilities[idx]
        else:
            b_i, b_j = binning._coords(log.belief_mean[idx], log.belief_std[idx])
            b = b_i * binning.n_std + b_j
        counts[b, int(log.quantizer_id[idx])] += 1
    return counts, belief_sums


def test_occupation_measure_matches_reference_loop(two_state_chain, ar_source):
    chain_log = rollout(
        RandomizedStationaryPolicy(
            SimplexBinning(20), np.tile([0.4, 0.6], (20, 1)), enumerate_finite_partitions(2, 2)
        ),
        two_state_chain, QUAD, 400, 1, 3,
        initial_belief=two_state_chain.invariant_distribution(),
    ).log
    probs = chain_log.probabilities.copy()
    probs[:3] = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]  # both edges and a bin boundary
    chain_log = dataclasses.replace(chain_log, probabilities=probs)
    grid = default_grid(ar_source)
    grid_log = rollout(
        GreedyPolicy(enumerate_interval_candidates(2, -2.0, 2.0, 5), QUAD),
        ar_source, QUAD, 60, 1, 4, initial_belief=ar_source.invariant_distribution(),
    ).log
    mean, std = grid_log.belief_mean.copy(), grid_log.belief_std.copy()
    # means and stds outside the binned range, on its edges, and negative
    mean[:6] = [grid.lo - 50.0, grid.hi + 50.0, grid.lo, grid.hi, -1e300, 1e300]
    std[:6] = [0.0, 1e300, 0.5 * (grid.hi - grid.lo), 100.0, 1e-300, 3.0]
    grid_log = dataclasses.replace(grid_log, belief_mean=mean, belief_std=std)
    for log, binning in (
        (chain_log, SimplexBinning(50)),
        (chain_log, SimplexBinning(7)),
        (grid_log, GridFeatureBinning.for_grid(grid)),
        (grid_log, GridFeatureBinning.for_grid(grid, n_mean=13, n_std=3)),
    ):
        hist = occupation_measure(log, binning)
        counts, belief_sums = reference_occupation(log, binning)
        assert hist.counts.dtype == counts.dtype
        assert np.array_equal(hist.counts, counts)
        if belief_sums is None:
            assert hist.belief_sums is None
        else:
            assert np.array_equal(hist.belief_sums, belief_sums)
        assert hist.steps == len(log.t)
        assert hist.mean_stage_cost == float(log.stage.mean())


def test_occupation_measure_rejects_bad_logs(two_state_chain, three_state_chain, ar_source):
    log = rollout(
        FixedQuantizerPolicy(FinitePartition((1, 2), 2)), two_state_chain, QUAD, 20, 1, 1
    ).log
    for bad in ([0.7, 0.7], [1.2, -0.2], [np.nan, 0.5]):
        probs = log.probabilities.copy()
        probs[5] = bad
        with pytest.raises(ValueError):
            occupation_measure(dataclasses.replace(log, probabilities=probs), SimplexBinning(10))
    three = rollout(
        FixedQuantizerPolicy(FinitePartition((1, 2, 2), 2)), three_state_chain, QUAD, 5, 1, 1
    ).log
    with pytest.raises(ValueError):
        occupation_measure(three, SimplexBinning(10))
    grid_log = rollout(
        FixedQuantizerPolicy(IntervalQuantizer((0.0,))), ar_source, QUAD, 5, 1, 1,
        initial_belief=ar_source.invariant_distribution(),
    ).log
    with pytest.raises(ValueError):
        occupation_measure(grid_log, SimplexBinning(10))
    mean = grid_log.belief_mean.copy()
    mean[2] = np.nan
    with pytest.raises(ValueError):
        occupation_measure(
            dataclasses.replace(grid_log, belief_mean=mean),
            GridFeatureBinning.for_grid(default_grid(ar_source)),
        )
