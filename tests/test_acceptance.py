"""Acceptance suite.

Each test prints one PASS/FAIL line with the measured quantity, its
pinned tolerance, and the runtime, then asserts both. Tolerances are
fixed here and nowhere else; loosening them is a spec change, not a
test fix.
"""
import json
import math
import time

import numpy as np

from conftest import random_chain
from reference_density import check_S_membership, density_bounds
from reference_filter import classify, sample_next
from reference_oracles import exhaustive_admissible_search
from zdq.beliefs import (
    GridBelief,
    SimplexBelief,
    default_grid,
    filter_update,
)
from zdq.cli import main as cli_main
from zdq.costs import CostModel, cell_decisions
from zdq.dp import bellman_residuals, greedy_policy_step, solve_finite_horizon
from zdq.infinite import (
    FixedQuantizerPolicy,
    SimplexBinning,
    TreeReplayPolicy,
    discounted_value_iteration,
    invariance_residual,
    occupation_measure,
    piecing_schedule,
    rollout,
    simplex_belief_grid,
)
from zdq.oracles import brute_force_finite
from zdq.quantizers import (
    FinitePartition,
    enumerate_finite_partitions,
    enumerate_interval_candidates,
)
from zdq.sources import FiniteChain, LinearGaussianSource

QUAD = CostModel.quadratic()

THREE_STATE = FiniteChain(
    np.array([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]]),
    np.array([1 / 3, 1 / 3, 1 / 3]),
    np.array([-1.0, 0.0, 1.0]),
)
TWO_STATE = FiniteChain(np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0.5, 0.5]))


def report(capfd, line: str) -> None:
    with capfd.disabled():
        print(line, flush=True)


def test_a1_filter_exactness(capfd):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 4))
        chain = random_chain(rng, n)
        belief = rng.dirichlet(np.full(n, 1.5))
        parts = enumerate_finite_partitions(n, 2)
        part = parts[int(rng.integers(len(parts)))]
        symbol = int(rng.integers(1, part.levels + 1))
        mass = sum(
            belief[i] for i in range(n) if part.assignment[i] == symbol
        )
        if mass < 1e-6:
            continue
        # independent hand-coded Bayes-plus-prediction step
        expected = [0.0] * n
        for j in range(n):
            acc = 0.0
            for i in range(n):
                if part.assignment[i] == symbol:
                    acc += belief[i] * chain.transition[i, j]
            expected[j] = acc / mass
        got = filter_update(
            SimplexBelief(belief, states=chain.state_values), chain, part, symbol
        )
        worst = max(worst, float(np.max(np.abs(got.probabilities - expected))))
        checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 1.0
    report(
        capfd,
        f"A1: {'PASS' if ok else 'FAIL'} filter exactness max|dpi|={worst:.2e} "
        f"(tol 1e-12) over 100 instances in {dt:.2f}s (budget 1s)",
    )
    assert ok


def test_a2_dp_equals_brute_force(capfd):
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    n_instances = 24
    for trial in range(n_instances):
        n = 2 + trial % 2
        horizon = 1 + trial % 3
        chain = random_chain(rng, n)
        cands = enumerate_finite_partitions(n, 2)
        init = SimplexBelief(chain.initial.copy(), states=chain.state_values)
        dp = solve_finite_horizon(init, chain, cands, QUAD, horizon).value
        oracle = brute_force_finite(chain.initial, chain, 2, horizon, QUAD)
        worst = max(worst, abs(dp - oracle))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 30.0
    report(
        capfd,
        f"A2: {'PASS' if ok else 'FAIL'} dp vs brute force max|dJ|={worst:.2e} "
        f"(tol 1e-12) over {n_instances} instances in {dt:.2f}s (budget 30s)",
    )
    assert ok


def test_a3_admissible_search_equals_dp(capfd):
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    n_instances = 10
    for trial in range(n_instances):
        n = 2 if trial < 4 else 3
        chain = random_chain(rng, n)
        cands = enumerate_finite_partitions(n, 2)
        init = SimplexBelief(chain.initial.copy(), states=chain.state_values)
        dp = solve_finite_horizon(init, chain, cands, QUAD, horizon=2).value
        full = exhaustive_admissible_search(chain, 2, 2, QUAD)
        worst = max(worst, abs(dp - full))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 60.0
    report(
        capfd,
        f"A3: {'PASS' if ok else 'FAIL'} belief feedback vs all zero-delay codes "
        f"max|dJ|={worst:.2e} (tol 1e-12) over {n_instances} instances in "
        f"{dt:.2f}s (budget 60s)",
    )
    assert ok


def test_a4_memoryless_recovery(capfd):
    src = LinearGaussianSource(0.0, 1.0)
    t0 = time.perf_counter()
    init = src.invariant_distribution()
    cands = enumerate_interval_candidates(2, -2.0, 2.0, 41)
    res = solve_finite_horizon(init, src, cands, QUAD, horizon=2)
    dt = time.perf_counter() - t0
    target = 1.0 - 2.0 / math.pi
    gap = abs(res.value - target)
    chosen = res.tree.nodes[res.tree.root].quantizer.thresholds
    ok = chosen == (0.0,) and gap <= 2e-3 and dt < 10.0
    report(
        capfd,
        f"A4: {'PASS' if ok else 'FAIL'} iid one-bit design: threshold={chosen}, "
        f"value={res.value:.6f} vs 1-2/pi={target:.6f}, |gap|={gap:.2e} "
        f"(tol 2e-3) in {dt:.2f}s (budget 10s)",
    )
    assert ok


def test_a5_density_class_invariance(capfd):
    src = LinearGaussianSource(0.5, 1.0)
    bounds = density_bounds(src)
    t0 = time.perf_counter()
    grid = default_grid(src)
    tol = 2.0 * grid.spacing * bounds.slope_bound
    cands = enumerate_interval_candidates(2, -2.0, 2.0, 21)
    belief = GridBelief.normal(grid, 0.0, src.stationary_std)
    rng = np.random.default_rng(105)
    x = float(belief.inverse_cdf(rng.random(1))[0])
    worst_density = 0.0
    worst_slope = 0.0
    all_pass = True
    for t in range(100):
        quantizer = greedy_policy_step(belief, cands, QUAD)
        symbol = classify(quantizer, x)
        belief = filter_update(belief, src, quantizer, symbol)
        x = sample_next(src, x, rng)
        rep = check_S_membership(belief, bounds, tol=tol)
        worst_density = max(worst_density, rep.max_density)
        worst_slope = max(worst_slope, rep.max_slope)
        all_pass = all_pass and rep.passed
    dt = time.perf_counter() - t0
    ok = all_pass and dt < 1.0
    report(
        capfd,
        f"A5: {'PASS' if ok else 'FAIL'} filtered densities stay in class over "
        f"100 greedy steps: max density {worst_density:.5f} <= {bounds.sup_density:.5f}+{tol:.4f}, "
        f"max slope {worst_slope:.5f} <= {bounds.slope_bound:.5f}+{tol:.4f} in {dt:.2f}s (budget 1s)",
    )
    assert ok


def test_a6_bellman_identity(capfd):
    t0 = time.perf_counter()
    worst = 0.0
    # finite tree
    cands_f = enumerate_finite_partitions(3, 2)
    init_f = SimplexBelief(THREE_STATE.initial.copy(), states=THREE_STATE.state_values)
    tree_f = solve_finite_horizon(init_f, THREE_STATE, cands_f, QUAD, horizon=3).tree
    worst = max(worst, float(np.max(bellman_residuals(tree_f))))
    # density tree
    src = LinearGaussianSource(0.5, 1.0)
    grid = default_grid(src, n_points=301)
    init_g = GridBelief.normal(grid, 0.0, src.stationary_std)
    cands_g = enumerate_interval_candidates(2, -2.0, 2.0, 11)
    tree_g = solve_finite_horizon(init_g, src, cands_g, QUAD, horizon=2).tree
    worst = max(worst, float(np.max(bellman_residuals(tree_g))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 30.0
    report(
        capfd,
        f"A6: {'PASS' if ok else 'FAIL'} Bellman identity on emitted trees: "
        f"max residual {worst:.2e} (tol 1e-9) in {dt:.2f}s",
    )
    assert ok


def test_a7_rollout_consistency(capfd):
    t0 = time.perf_counter()
    cands = enumerate_finite_partitions(3, 2)
    init = SimplexBelief(THREE_STATE.initial.copy(), states=THREE_STATE.state_values)
    res = solve_finite_horizon(init, THREE_STATE, cands, QUAD, horizon=3)
    rr = rollout(
        TreeReplayPolicy(res.tree),
        THREE_STATE,
        QUAD,
        horizon=3,
        n_paths=10_000,
        seed=107,
        initial_belief=init,
    )
    dt = time.perf_counter() - t0
    gap = abs(rr.mean_cost - res.value)
    ok = gap <= 3.0 * rr.stderr and dt < 1.0
    report(
        capfd,
        f"A7: {'PASS' if ok else 'FAIL'} Monte Carlo vs dp value: "
        f"mc={rr.mean_cost:.6f}, dp={res.value:.6f}, |gap|={gap:.2e} <= "
        f"3se={3 * rr.stderr:.2e} at 10^4 paths in {dt:.1f}s (budget 1s)",
    )
    assert ok


def test_a8_piecing_schedule(capfd):
    t0 = time.perf_counter()
    s = piecing_schedule([2, 4, 8, 16], 3)
    example_ok = (
        s.n_reps == (1, 4, 6)
        and s.block_lengths == (2, 16, 48)
        and s.boundaries == (2, 18, 66)
    )
    horizons = [2**k for k in range(1, 10)]
    s8 = piecing_schedule(horizons, 8)
    recursion_ok = s8.n_reps[0] == 1
    for k in range(2, 9):
        expected = math.ceil(
            k
            * max(
                horizons[k] / horizons[k - 1],
                s8.n_reps[k - 2] * horizons[k - 2] / horizons[k - 1],
            )
        )
        recursion_ok = recursion_ok and s8.n_reps[k - 1] == expected
    growth_ok = all(
        s8.block_lengths[k - 1] >= k * s8.block_lengths[k - 2] for k in range(2, 9)
    )
    dt = time.perf_counter() - t0
    ok = example_ok and recursion_ok and growth_ok and dt < 1.0
    report(
        capfd,
        f"A8: {'PASS' if ok else 'FAIL'} schedule: example n={s.n_reps} "
        f"boundaries={s.boundaries}; recursion and growth invariants hold "
        f"to k=8 in {dt:.3f}s (budget 1s)",
    )
    assert ok


def test_a9_discounted_vi_contraction(capfd):
    t0 = time.perf_counter()
    tab = CostModel.bounded_tabular([[0.2, 1.0], [1.0, 0.1]])
    cands = enumerate_finite_partitions(2, 2)
    grid = simplex_belief_grid(TWO_STATE, 201)
    res = discounted_value_iteration(
        grid, TWO_STATE, 0.9, cands, tab, tol=1e-6, max_iter=400
    )
    # quadratic instance: one bit separates two states, so the fixed
    # point is zero up to the rounding of a point-mass variance
    res_quad = discounted_value_iteration(
        grid, TWO_STATE, 0.9, cands, QUAD, tol=1e-12, max_iter=400
    )
    res0 = discounted_value_iteration(grid, TWO_STATE, 0.0, cands, tab, tol=1e-12)
    floor = np.array([min(cell_decisions(b, [q], tab)[0][0] for q in cands) for b in grid])
    beta0_gap = float(np.max(np.abs(res0.values - floor)))
    dt = time.perf_counter() - t0
    ok = (
        res.residual < 1e-6
        and res.iterations <= 400
        and float(np.max(res_quad.values)) < 1e-12
        and beta0_gap == 0.0
        and dt < 30.0
    )
    report(
        capfd,
        f"A9: {'PASS' if ok else 'FAIL'} discounted vi: residual={res.residual:.2e} "
        f"(tol 1e-6) in {res.iterations} iterations (max 400); beta=0 values equal "
        f"stage floor exactly (gap {beta0_gap:.1e}); {dt:.2f}s (budget 30s)",
    )
    assert ok


def test_a10_occupation_diagnostics(capfd):
    t0 = time.perf_counter()
    sep = FinitePartition((1, 2), 2)
    policy = FixedQuantizerPolicy(sep)
    pi_star = TWO_STATE.invariant_distribution()
    binning = SimplexBinning(50)
    marginals = []
    residuals = []
    for seed in (21, 22):
        rr = rollout(
            policy,
            TWO_STATE,
            QUAD,
            horizon=100_000,
            n_paths=1,
            seed=seed,
            initial_belief=pi_star,
        )
        hist = occupation_measure(rr.log, binning)
        residuals.append(invariance_residual(hist, TWO_STATE, [sep]))
        marginals.append(hist.counts.sum(axis=1) / hist.steps)
    tv = float(np.abs(marginals[0] - marginals[1]).sum())
    dt = time.perf_counter() - t0
    ok = max(residuals) < 0.1 and tv < 0.05 and dt < 20.0
    report(
        capfd,
        f"A10: {'PASS' if ok else 'FAIL'} occupation at 10^5 steps: invariance "
        f"residuals {residuals[0]:.4f}, {residuals[1]:.4f} (tol 0.1); two-seed "
        f"TV={tv:.4f} (tol 0.05) in {dt:.1f}s (budget 20s)",
    )
    assert ok


def test_a11_reproducibility(capfd, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "out"
    doc = {
        "task": "rollout",
        "seed": 11,
        "source": {
            "type": "chain",
            "transition": [[0.9, 0.1], [0.2, 0.8]],
            "initial": [0.5, 0.5],
        },
        "quantizers": {"type": "partitions", "levels": 2},
        "horizon": 5,
        "n_paths": 100,
        "policy": {"type": "greedy"},
        "output_dir": str(out),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["rollout", "--config", str(cfg)]) == 0
    first_results = (out / "results.json").read_bytes()
    first_traj = (out / "trajectory.csv").read_bytes()
    assert cli_main(["rollout", "--config", str(cfg)]) == 0
    second_results = (out / "results.json").read_bytes()
    second_traj = (out / "trajectory.csv").read_bytes()
    a = json.loads(first_results)
    b = json.loads(second_results)
    del a["timing"]
    del b["timing"]
    same_results = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    same_traj = first_traj == second_traj
    dt = time.perf_counter() - t0
    ok = same_results and same_traj
    report(
        capfd,
        f"A11: {'PASS' if ok else 'FAIL'} identical config+seed: results.json "
        f"byte-identical outside the timing field ({same_results}), "
        f"trajectory.csv byte-identical ({same_traj}) in {dt:.2f}s",
    )
    assert ok
