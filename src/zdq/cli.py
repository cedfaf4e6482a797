"""Command line harness: batch experiment running and result emission.

One invocation runs one task from a JSON config and writes its
artifacts into the output directory: always a results.json carrying the
config echo, the tolerances in force, a content hash of the inputs, and
the task summary; plus per-task files (policy tree, trajectory CSV,
value function table, schedule table, occupation histogram). Wall-clock
times live under the separate "timing" key so that stripping it leaves
a byte-reproducible document for a fixed config and seed.

Diagnostics go to stderr through the zdq loggers at --log-level, a
standard level name; without it the zdq logger keeps its level, WARNING
unless an in-process caller set another. At INFO a rollout reports its
deterministic counters. The level changes no artifact.

Exit codes: 0 success, 1 numerical or budget failure (results.json is
still written, flagged by its status field), 2 configuration error or a
bad command line.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import sys
import time

import numpy as np

from .beliefs import EPS_MASS
from .costs import CostModel
from .config import (
    ConfigError,
    TASKS,
    build_binning,
    build_candidates,
    build_cost,
    build_initial_belief,
    build_source,
    load_config,
    validate_config,
)
from .dp import (
    DEFAULT_EPS_PRUNE,
    DEFAULT_NODE_BUDGET,
    NodeBudgetExceeded,
    bellman_residuals,
    solve_finite_horizon,
)
from .infinite import (
    DiscountedVINotConverged,
    FixedQuantizerPolicy,
    GreedyPolicy,
    RandomizedStationaryPolicy,
    TreeReplayPolicy,
    build_pieced_policy,
    discounted_value_iteration,
    invariance_residual,
    occupation_measure,
    piecing_schedule,
    rollout,
    simplex_belief_grid,
)
from .oracles import brute_force_finite
from .quantizers import enumerate_finite_partitions
from .sources import FiniteChain

_ORACLE_GAP_TOL = 1e-12


# ---------------------------------------------------------------------------
# serialization helpers


def _sanitize(obj):
    """Convert numpy scalars/arrays to plain Python for JSON emission."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _canonical_json(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}.part")
    # created like open() creates files, so the mode follows the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(_sanitize(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


# ---------------------------------------------------------------------------
# policies from config


def _build_policy(cfg: dict, model, cost, candidates, initial_belief):
    """The rollout policy the config's policy section describes."""
    spec = cfg["policy"]
    kind = spec["type"]
    if kind == "greedy":
        return GreedyPolicy(candidates, cost)
    if kind == "fixed":
        idx = spec["index"]
        if idx >= len(candidates):
            raise ConfigError(
                "policy.index",
                f"only {len(candidates)} candidates are enumerated, got index {idx}",
            )
        return FixedQuantizerPolicy(candidates[idx])
    if kind == "tree_replay":
        res = solve_finite_horizon(
            initial_belief, model, candidates, cost, spec["design_horizon"]
        )
        return TreeReplayPolicy(res.tree)
    if kind == "pieced":
        schedule = piecing_schedule(spec["horizons"], spec["k_max"])
        trees = [
            solve_finite_horizon(initial_belief, model, candidates, cost, T).tree
            for T in schedule.horizons
        ]
        return build_pieced_policy(trees, schedule)
    binning = build_binning(spec["binning"], model, cfg)
    try:
        return RandomizedStationaryPolicy(binning, spec["table"], candidates)
    except ValueError as e:
        raise ConfigError("policy.table", str(e))


# ---------------------------------------------------------------------------
# task runners: each returns (exit_code, payload) and writes its CSVs


def _run_design(cfg: dict, out_dir: str):
    model = build_source(cfg)
    cost = build_cost(cfg)
    candidates = build_candidates(cfg, model)
    initial = build_initial_belief(cfg, model)
    try:
        res = solve_finite_horizon(
            initial,
            model,
            candidates,
            cost,
            cfg["horizon"],
            node_budget=cfg.get("node_budget", DEFAULT_NODE_BUDGET),
        )
    except NodeBudgetExceeded as e:
        return 1, {
            "status": "budget_exceeded",
            "nodes_evaluated": e.nodes_evaluated,
            "node_budget": e.budget,
            "greedy_upper_bound": e.greedy_bound,
        }
    tree = res.tree
    _atomic_write(
        os.path.join(out_dir, "policy_tree.json"), _canonical_json(tree.to_json())
    )
    _write_csv(
        os.path.join(out_dir, "policy_tree.csv"),
        ["t", "node", "quantizer", "value"],
        [
            [n.t, n.node_id, "" if n.quantizer is None else n.quantizer.describe(), n.value]
            for n in tree.nodes
        ],
    )
    residuals = np.asarray(bellman_residuals(tree))
    return 0, {
        "status": "ok",
        "value": res.value,
        "horizon": cfg["horizon"],
        "n_candidates": len(candidates),
        "nodes_evaluated": tree.nodes_evaluated,
        "expansions_by_stage": tree.expansions_by_stage,
        "candidates_pruned": tree.candidates_pruned,
        "max_discarded_mass": tree.max_discarded_mass,
        "bellman_residual_max": float(residuals.max()) if residuals.size else 0.0,
    }


def _run_rollout(cfg: dict, out_dir: str):
    model = build_source(cfg)
    cost = build_cost(cfg)
    candidates = build_candidates(cfg, model)
    initial = build_initial_belief(cfg, model)
    policy = _build_policy(cfg, model, cost, candidates, initial)
    res = rollout(
        policy,
        model,
        cost,
        horizon=cfg["horizon"],
        n_paths=cfg["n_paths"],
        seed=cfg["seed"],
        initial_belief=initial,
    )
    buf = io.StringIO()
    res.log.to_csv(buf)
    _atomic_write(os.path.join(out_dir, "trajectory.csv"), buf.getvalue())
    return 0, {
        "status": "ok",
        "mean_cost": res.mean_cost,
        "stderr": res.stderr,
        "n_paths": cfg["n_paths"],
        "horizon": cfg["horizon"],
        "path_cost_min": float(res.path_costs.min()),
        "path_cost_max": float(res.path_costs.max()),
        "cesaro_tail": float(res.cesaro[-1]),
    }


def _default_oracle_instance():
    transition = np.array([[0.9, 0.1], [0.2, 0.8]])
    initial = np.array([0.5, 0.5])
    return FiniteChain(transition, initial)


def _run_oracle_check(cfg: dict, out_dir: str):
    chain = _default_oracle_instance()
    horizon = cfg.get("horizon", 3)
    levels = cfg.get("levels", 2)
    cost = CostModel.quadratic()
    candidates = enumerate_finite_partitions(chain.n_states, levels)
    initial = chain.initial_belief()
    dp_value = solve_finite_horizon(initial, chain, candidates, cost, horizon).value
    oracle_value = brute_force_finite(chain.initial, chain, levels, horizon, cost)
    gap = abs(dp_value - oracle_value)
    passed = gap <= _ORACLE_GAP_TOL
    print(f"{'PASS' if passed else 'FAIL'}, |dJ| = {gap:.1e}")
    return 0 if passed else 1, {
        "status": "ok" if passed else "failed",
        "dp_value": dp_value,
        "oracle_value": oracle_value,
        "abs_gap": gap,
        "gap_tolerance": _ORACLE_GAP_TOL,
        "horizon": horizon,
        "levels": levels,
    }


def _run_discounted_vi(cfg: dict, out_dir: str):
    model = build_source(cfg)
    if not isinstance(model, FiniteChain):
        raise ConfigError("source.type", "discounted-vi runs on chain sources")
    cost = build_cost(cfg)
    candidates = build_candidates(cfg, model)
    grid = simplex_belief_grid(model, cfg["grid_points"])
    try:
        res = discounted_value_iteration(
            grid,
            model,
            cfg["discount"],
            candidates,
            cost,
            tol=cfg["tol"],
            max_iter=cfg["max_iter"],
        )
    except DiscountedVINotConverged as e:
        return 1, {
            "status": "not_converged",
            "residual": e.residual,
            "max_iter": cfg["max_iter"],
        }
    rows = [
        (float(b.probabilities[0]), float(v), int(p))
        for b, v, p in zip(res.beliefs, res.values, res.policy_ids)
    ]
    _write_csv(
        os.path.join(out_dir, "value_function.csv"),
        ["p0", "value", "policy_id"],
        rows,
    )
    return 0, {
        "status": "ok",
        "residual": res.residual,
        "iterations": res.iterations,
        "discount": cfg["discount"],
        "grid_points": cfg["grid_points"],
        "value_min": float(res.values.min()),
        "value_max": float(res.values.max()),
    }


def _run_schedule(cfg: dict, out_dir: str):
    sched = piecing_schedule(cfg["horizons"], cfg["k_max"])
    rows = []
    for k in range(sched.k_max):
        ratio = "" if k == 0 else f"{sched.ratios[k - 1]:.12g}"
        rows.append(
            (
                k + 1,
                sched.horizons[k],
                sched.n_reps[k],
                sched.block_lengths[k],
                sched.boundaries[k],
                ratio,
            )
        )
    _write_csv(
        os.path.join(out_dir, "schedule.csv"),
        ["k", "horizon", "n_reps", "block_length", "boundary", "prior_time_ratio"],
        rows,
    )
    return 0, {"status": "ok", **sched.to_json()}


def _run_occupancy(cfg: dict, out_dir: str):
    model = build_source(cfg)
    cost = build_cost(cfg)
    candidates = build_candidates(cfg, model)
    initial = build_initial_belief(cfg, model)
    policy = _build_policy(cfg, model, cost, candidates, initial)
    binning = build_binning(cfg["binning"], model, cfg)
    res = rollout(
        policy,
        model,
        cost,
        horizon=cfg["horizon"],
        n_paths=1,
        seed=cfg["seed"],
        initial_belief=initial,
    )
    hist = occupation_measure(res.log, binning)
    residual = invariance_residual(hist, model, policy.quantizers)
    _atomic_write(
        os.path.join(out_dir, "histogram.json"), _canonical_json(hist.to_json())
    )
    return 0, {
        "status": "ok",
        "invariance_residual": residual,
        "mean_stage_cost": hist.mean_stage_cost,
        "steps": hist.steps,
        "occupied_bins": int((hist.counts.sum(axis=1) > 0).sum()),
    }


_RUNNERS = {
    "design": _run_design,
    "rollout": _run_rollout,
    "oracle-check": _run_oracle_check,
    "discounted-vi": _run_discounted_vi,
    "schedule": _run_schedule,
    "occupancy": _run_occupancy,
}


_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


@contextlib.contextmanager
def _stderr_logging(level):
    """Write the zdq loggers' records to stderr while a run lasts, at
    level if one is given. Only the zdq logger is touched, and its
    handlers and level are put back afterwards, so repeated in-process
    runs neither stack handlers nor keep a level."""
    log = logging.getLogger("zdq")
    saved = log.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    if level is not None:
        log.setLevel(level)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(saved)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zdq",
        description="Design and simulate zero-delay quantizers for Markov sources.",
    )
    parser.add_argument("task", choices=TASKS, help="experiment to run")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument(
        "--budget", type=int, default=None, help="node budget override (design)"
    )
    parser.add_argument(
        "--log-level",
        type=str.upper,
        choices=_LOG_LEVELS,
        default=None,
        help="least severity of the diagnostics written to stderr (default WARNING)",
    )
    args = parser.parse_args(argv)
    with _stderr_logging(args.log_level):
        return _run(args)


def _run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["output_dir"] = args.out
        if args.budget is not None:
            if args.task != "design":
                raise ConfigError("node_budget", "--budget applies to the design task")
            cfg["node_budget"] = args.budget
        cfg = validate_config(cfg, task=args.task)
        out_dir = cfg["output_dir"]
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as e:  # a file at the path or above it
            raise ConfigError("output_dir", f"cannot create directory {out_dir}: {e.strerror}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        code, payload = _RUNNERS[args.task](cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    results = {
        "task": args.task,
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "tolerances": {
            "eps_prune": DEFAULT_EPS_PRUNE,
            "eps_mass": EPS_MASS,
        },
        **payload,
        "timing": {"total_seconds": elapsed},
    }
    _atomic_write(os.path.join(out_dir, "results.json"), _canonical_json(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
