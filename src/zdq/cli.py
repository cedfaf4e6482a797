"""Command line harness: batch experiment running and result emission.

One invocation runs one task from a JSON config and writes its
artifacts into the output directory: always a results.json carrying the
config echo, the tolerances in force, a content hash of the inputs, and
the task summary; plus per-task files (policy tree, trajectory CSV,
value function table, schedule table, occupation histogram). Wall-clock
times live under the separate "timing" key so that stripping it leaves
a byte-reproducible document for a fixed config and seed: the seconds
of the whole run (total_seconds) and of its three phases, building
(build_seconds: reading and validating the config, which builds every
object the task runs), running the task (run_seconds: the solve or the
simulation) and writing its files other than results.json
(write_seconds).

Diagnostics go to stderr through the zdq loggers at --log-level, a
standard level name; without it the zdq logger keeps its level, WARNING
unless an in-process caller set another. At INFO a rollout reports its
deterministic counters, and every run one line per phase with its
seconds. The level changes no artifact.

The config is parsed in full, every object the task runs built, before
the output directory is made. So every config mistake, a source that
does not fit its task included, exits 2 with its field path and leaves
no output behind.

Exit codes: 0 success, 1 numerical, budget or zero-mass failure
(results.json is still written, flagged by its status field), 2
configuration error or a bad command line.
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

from .beliefs import EPS_MASS, ZeroMassSymbolError
from .costs import CostModel
from .config import ConfigError, TASKS, load_config, validate_config
from .dp import (
    DEFAULT_NODE_BUDGET,
    EPS_PRUNE,
    NodeBudgetExceeded,
    bellman_residuals,
    solve_finite_horizon,
)
from .infinite import (
    DiscountedVINotConverged,
    discounted_value_iteration,
    invariance_residual,
    occupation_measure,
    rollout,
)
from .oracles import brute_force_finite
from .quantizers import enumerate_finite_partitions
from .sources import FiniteChain

_ORACLE_GAP_TOL = 1e-12

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# serialization helpers


def _plain(obj):
    """A numpy scalar or array as the Python value json writes for it."""
    return obj.tolist()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_plain) + "\n"


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
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# task runners: each takes the parsed config and returns (exit_code,
# payload, files), files mapping each file name the task writes besides
# results.json to a function that renders its text


def _run_design(setup):
    cfg = setup.config
    try:
        res = solve_finite_horizon(
            setup.initial_belief,
            setup.source,
            setup.candidates,
            setup.cost,
            cfg["horizon"],
            node_budget=cfg.get("node_budget", DEFAULT_NODE_BUDGET),
        )
    except NodeBudgetExceeded as e:
        return 1, {
            "status": "budget_exceeded",
            "nodes_evaluated": e.nodes_evaluated,
            "node_budget": e.budget,
            "greedy_upper_bound": e.greedy_bound,
            "lower_bound": e.lower_bound,
        }, {}
    tree = res.tree
    files = {
        "policy_tree.json": lambda: _canonical_json(tree.to_json()),
        "policy_tree.csv": lambda: _csv(
            ["t", "node", "quantizer", "value"],
            [
                [n.t, n.node_id, "" if n.quantizer is None else n.quantizer.describe(), n.value]
                for n in tree.nodes
            ],
        ),
    }
    residuals = np.asarray(bellman_residuals(tree))
    return 0, {
        "status": "ok",
        "value": res.value,
        "horizon": cfg["horizon"],
        "n_candidates": len(setup.candidates),
        "nodes_evaluated": tree.nodes_evaluated,
        "expansions_by_stage": tree.expansions_by_stage,
        "candidates_pruned": tree.candidates_pruned,
        "counters": tree.counters,
        "max_discarded_mass": tree.max_discarded_mass,
        "bellman_residual_max": float(residuals.max()) if residuals.size else 0.0,
    }, files


def _trajectory_csv(log) -> str:
    buf = io.StringIO()
    log.to_csv(buf)
    return buf.getvalue()


def _run_rollout(setup):
    cfg = setup.config
    res = rollout(
        setup.policy(),
        setup.source,
        setup.cost,
        horizon=cfg["horizon"],
        n_paths=cfg["n_paths"],
        seed=cfg["seed"],
        initial_belief=setup.initial_belief,
    )
    return 0, {
        "status": "ok",
        "mean_cost": res.mean_cost,
        "stderr": res.stderr,
        "n_paths": cfg["n_paths"],
        "horizon": cfg["horizon"],
        "path_cost_min": float(res.path_costs.min()),
        "path_cost_max": float(res.path_costs.max()),
        "cesaro_tail": float(res.cesaro[-1]),
    }, {"trajectory.csv": lambda: _trajectory_csv(res.log)}


def _default_oracle_instance():
    transition = np.array([[0.9, 0.1], [0.2, 0.8]])
    initial = np.array([0.5, 0.5])
    return FiniteChain(transition, initial)


def _run_oracle_check(setup):
    cfg = setup.config
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
    }, {}


def _run_discounted_vi(setup):
    cfg = setup.config
    try:
        res = discounted_value_iteration(
            setup.belief_grid,
            setup.source,
            cfg["discount"],
            setup.candidates,
            setup.cost,
            tol=cfg["tol"],
            max_iter=cfg["max_iter"],
        )
    except DiscountedVINotConverged as e:
        return 1, {
            "status": "not_converged",
            "residual": e.residual,
            "max_iter": cfg["max_iter"],
        }, {}
    rows = [
        (float(b.probabilities[0]), float(v), int(p))
        for b, v, p in zip(res.beliefs, res.values, res.policy_ids)
    ]
    return 0, {
        "status": "ok",
        "residual": res.residual,
        "iterations": res.iterations,
        "discount": cfg["discount"],
        "grid_points": cfg["grid_points"],
        "value_min": float(res.values.min()),
        "value_max": float(res.values.max()),
    }, {"value_function.csv": lambda: _csv(["p0", "value", "policy_id"], rows)}


def _run_schedule(setup):
    sched = setup.schedule
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
    header = ["k", "horizon", "n_reps", "block_length", "boundary", "prior_time_ratio"]
    return 0, {"status": "ok", **sched.to_json()}, {"schedule.csv": lambda: _csv(header, rows)}


def _run_occupancy(setup):
    policy = setup.policy()
    res = rollout(
        policy,
        setup.source,
        setup.cost,
        horizon=setup.config["horizon"],
        n_paths=1,
        seed=setup.config["seed"],
        initial_belief=setup.initial_belief,
    )
    hist = occupation_measure(res.log, setup.binning)
    residual = invariance_residual(hist, setup.source, policy.quantizers)
    return 0, {
        "status": "ok",
        "invariance_residual": residual,
        "mean_stage_cost": hist.mean_stage_cost,
        "steps": hist.steps,
        "occupied_bins": int((hist.counts.sum(axis=1) > 0).sum()),
    }, {"histogram.json": lambda: _canonical_json(hist.to_json())}


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
    started = time.perf_counter()
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
        setup = validate_config(cfg, task=args.task)
        cfg, out_dir = setup.config, setup.config["output_dir"]
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as e:  # a file at the path or above it
            raise ConfigError("output_dir", f"cannot create directory {out_dir}: {e.strerror}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    built = time.perf_counter()
    logger.info("build: %.6f s", built - started)
    try:
        code, payload, files = _RUNNERS[args.task](setup)
    except ZeroMassSymbolError as e:  # a rollout's path left its belief's support
        code, payload, files = 1, {"status": "zero_mass_symbol", "error": str(e)}, {}
    ran = time.perf_counter()
    logger.info("run: %.6f s", ran - built)
    for name, render in files.items():
        _atomic_write(os.path.join(out_dir, name), render())
    written = time.perf_counter()
    logger.info("write: %.6f s", written - ran)

    results = {
        "task": args.task,
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "tolerances": {
            "eps_prune": EPS_PRUNE,
            "eps_mass": EPS_MASS,
        },
        **payload,
        "timing": {
            "total_seconds": written - started,
            "build_seconds": built - started,
            "run_seconds": ran - built,
            "write_seconds": written - ran,
        },
    }
    _atomic_write(os.path.join(out_dir, "results.json"), _canonical_json(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
