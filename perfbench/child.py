"""One benchmark invocation: import zdq, run one CLI task, report.

Started by run.py as a fresh process, one at a time. It times the
import of numpy and scipy.optimize (reference_s), records the
monotonic clock once zdq.cli is imported (run.py subtracts its own
spawn time to get setup_s), times zdq.cli.main, and writes a JSON
report. With --trace it first wraps the public functions of every
layer at each module binding the program calls through, so each call
becomes a span (name, start, end, parent, invocation id) kept in
memory and summarized, and optionally dumped, when the task returns.

    python3 perfbench/child.py --report R.json [--trace] [--spans S.json] \
        -- <zdq cli arguments>
"""
from __future__ import annotations

import time

STARTED_AT = time.monotonic()

import argparse  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# The reference computation: importing the libraries zdq builds on, a
# fixed amount of work that no change to zdq alters. run.py divides
# task time by it to cancel drift in the host's speed.
import numpy as np  # noqa: E402
import scipy.optimize  # noqa: E402, F401

LIBS_AT = time.monotonic()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import zdq.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

# Public functions wrapped per layer. The window quadrature kernels
# (window_weights, window_moments) are left unwrapped on purpose: the
# prefix-sum kernel planned in the roadmap replaces them, so their time
# stays in the self time of the callers (stage_cost, cell_mass, moment,
# filter_update) where that gain has to show.
WRAPPED = {
    "sources": ["transition_density", "sample_next", "invariant_distribution",
                "density_bounds"],
    "beliefs": ["default_grid", "filter_update", "predict", "tv_distance",
                "moment", "check_S_membership"],
    "quantizers": ["cell_mass", "enumerate_interval_candidates",
                   "enumerate_finite_partitions", "quantizer_from_json"],
    "costs": ["optimal_reconstruction", "stage_cost"],
    "dp": ["solve_finite_horizon", "expected_continuation", "greedy_policy_step",
           "exact_policy_value", "bellman_residuals"],
    "infinite": ["piecing_schedule", "build_pieced_policy", "rollout",
                 "simplex_belief_grid", "discounted_value_iteration",
                 "occupation_measure", "invariance_residual"],
    "config": ["load_config", "validate_config", "build_source", "build_cost",
               "build_grid", "build_candidates", "build_initial_belief",
               "build_binning"],
}


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent span)
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.distinct_beliefs: set = set()
        self.nodes_evaluated = 0
        self.policy_nodes = 0
        self.rollout_steps = 0

    def wrap(self, name: str, fn, observe=None):
        idx = len(self.names)
        self.names.append(name)
        spans, child_time, stack = self.spans, self.child_time, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            child_time.append(0.0)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent)
                if parent >= 0:
                    child_time[parent] += end - start
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, p50/p99 in us."""
        per: dict[str, dict] = {}
        durations: dict[str, list] = {}
        for sid, (idx, start, end, _) in enumerate(self.spans):
            name = self.names[idx]
            d = end - start
            agg = per.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += d
            agg["self_s"] += d - self.child_time[sid]
            durations.setdefault(name, []).append(d)
        for name, agg in per.items():
            ds = np.asarray(durations[name]) * 1e6
            agg["p50_us"] = float(np.percentile(ds, 50))
            agg["p99_us"] = float(np.percentile(ds, 99))
        return per

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "invocation": self.invocation,
                    "fields": ["name", "start", "end", "parent"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
            )


def _reachable(tree) -> int:
    seen, todo = set(), [tree.root]
    while todo:
        nid = todo.pop()
        if nid not in seen:
            seen.add(nid)
            todo.extend(cid for _, cid in tree.nodes[nid].children.values())
    return len(seen)


def install(tracer: Tracer):
    """Wrap every listed function at every zdq module binding of it.

    Returns the traced zdq.cli.main. Names missing from a module are
    skipped, so the list survives functions being removed.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "zdq" or n.startswith("zdq."))]

    def on_filter(args, kwargs, out):
        tracer.distinct_beliefs.add(out.key())

    def on_solve(args, kwargs, out):
        tracer.nodes_evaluated += out.tree.nodes_evaluated
        tracer.policy_nodes += _reachable(out.tree)

    rollout_sig = inspect.signature(sys.modules["zdq.infinite"].rollout)

    def on_rollout(args, kwargs, out):
        bound = rollout_sig.bind(*args, **kwargs)
        tracer.rollout_steps += bound.arguments["horizon"] * bound.arguments["n_paths"]

    observers = {
        "beliefs.filter_update": on_filter,
        "dp.solve_finite_horizon": on_solve,
        "infinite.rollout": on_rollout,
    }
    for layer, names in WRAPPED.items():
        home = sys.modules[f"zdq.{layer}"]
        for fname in names:
            original = getattr(home, fname, None)
            if original is None:
                continue
            name = f"{layer}.{fname}"
            traced = tracer.wrap(name, original, observers.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
    # policy objects are reached through their plan methods
    infinite = sys.modules["zdq.infinite"]
    for cls in vars(infinite).values():
        if inspect.isclass(cls) and "plan" in vars(cls):
            cls.plan = tracer.wrap("infinite.plan", cls.plan)
    return tracer.wrap("cli.main", zdq.cli.main)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures of one traced invocation."""
    per = tracer.summary()

    def get(name, key):
        return per.get(name, {}).get(key, 0.0)

    def calls(name):
        return per.get(name, {}).get("calls", 0)

    out = {}
    for name, keys in (
        ("costs.stage_cost", ("calls", "self_s", "p50_us", "p99_us")),
        ("costs.optimal_reconstruction", ("calls", "self_s")),
        ("quantizers.cell_mass", ("calls", "self_s", "p50_us")),
        ("beliefs.filter_update", ("calls", "self_s", "p50_us", "p99_us")),
        ("beliefs.moment", ("calls", "self_s")),
        ("infinite.plan", ("calls", "self_s", "p50_us")),
        ("sources.sample_next", ("calls", "self_s")),
        ("dp.solve_finite_horizon", ("self_s",)),
        ("infinite.rollout", ("self_s",)),
        ("cli.main", ("self_s",)),
    ):
        for key in keys:
            out[f"{name}.{key}"] = calls(name) if key == "calls" else get(name, key)
    n_filter = calls("beliefs.filter_update")
    out["beliefs.filter_update.distinct_ratio"] = (
        len(tracer.distinct_beliefs) / n_filter if n_filter else 0.0
    )
    solve_s = get("dp.solve_finite_horizon", "incl_s")
    out["dp.nodes_evaluated"] = tracer.nodes_evaluated
    out["dp.policy_nodes"] = tracer.policy_nodes
    out["dp.node_us"] = (
        solve_s / tracer.nodes_evaluated * 1e6 if tracer.nodes_evaluated else 0.0
    )
    out["dp.useful_node_ratio"] = (
        tracer.policy_nodes / tracer.nodes_evaluated if tracer.nodes_evaluated else 0.0
    )
    out["dp.bellman_residuals.s"] = get("dp.bellman_residuals", "incl_s")
    out["infinite.rollout.step_us"] = (
        get("infinite.rollout", "incl_s") / tracer.rollout_steps * 1e6
        if tracer.rollout_steps else 0.0
    )
    out["infinite.occupation_measure.s"] = get("infinite.occupation_measure", "incl_s")
    out["infinite.invariance_residual.s"] = get("infinite.invariance_residual", "incl_s")
    out["sources.invariant_distribution.s"] = get(
        "sources.invariant_distribution", "incl_s"
    )
    # outermost config spans only: build_binning calls build_grid itself
    config_idx = {i for i, n in enumerate(tracer.names) if n.startswith("config.")}
    out["config.s"] = sum(
        end - start
        for idx, start, end, parent in tracer.spans
        if idx in config_idx and (parent < 0 or tracer.spans[parent][0] not in config_idx)
    )
    out["trace.spans"] = len(tracer.spans)
    return out


def context() -> dict:
    """Library versions and BLAS build of this process."""
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--invocation", type=int, default=0)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = None
    entry = zdq.cli.main
    if args.trace:
        tracer = Tracer(args.invocation)
        entry = install(tracer)
    started = time.perf_counter()
    try:
        code = entry(cli_args)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    task_s = time.perf_counter() - started

    report = {
        "exit_code": code,
        "imported_at": IMPORTED_AT,
        "reference_s": LIBS_AT - STARTED_AT,
        "task_s": task_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "context": context(),
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer)
        if args.spans:
            tracer.dump(args.spans)
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
