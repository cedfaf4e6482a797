"""zdq benchmark: time CLI tasks end to end, or trace them layer by layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Runs from the root of a checkout. For each workload it starts
perfbench/child.py again and again, one process at a time (a closed
loop with one client), until --seconds have passed, with at least
MIN_INVOCATIONS invocations. Invocation 0 always runs at REF_SEED and
is compared with the outputs pinned in reference.json; the rest run at
--seed and must repeat each other byte for byte outside "timing".

--trace 0 reports the end-to-end metrics (medians over invocations).
--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics: counts from the first traced invocation (at --seed,
so they repeat exactly), times as medians over traced invocations, and
the tracing overhead as traced minus untraced median task time.

Human-readable lines go first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 only when every invocation passed its checks.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.relpath(HERE, ROOT)
WORK = os.path.join(BENCH, "out")

WORKLOADS = ("design-ar1", "rollout-chain", "occupancy-ar1")
REF_SEED = 0
MIN_INVOCATIONS = 3
# a run, the invocation in flight included, ends within this many seconds
RUN_LIMIT_S = 170
TOL = 1e-12

# Figures measured per invocation, printed as median (n) and tail.
# task_rel is task_s over reference_s of the same invocation.
TIMINGS = (("task_s", "s"), ("reference_s", "s"), ("task_rel", "ratio"),
           ("setup_s", "s"), ("peak_rss_mb", "MB"))
# the end-to-end metrics of the JSON line, each a median over invocations
END_TO_END = (("task_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    "costs.stage_cost.calls", "costs.stage_cost.self_s",
    "costs.stage_cost.p50_us", "costs.stage_cost.p99_us",
    "costs.optimal_reconstruction.calls", "costs.optimal_reconstruction.self_s",
    "quantizers.cell_mass.calls", "quantizers.cell_mass.self_s",
    "quantizers.cell_mass.p50_us",
    "beliefs.filter_update.calls", "beliefs.filter_update.self_s",
    "beliefs.filter_update.p50_us", "beliefs.filter_update.p99_us",
    "beliefs.filter_update.distinct_ratio",
    "beliefs.moment.calls", "beliefs.moment.self_s",
    "dp.solve_finite_horizon.self_s", "dp.node_us", "dp.nodes_evaluated",
    "dp.policy_nodes", "dp.useful_node_ratio", "dp.bellman_residuals.s",
    "infinite.rollout.self_s", "infinite.rollout.step_us",
    "infinite.plan.calls", "infinite.plan.self_s", "infinite.plan.p50_us",
    "infinite.occupation_measure.s", "infinite.invariance_residual.s",
    "sources.sample_next.calls", "sources.sample_next.self_s",
    "sources.invariant_distribution.s",
    "config.s",
    "cli.main.self_s", "cli.artifact_bytes",
    "trace.spans", "trace.task_s", "trace.overhead_s",
)
# per-layer metrics that are counts of one invocation, not times
COUNTS = {"dp.nodes_evaluated", "dp.policy_nodes", "dp.useful_node_ratio",
          "beliefs.filter_update.distinct_ratio", "cli.artifact_bytes",
          "trace.spans"}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "nodes_evaluated", "policy_nodes", ".spans")):
        return "count"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("_us"):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    return "s"


# ---------------------------------------------------------------------------
# output checks


def close(got, ref, where="") -> list[str]:
    """Differences between two JSON trees: numbers within TOL, rest exact."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ"]
        return [e for k in ref for e in close(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs"]
        return [e for i, (g, r) in enumerate(zip(got, ref))
                for e in close(g, r, f"{where}[{i}]")]
    numeric = (int, float)
    if (isinstance(ref, numeric) and isinstance(got, numeric)
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        if abs(got - ref) <= TOL * max(1.0, abs(ref)):
            return []
        return [f"{where}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv_floats(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [lines[0]] + [[float(v) for v in line.split(",")] for line in lines[1:]]


def policy_subtree(tree: dict) -> dict:
    """Chosen quantizer per symbol path on the nodes the policy reaches."""
    nodes = {n["id"]: n for n in tree["nodes"]}
    chosen, todo = {}, [("", tree["root"])]
    while todo:
        path, nid = todo.pop()
        node = nodes[nid]
        if node["quantizer"] is not None:
            chosen[path] = node["quantizer"]
        for m, child in node["children"].items():
            todo.append((f"{path}{m}", child["node"]))
    return chosen


def pinned_outputs(task: str, out_dir: str) -> dict:
    """The outputs reference.json pins for a task, read from out_dir."""
    results = read_json(os.path.join(out_dir, "results.json"))
    results.pop("timing", None)
    if task == "design":
        tree = read_json(os.path.join(out_dir, "policy_tree.json"))
        return {"value": results["value"], "policy": policy_subtree(tree)}
    if task == "rollout":
        traj = read_csv_floats(os.path.join(out_dir, "trajectory.csv"))
        return {"results": results, "trajectory": traj}
    return {"results": results,
            "histogram": read_json(os.path.join(out_dir, "histogram.json"))}


def snapshot(out_dir: str) -> dict:
    """Artifact bytes by name, results.json without its timing block."""
    snap = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            snap[name] = fh.read()
    results = json.loads(snap["results.json"])
    results.pop("timing", None)
    snap["results.json"] = json.dumps(results, sort_keys=True).encode()
    return snap


def check_outputs(task, out_dir, cli_seed, reference, first_at_seed):
    """Checks one invocation's outputs; returns (failures, snapshot)."""
    results = read_json(os.path.join(out_dir, "results.json"))
    errors = []
    if results.get("status") != "ok":
        errors.append(f"status {results.get('status')!r}")
    if task == "design":
        residual = results.get("bellman_residual_max", math.inf)
        if not residual <= TOL:
            errors.append(f"bellman_residual_max {residual!r} > {TOL}")
    # a design does not depend on the seed, so it is pinned at every seed
    if task == "design" or cli_seed == REF_SEED:
        errors += close(pinned_outputs(task, out_dir), reference, "pinned")
    snap = snapshot(out_dir)
    if first_at_seed is not None and snap != first_at_seed:
        errors.append(f"outputs differ from the first invocation at seed {cli_seed}")
    return errors, snap


# ---------------------------------------------------------------------------
# invocations


def artifact_bytes(out_dir: str) -> int:
    """Bytes of the task artifacts. results.json is left out: the length
    of its timing block changes from run to run."""
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir) if f != "results.json")


def invoke(workload: str, task: str, cli_seed: int, k: int, traced: bool,
           spans_path: str | None, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one child process to completion and return its report."""
    work = os.path.join(WORK, workload)
    out_dir = os.path.join(work, "task")
    report_path = os.path.join(work, "report.json")
    shutil.rmtree(os.path.join(ROOT, out_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(os.path.join(ROOT, report_path))
    cmd = [sys.executable, os.path.join(BENCH, "child.py"),
           "--report", report_path, "--invocation", str(k)]
    if traced:
        cmd.append("--trace")
    if spans_path:
        cmd += ["--spans", spans_path]
    cmd += ["--", task, "--config", os.path.join(BENCH, "workloads", f"{workload}.json"),
            "--out", out_dir, "--seed", str(cli_seed)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s",
                "wall_s": time.monotonic() - spawned}
    wall = time.monotonic() - spawned
    if proc.returncode != 0 or not os.path.exists(os.path.join(ROOT, report_path)):
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "wall_s": wall}
    report = read_json(os.path.join(ROOT, report_path))
    report["wall_s"] = wall
    report["setup_s"] = report["imported_at"] - spawned
    report["out_dir"] = os.path.join(ROOT, out_dir)
    if report["exit_code"] != 0:
        report["error"] = (f"zdq exited {report['exit_code']}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return report


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    task = read_json(os.path.join(HERE, "workloads", f"{workload}.json"))["task"]
    reference = read_json(os.path.join(HERE, "reference.json"))[workload]
    reports, first_at_seed = [], {}
    minimum = 2 * MIN_INVOCATIONS if trace else MIN_INVOCATIONS
    started = time.monotonic()
    k = 0
    while True:
        cli_seed = REF_SEED if k == 0 else seed
        traced = trace and k % 2 == 1
        spans_path = (os.path.join(WORK, f"{workload}-spans.json")
                      if traced and k == 1 else None)
        timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - started))
        report = invoke(workload, task, cli_seed, k, traced, spans_path, timeout)
        report.update(k=k, cli_seed=cli_seed, traced=traced)
        if "error" not in report:
            try:
                errors, snap = check_outputs(task, report["out_dir"], cli_seed,
                                             reference, first_at_seed.get(cli_seed))
                report["artifact_bytes"] = artifact_bytes(report["out_dir"])
            except (OSError, ValueError, KeyError) as e:
                errors = [f"unreadable outputs: {e!r}"]
            if errors:
                report["error"] = "; ".join(errors[:5])
            else:
                first_at_seed.setdefault(cli_seed, snap)
        if "error" in report:
            print(f"FAILED {workload} invocation {k} seed {cli_seed}: {report['error']}",
                  file=sys.stderr)
        reports.append(report)
        k += 1
        elapsed = time.monotonic() - started
        if (k >= minimum and elapsed + report["wall_s"] > seconds) \
                or elapsed > RUN_LIMIT_S - 10:
            break
    return {"workload": workload, "task": task, "reports": reports}


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(values):
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def timings(run: dict) -> dict:
    ok = [r for r in run["reports"] if "error" not in r]
    return {
        "task_s": [r["task_s"] for r in ok],
        "reference_s": [r["reference_s"] for r in ok],
        "task_rel": [r["task_s"] / r["reference_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok],
        "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in ok],
    }


def per_layer(run: dict) -> dict:
    ok = [r for r in run["reports"] if "error" not in r]
    traced = [r for r in ok if r["traced"]]
    plain = [r["task_s"] for r in ok if not r["traced"]]
    if not traced or not plain:
        return {}
    first = traced[0]
    merged = {}
    for name in PER_LAYER:
        if name == "cli.artifact_bytes":
            merged[name] = first["artifact_bytes"]
        elif name == "trace.task_s":
            merged[name] = statistics.median(r["task_s"] for r in traced)
        elif name == "trace.overhead_s":
            merged[name] = (statistics.median(r["task_s"] for r in traced)
                            - statistics.median(plain))
        elif name in COUNTS or name.endswith(".calls"):
            merged[name] = first["layers"][name]
        else:
            merged[name] = statistics.median(r["layers"][name] for r in traced)
    return merged


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    # the ceiling keeps git from taking a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def machine_context(runs) -> dict:
    child = next((r["context"] for run in runs for r in run["reports"]
                  if "context" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        **child,
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
    }


def summarize(run: dict, trace: bool) -> dict:
    """Print the human-readable lines for one run; return its metrics."""
    name = run["workload"]
    attempted = len(run["reports"])
    failed = sum("error" in r for r in run["reports"])
    record = {}
    print(f"workload {name} ({run['task']}): {attempted} invocations, "
          f"one child process at a time")
    if trace:
        metrics = per_layer(run)
        for key in PER_LAYER:
            if key in metrics:
                print(f"  {key:40s} {metrics[key]:.6g} {layer_unit(key)}")
        units = {key: layer_unit(key) for key in metrics}
    else:
        series = timings(run)
        medians = {}
        for key, unit in TIMINGS:
            values = series[key]
            if not values:
                continue
            medians[key] = statistics.median(values)
            line = f"  {key:12s} median {medians[key]:.4f} {unit} (n={len(values)})"
            tail = tail_percentile(values)
            if tail is not None:
                line += f", p{tail[0]:.0f} {tail[1]:.4f} {unit}"
            print(line)
        units = dict(END_TO_END)
        metrics = {key: medians[key] for key in units if key in medians}
        record["medians"] = medians
    print(f"  {'error_rate':12s} {failed}/{attempted} = {failed / attempted:.4f}")
    record.update(attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "zdq", "cli.py")):
        print(f"no zdq sources under {ROOT}/src: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    context = machine_context(runs)
    print("context: " + json.dumps(context, sort_keys=True))
    summaries = {run["workload"]: summarize(run, bool(args.trace)) for run in runs}
    for run in runs:
        summaries[run["workload"]]["invocations"] = [
            {key: r[key] for key in ("k", "cli_seed", "traced", "task_s", "reference_s",
                                     "setup_s", "maxrss_kb", "error") if key in r}
            for r in run["reports"]
        ]

    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    if len(names) == 1:
        metrics = summaries[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, s in summaries.items()
                   for k, v in s["metrics"].items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context, "summaries": summaries}
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    with open(os.path.join(ROOT, WORK, f"{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
