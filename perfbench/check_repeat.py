"""Exact-repeat check of the traced run.

    python3 perfbench/check_repeat.py [--seed N] [workload ...]

Runs the traced benchmark twice per workload at one seed and requires
every count it reports (calls per function, DP nodes evaluated and on
the policy, distinct filter outputs per call, artifact bytes, spans) to
be identical. They are counts of deterministic work, so any difference
is a defect of the harness. Exits 1 on any difference.
"""
import argparse
import json
import os
import subprocess
import sys

import run


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name in run.COUNTS or name.endswith(".calls")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = parser.parse_args()
    status = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        if diff or set(first) != set(second):
            status = 1
            print(f"{workload}: FAIL {diff}")
        else:
            print(f"{workload}: PASS, {len(first)} counts identical")
    return status


if __name__ == "__main__":
    sys.exit(main())
