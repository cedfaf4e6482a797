"""Write reference.json: each workload's outputs at run.REF_SEED.

    python3 perfbench/pin.py

The checked-in reference.json was written from the commit that added
the benchmark, so later commits are checked against those numbers.
Rerun it only to pin a deliberate change of results, and say so.
"""
import json
import os
import sys

import run


def main() -> int:
    reference = {}
    for workload in run.WORKLOADS:
        task = run.read_json(os.path.join(run.HERE, "workloads", f"{workload}.json"))["task"]
        report = run.invoke(workload, task, run.REF_SEED, 0, False, None)
        if "error" in report:
            print(f"{workload}: {report['error']}", file=sys.stderr)
            return 1
        reference[workload] = run.pinned_outputs(task, report["out_dir"])
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
