"""Record the values value_drift_max compares against.

Runs every operation any seed can generate (workloads.lattice_ops) once
and writes perfbench/reference.json.  Run from the repository root:

    python3 perfbench/record.py

Re-record only on purpose: a kernel change that moves digits should
show its drift against the recorded values, not erase it.
"""

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import onethread  # noqa: E402,F401  (before numpy)
import workloads  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main() -> int:
    zl = workloads.load_zetalab()
    workdir = os.path.join(os.getcwd(), ".perfbench-out", "record")
    os.makedirs(workdir, exist_ok=True)
    runner = workloads.Runner(zl, workdir)
    values = {}
    try:
        for workload in workloads.WORKLOADS:
            done = {}
            for op in workloads.lattice_ops(workload):
                outcome = runner.run(op, done)
                if outcome.problems:
                    raise SystemExit(f"record: {op.label}: {outcome.problems}")
                done[op.label] = outcome
                values.update(outcome.values)
            print(f"{workload}: {len(values)} values so far", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"values": dict(sorted(values.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
