"""Self-test: per-layer counts repeat exactly across two traced runs.

    python3 perfbench/check_counts.py

Runs ``run.py --trace 1`` twice per workload, with seed SEED, one process
after the other, and compares every count and every ratio of counts.
Exits 1 on any difference, or when a run is not correct.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads  # sibling module; sys.path[0] is this directory

HERE = Path(__file__).resolve().parent
SEED = 7
RATIOS_OF_COUNTS = ("certify.enumerate_vertices.yield", "simplex.pivots_per_solve")


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run is not correct:\n{proc.stdout}")
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if m["unit"] == "count" or name in RATIOS_OF_COUNTS
    }


def main() -> int:
    bad = 0
    for workload in workloads.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        diffs = {k: (v, second.get(k)) for k, v in first.items() if second.get(k) != v}
        if first.keys() != second.keys() or diffs:
            bad += 1
            print(f"{workload}: counts differ: {diffs}")
        else:
            print(f"{workload}: {len(first)} counts repeat exactly")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
