#!/usr/bin/env python3
"""Check that the traced counters repeat exactly across two traced runs.

    python3 perfbench/check_counters.py --workload octic-cold --seed 1

Runs ``run.py --trace 1`` twice with the same seed and compares every metric
whose unit is ``count``.  Exits 0 when all agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_counts(workload: str, seed: int) -> dict:
    """Counters of one traced pass: run.py takes them from the first."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run was not correct")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    differ = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    for name, value in sorted(first.items()):
        print(f"{name} {value}{'  DIFFERS: ' + str(differ[name]) if name in differ else ''}")
    print(f"{args.workload}: {len(first)} counters, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
