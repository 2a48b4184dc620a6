"""Repeatability check of the traced run's exact counts.

    python3 perfbench/selftest.py --workload combinatorics --seed 3

Runs the traced benchmark twice with the same seed, each time in its own
process, and requires every per-layer metric that is not a time (calls,
matrix rows, columns, nonzeros, ranks, coefficient bit lengths, ratios
of counts) to agree exactly.  Exits 1 and lists the metrics that differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"traced run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    diff = sorted(k for k in first if first[k] != second.get(k))
    for k in diff:
        print(f"DIFFERS {k}: {first[k]} vs {second.get(k)}")
    print(f"{args.workload} seed {args.seed}: {len(first) - len(diff)}/{len(first)} "
          "counts identical across two traced runs")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
