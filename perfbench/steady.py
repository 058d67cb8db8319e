"""Steadiness check: run the benchmark on several seeds per workload and
report, for each end-to-end metric, the median and the distance between
the first and third quartiles as a share of the median.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs one at a time from the repository root, with the length of a run
taken from BENCHMARK.json, and appends every run's result line to
perfbench/work/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / "perfbench" / "work" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                     "status": proc.returncode, **result}) + "\n")
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: status {proc.returncode}, {wall:.1f} s, "
                  f"{result['attempted']} passes", file=sys.stderr)
        print(f"\n{workload}: failed share(s) {sorted(shares)}")
        print(f"{'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:14} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{(q3 - q1) / med:7.3f} {bounds[name]:6.2f}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
