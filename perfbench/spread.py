#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's spread, the way a regression check reads it.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload W]...

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json: a steady benchmark keeps
every spread but setup_s's below that third.  Seeds 1..N are the tuning
seeds; 1009 is the held-out seed for claims.  The raw results are written
to .bench_build/spread.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def spread(values):
    """The distance between the first and third quartile of `values`
    (statistics.quantiles(values, n=4)) as a share of their median."""
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return (q[2] - q[0]) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    raw = {}
    steady = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}")
                steady = False
            runs.append(result)
        raw[workload] = runs
        print(f"== {workload} ({len(runs)} runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            width = spread(values)
            limit = metric["bound"] / 3
            ok = name == "setup_s" or width < limit
            steady = steady and ok
            print(f"  {name:18s} median {med:14.6g}  spread {width:7.4f}  "
                  f"limit {limit:6.4f}  min {min(values):.6g}  "
                  f"max {max(values):.6g}  {'ok' if ok else 'TOO WIDE'}")
    out = ROOT / ".bench_build" / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print("steady" if steady else "NOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
