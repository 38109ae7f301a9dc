#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
sources under src/) into .bench_build/; later runs only rebuild what
changed.  Build output goes to stderr, so the last line of stdout is always
the result line of the workload:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The result is checked against BENCHMARK.json (workload names, metric names
and units); a mismatch, a build failure or a crashed workload exits non-zero
without printing a result.  A traced run (--trace 1) also writes its spans
as Chrome trace-event JSON to .bench_build/traces/<workload>-<seed>.json.

--self-test builds and runs the benchmark's own tests (order statistics,
the span recorder and spread.py's quartile spread).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    configured = (BUILD / "build.ninja").exists() or (BUILD / "Makefile").exists()
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("configuring the benchmark failed")
    step = ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        die(f"building {target} failed")
    return BUILD / target


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def check_result(line, spec, traced):
    """Returns the parsed result line, or exits when it breaks the spec."""
    try:
        result = json.loads(line)
    except ValueError:
        die("the workload printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die(f"result keys are {sorted(result)}")
    if not isinstance(result["correct"], bool):
        die("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            die(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        die("no operation was attempted")
    wanted = spec["per_layer" if traced else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in wanted] != list(got):
        die("metric names differ from BENCHMARK.json: "
            f"{sorted(set(m['name'] for m in wanted) ^ set(got))}")
    for m in wanted:
        if got[m["name"]].get("unit") != m["unit"]:
            die(f"unit of {m['name']} differs from BENCHMARK.json")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        tests = build("aebench_tests")
        native = subprocess.run([str(tests)], cwd=BUILD).returncode
        spread = subprocess.run(
            [sys.executable, str(PACKAGE / "tests" / "spread_test.py")]).returncode
        sys.exit(native or spread)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    binary = build("aebench")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{args.workload}-{args.seed}.json"
        command += ["--trace-out", str(trace_file.relative_to(ROOT))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        die(f"{args.workload} exited with code {run.returncode}")
    check_result(lines[-1], spec, args.trace == 1)
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
