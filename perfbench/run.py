#!/usr/bin/env python3
"""Build and run the vinelet wall-clock benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload l3-open --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --unit-tests

Builds perfbench/ (which compiles the runtime from ../src) into .bench_build/
on first use, runs one workload, passes the human-readable report through,
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics listed in BENCHMARK.json (--trace 0) or the
per-layer ones (--trace 1).  Exits non-zero when the build fails, a metric
is missing, or any result fails verification.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD_DIR, target)


def parse_output(text):
    metrics, result = {}, None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[0] == "METRIC":
            metrics[parts[1]] = (float(parts[2]), parts[3], int(parts[4]))
        elif parts and parts[0] == "RESULT":
            result = dict(p.split("=", 1) for p in parts[1:])
    return metrics, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit-tests", action="store_true",
                        help="build and run the harness unit tests")
    args = parser.parse_args()

    if args.unit_tests:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of {workloads}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build("perfbench")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    for line in proc.stdout.splitlines():
        if not line.startswith(("METRIC ", "RESULT ")):
            print(line)
    metrics, result = parse_output(proc.stdout)
    if result is None:
        fail(f"benchmark exited with status {proc.returncode} and no result")

    out = {}
    for metric in wanted:
        name = metric["name"]
        if name not in metrics:
            fail(f"metric {name} was not reported")
        value, unit, _ = metrics[name]
        if unit != metric["unit"]:
            fail(f"metric {name} reported in {unit}, expected {metric['unit']}")
        out[name] = {"value": value, "unit": unit}
    correct = result.get("correct") == "1" and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": out,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
