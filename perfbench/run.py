#!/usr/bin/env python3
"""Builds and runs the pilot benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

The first run configures and builds perfbench/ (which pulls in the
repository's libraries) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only let
CMake confirm the build is current. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Before measuring, the
benchmark's arithmetic self-test runs; a failing self-test, a failing build
or a result that does not list exactly the metrics BENCHMARK.json names
exits non-zero. `--workload all` runs ensemble and stage, each in a fresh
process, and prints their results in turn.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ensemble", "stage")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; kills it on timeout."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
               "perfbench_selftest"], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(out, workload, args):
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", os.path.join(out, "runs")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not lines:
        print("perfbench: %s exited %d" % (workload, done.returncode),
              file=sys.stderr)
        return False
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        print("perfbench: %s reported metrics %s, BENCHMARK.json names %s"
              % (workload, sorted(got.items()), sorted(want.items())),
              file=sys.stderr)
        return False
    return result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pilot-abstraction sources next to perfbench/ in " + ROOT)
    out = build_dir()
    build(out)
    try:
        selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                                  stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=60)
    except subprocess.TimeoutExpired:
        fail("selftest timed out")
    if selftest.returncode != 0:
        fail("arithmetic self-test failed")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        ok = run_one(out, workload, args) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
