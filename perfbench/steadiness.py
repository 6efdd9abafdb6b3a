#!/usr/bin/env python3
"""Measures run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --workloads ensemble stage \
        --runs 10 --first-seed 1 --seconds 25 [--json out.json]

Runs `perfbench/run.py ... --trace 0` once per seed (each run a fresh
process), then prints, per workload and metric, the median, the first and
third quartile as statistics.quantiles(values, n=4) gives them, and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
A spread of at most a third of the bound is marked "ok". setup_s is listed
but not held to its bound: for it only the median is compared between sets
of runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - start
    if done.returncode != 0:
        raise SystemExit("%s seed %d failed (%d):\n%s\n%s"
                         % (workload, seed, done.returncode, done.stdout,
                            done.stderr[-2000:]))
    result = json.loads(done.stdout.splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["ensemble", "stage"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--json", help="also write the raw values here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads:
        runs = []
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            values, wall = one_run(workload, seed, args.seconds)
            runs.append(values)
            walls.append(wall)
            print("  %s seed %d done in %.1f s" % (workload, seed, wall),
                  file=sys.stderr)
        raw[workload] = runs
        print("\n%s (%d runs, seeds %d..%d, wall per run %.1f..%.1f s)"
              % (workload, args.runs, args.first_seed,
                 args.first_seed + args.runs - 1, min(walls), max(walls)))
        print("| metric | median | q1 | q3 | spread | bound | |")
        print("|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else "WIDE"
            if name == "setup_s":
                verdict = "median only"
            print("| %s | %.6g | %.6g | %.6g | %.4f | %.2f | %s |"
                  % (name, med, q1, q3, spread, bound, verdict))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
