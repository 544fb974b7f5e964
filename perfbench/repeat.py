#!/usr/bin/env python3
"""Runs each workload repeatedly and prints each end-to-end metric's median,
quartiles and spread against its bound in BENCHMARK.json.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1]

Every run measures BENCHMARK.json's run_seconds. The order of the workloads
rotates from one repetition to the next, so a slow phase of the host does
not land on one workload only; repetition i uses seed first-seed + i. The
spread is (q3 - q1) / median with Python's statistics.quantiles(values,
n=4); the benchmark is steady when every spread is within its metric's
bound (aim for a third of it). Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        sys.exit("run failed (exit %d): %s" % (p.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    a = p.parse_args()

    results = {w: [] for w in workloads}
    for i in range(a.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            r = run_once(w, a.first_seed + i, spec["run_seconds"])
            results[w].append(r)
            print("run %d %s seed %d: correct=%s attempted=%d failed=%d" %
                  (i + 1, w, a.first_seed + i, r["correct"], r["attempted"],
                   r["failed"]), file=sys.stderr)

    for w in workloads:
        rs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print("%s: %d runs, all correct: %s, failed shares: %s" %
              (w, len(rs), all(r["correct"] for r in rs), shares))
        print("  %-28s %12s %12s %12s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("inf")
            print("  %-28s %12.5g %12.5g %12.5g %8.4f %8.3f" %
                  (m["name"], med, q1, q3, spread, m["bound"]))


if __name__ == "__main__":
    main()
