#!/usr/bin/env python3
"""Builds FreeTensor and the perfbench driver from source, then runs one
workload and prints its JSON result line last.

    python3 perfbench/run.py --workload kernels|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. Build trees, per-run scratch directories
(private kernel caches) and trace files go under $CARGO_TARGET_DIR, else
`.bench_build/`. Build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("kernels", "serve")
RUN_TIMEOUT_S = 170


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    lib_dir = os.path.join(out, "freetensor")
    bench_dir = os.path.join(out, "perfbench")
    steps = [
        ["cmake", "-S", REPO, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", lib_dir, "--target", "freetensor", "-j", jobs],
        ["cmake", "-S", HERE, "-B", bench_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DFT_REPO_DIR=" + REPO,
         "-DFT_LIB=" + os.path.join(lib_dir, "src", "libfreetensor.a")],
        ["cmake", "--build", bench_dir, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(bench_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")

    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                          os.path.join(REPO, ".bench_build"))
    exe = build(out)
    name = "selftest" if a.selftest else a.workload
    run_dir = os.path.join(out, "runs", "%s-%d" % (name, os.getpid()))
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [exe, "--run-dir", run_dir]
    if a.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)]
        if a.trace:
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (a.workload, a.seed))]
    try:
        rc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        rc = 124
    shutil.rmtree(run_dir, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
