#!/usr/bin/env python3
"""Builds and runs the nomsky end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Workloads: serve-hot, serve-cold, local-batch, or all of them in turn with
--workload all (see perfbench/README.md). The benchmark is built from the
repository sources into the directory named by $CARGO_TARGET_DIR (default
.bench_build) on first use.
Build output goes to stderr; the benchmark's report goes to stdout, and its
last line is one JSON object with the keys correct, attempted, failed and
metrics. --trace 1 reports the per-layer metrics and writes the run's spans
to <build dir>/traces/<workload>-<seed>.csv. The exit code is the
benchmark's: 0 when every answer was correct.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
WORKLOADS = ["serve-hot", "serve-cold", "local-batch"]


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 1


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: the program sources (CMakeLists.txt, src/) are "
              "missing from %s" % ROOT, file=sys.stderr)
        return None
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        if run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            return None
    if run_quiet(["cmake", "--build", str(out), "--target", "nomsky_perfbench",
                  "-j", "4"], BUILD_TIMEOUT_S) != 0:
        return None
    return out / "nomsky_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reply", action="store_true",
                        help="drop a row from one reply (oracle self-test)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for workload in workloads:
        worst = max(worst, run_one(binary, workload, args))
    return worst


def run_one(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-%d.csv" % (workload, args.seed)))]
    if args.corrupt_reply:
        cmd.append("--corrupt-reply")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
