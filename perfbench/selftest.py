#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

1. Determinism: two runs with the same seed print the same stream
   fingerprint, and a different seed prints a different one.
2. The oracle catches a wrong answer: with --corrupt-reply (one row dropped
   from one reply) the run reports correct=false, counts the answer as
   failed, and exits non-zero.
3. A clean run of every workload reports correct=true and exits 0.
"""

import json
import pathlib
import re
import subprocess
import sys

RUN = [sys.executable, str(pathlib.Path(__file__).resolve().parent / "run.py")]
WORKLOADS = ["serve-hot", "serve-cold", "local-batch"]


def run(workload, seed, *extra, seconds=2):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=400)
    lines = proc.stdout.strip().splitlines()
    fingerprint = re.search(r"stream_fingerprint=(\w+)", proc.stdout)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, fingerprint and fingerprint.group(1), result


def check(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    return condition


def main():
    good = True
    code_a, fp_a, _ = run("local-batch", 7)
    code_b, fp_b, _ = run("local-batch", 7)
    code_c, fp_c, _ = run("local-batch", 8)
    good &= check(fp_a is not None and fp_a == fp_b,
                  "same seed, same stream fingerprint")
    good &= check(fp_a != fp_c, "other seed, other stream fingerprint")

    for workload in ("local-batch", "serve-cold"):
        code, _, result = run(workload, 3, "--corrupt-reply")
        good &= check(code != 0 and result is not None and
                      result["correct"] is False and result["failed"] >= 1,
                      "%s: a corrupted reply is caught" % workload)

    for workload in WORKLOADS:
        code, _, result = run(workload, 5)
        good &= check(code == 0 and result is not None and
                      result["correct"] is True and result["failed"] == 0,
                      "%s: clean run is correct" % workload)
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
