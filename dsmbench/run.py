#!/usr/bin/env python3
"""Build the pagedsm benchmark driver from this checkout and run it.

Run from the root of a pagedsm checkout:

    python3 dsmbench/run.py --workload paper-lrc --seed 1 --seconds 30 --trace 0

The driver and the two pagedsm libraries are built in Release into
.bench_build/dsmbench (configured once, then brought up to date on every
run), so the numbers always come from this checkout's src/.  Build output
goes to standard error; the driver's standard output, whose last line is
the JSON result, passes through unchanged.  A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dsmbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dsmbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD, "dsmbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
