#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from anywhere inside a source checkout:

  python3 repobench/run.py --workload build_resident --seed 1 \
      --seconds 20 --trace 0

The program is configured and built (Release) under .bench_build/repobench
at the checkout root; later runs only rebuild what changed. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's: nonzero when
the build fails, an op fails or any reply differs from its reference.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "repobench")
WORKLOADS = ("build_resident", "build_spilled", "serve_mixed")
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "bench/soak/soak.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("engine sources not found (%s); run inside a full checkout"
                 % needed)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "repobench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "repobench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
