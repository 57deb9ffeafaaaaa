#!/usr/bin/env python3
"""Slot-loop benchmark entry point.

Builds slotbench/slot_bench (and the BIRP libraries it links) from the
repository's sources with CMake in Release mode under .bench_build/, then
runs one workload and relays its output. Run from the repository root:

  python3 slotbench/run.py --workload paper-steady --seed 1 --seconds 20 --trace 0
  python3 slotbench/run.py --self-test

The last line of stdout is the benchmark's JSON result. The exit code is
nonzero when the build fails, a correctness check fails, or the run does
not finish in time; no result line is printed when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "slotbench")
BINARY = os.path.join(BUILD_DIR, "slot_bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = any(os.path.exists(os.path.join(BUILD_DIR, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "slot_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        if not build():
            print("slotbench: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("slotbench: build timed out", file=sys.stderr)
        return 1

    if args.self_test:
        command = [BINARY, "--self-test", "--seed", str(args.seed)]
    else:
        command = [BINARY, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("slotbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
