#!/usr/bin/env python3
"""Builds the cycleqr benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search_head --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the library
from src/ plus the benchmark program) in Release mode under the build
directory ($CARGO_TARGET_DIR, default .bench_build); later calls rebuild
only what changed. Build output goes to standard error, so the last line of
standard output is the program's JSON report. The exit code is the program's:
0 when every correctness check passed, 1 when one failed, 2 on bad
arguments; a failed build exits non-zero without a report.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("search_head", "search_tail", "precompute", "train")


def build(bench_dir, build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "cyqr_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"benchmark build failed: {error}", file=sys.stderr)
        return 3
    sys.stdout.flush()
    result = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", build_dir])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
