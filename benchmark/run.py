#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

    python3 benchmark/run.py --workload acm_fit_release --seed 7 \
        --seconds 15 --trace 0

The first call configures and builds ``benchmark/`` (which compiles the
library from ``src/``) into ``.bench_build/cmake``; later calls rebuild
only what changed. Build output goes to stderr, so the last line of stdout
is the driver's JSON result. All arguments are passed to the driver, and
its exit code is returned.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD_DIR],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "fairgen_benchmark",
         "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("benchmark build failed: %s" % err, file=sys.stderr)
        return 2
    driver = os.path.join(BUILD_DIR, "fairgen_benchmark")
    return subprocess.run([driver] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
