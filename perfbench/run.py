#!/usr/bin/env python3
"""Build the perfbench binary from the checkout's sources, then run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_cnn --seed 1 --seconds 40 --trace 0

The build goes to .bench_build/ at the checkout root; build output is sent to
stderr so the last line of stdout stays the benchmark's JSON result.  Every
argument is passed through to the binary.  Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configure until it succeeds once, then build the perfbench target (a
    no-op when fresh)."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = subprocess.run([BINARY, "--out", out_dir] + sys.argv[1:],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
