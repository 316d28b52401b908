#!/usr/bin/env python3
"""Build and run the bwfft repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the bwfft libraries from src/ plus bwfft_perfbench) as
a Release build under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later calls only rebuild what changed.
Build output goes to standard error, so the last line of standard output
is the JSON result of bwfft_perfbench. The exit code is that program's,
or the failing build step's.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(build_root), "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))

    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs,
                  "--target", "bwfft_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return done.returncode

    program = os.path.join(build, "bwfft_perfbench")
    return subprocess.run([program] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
