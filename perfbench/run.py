#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark.

    python3 perfbench/run.py --workload esp8-apache --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout. The benchmark (perfbench/, a CMake
package of its own) is compiled in Release from the simulator sources
under src/ into .bench_build/perfbench; the build log goes to stderr, so
the last line of stdout is the benchmark's JSON result. Every argument
is passed to the benchmark binary; see perfbench/README.md.

Exit status: the benchmark's own, or 2 when it cannot be built.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configure once, then bring the binary up to date. True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "system.hpp")):
        print("perfbench: no simulator sources under src/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
