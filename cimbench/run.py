#!/usr/bin/env python3
"""Builds the cimbench binary in Release and runs one workload.

    python3 cimbench/run.py --workload search --seed 1 --seconds 20 --trace 0

The first call configures and builds the library and the cimbench binary in
Release under .bench_build/cimbench (a tree of its own, apart from
build/); later calls rebuild only what changed. Build output goes to
stderr, so the last line of stdout is the JSON result. Exits
non-zero without a result when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cimbench")


def build():
    # Configuring every time is cheap and repairs a tree whose first
    # configure failed; the CMake file refuses any type but Release.
    subprocess.run(["cmake", "-S", os.path.join(ROOT, "cimbench"),
                    "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "cimbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("cimbench: build failed: %s" % e)
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "cimbench")]
                          + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
