#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

Run from the repository root:

    python3 bench/e2e/run.py --workload synth-deep --seed 3 --seconds 15 --trace 0

Every argument goes to bench/e2e/main.exe (see README.md beside this
file). Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The dune cache is disabled so that the build
reads and writes nothing outside the checkout's _build directory. When
the build fails the script exits with dune's status and prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TARGET = os.path.join("bench", "e2e", "main.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet",
         "./" + TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
