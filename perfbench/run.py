#!/usr/bin/env python3
"""Build the benchmark driver from source with dune, then run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload stencil|alltoall|campaign \
        --seed N --seconds S --trace 0|1

The arguments pass through to perfbench/main.exe, whose last line of
standard output is the result as one JSON object.  Build output goes to
standard error.  The exit code is the driver's: 0 when every run agreed
with its oracle, nonzero on a failed build, a failed run or bad
arguments.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def main():
    # The shared dune cache lives outside the repository; keep every
    # build artefact under _build instead.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
