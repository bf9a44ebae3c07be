#!/usr/bin/env python3
"""Build and run the repository's benchmark for one workload.

    python3 perfbench/run.py --workload index-a --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds perfbench/bench.exe with
dune, then runs it with the same arguments. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is non-zero when the build fails or a correctness check fails.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# A cold build takes seconds; the limit only stops a build that hangs.
BUILD_TIMEOUT_S = 600


def main():
    if shutil.which("dune") is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    # --root . keeps dune from adopting a dune-project above the checkout;
    # build output goes to stderr so standard output ends with the result.
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([EXE] + sys.argv[1:])
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
