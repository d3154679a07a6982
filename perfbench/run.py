#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload update-vld --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench.exe with dune (into $CARGO_TARGET_DIR when set,
else _build), then runs it with the same arguments.  The benchmark's own
output passes through; its last line is the JSON result.  The exit code is
the benchmark's: non-zero when the build fails, an output is wrong, or an
invariant does not hold.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    if not (
        os.path.isfile("dune-project")
        and os.path.isdir("lib")
        and os.path.isfile(os.path.join("perfbench", "dune"))
    ):
        print(
            "perfbench: run from the root of a full source checkout "
            "(dune-project, lib/ and perfbench/dune are needed)",
            file=sys.stderr,
        )
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
