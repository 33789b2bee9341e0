#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe with dune into
.bench_build (release profile, dune's shared cache off, so nothing is
written outside the checkout), then runs it with the same arguments.  The
build log goes to standard error; the benchmark's report, ending in one
JSON line, to standard output.  Traced runs write their Chrome trace under
.bench_out.  Exits non-zero when the build or the benchmark fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, "--build-dir", BUILD,
             "--profile", "release", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
        if build.returncode != 0:
            return build.returncode
        exe = os.path.join(BUILD, "default", "perfbench", "main.exe")
        bench = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=175)
    except subprocess.TimeoutExpired as e:
        print(f"run.py: timed out: {e.cmd[0]}", file=sys.stderr)
        return 1
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
