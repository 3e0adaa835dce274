#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 20 --trace 0

The last line of standard output is the JSON result printed by
perfbench/bench.exe.  Build output goes to standard error.  Exits
non-zero, printing no result, when the benchmark cannot be built.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    root = os.getcwd()
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("perfbench: no dune-project here; run from the repository root\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "perfbench", "./perfbench/bench.exe"],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 2
    run = subprocess.run([os.path.join(root, EXE)] + sys.argv[1:], cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
