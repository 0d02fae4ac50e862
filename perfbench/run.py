#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/main.exe and the
libraries it links from source with dune, then runs it with the same
arguments. Build messages go to standard error, so the last line of
standard output is the benchmark's JSON result. Exit codes: 0 all outputs
correct, 1 some output wrong, 2 usage or configuration error, 3 build
failure.
"""

import os
import shutil
import subprocess
import sys


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the repository root (missing: %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet",
                "perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    build_dir = os.environ.get("DUNE_BUILD_DIR", "_build")
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
