#!/usr/bin/env python3
"""Build and run the conversion benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fleet|big|power --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe with dune (progress on stderr), then runs it
with the same arguments; its standard output ends with the JSON result.
Exits non-zero without a result when the checkout is incomplete or the
build fails.
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
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        sys.stderr.write("perfbench: run from the root of a full checkout "
                         "(dune-project, lib/ and perfbench/ are needed)\n")
        return 2
    dune = dune_command()
    if dune is None:
        sys.stderr.write("perfbench: dune not found\n")
        return 2
    build = subprocess.run(dune + ["build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
