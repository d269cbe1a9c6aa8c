#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to _build/ there (no
shared dune cache), and its output goes to stderr so the benchmark's
result stays the last line of stdout. Exits non-zero without a result
when the build fails, e.g. in a directory holding only the benchmark.

`--workload all` runs every workload named in BENCHMARK.json in turn and
exits non-zero if any run does.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed (exit %d)\n" % build.returncode)
        sys.exit(2)
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        at = args.index("--workload") + 1
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        codes = [subprocess.run([EXE] + args[:at] + [name] + args[at + 1 :]).returncode for name in names]
        sys.exit(max(codes))
    sys.stdout.flush()
    os.execv(EXE, [EXE] + args)


if __name__ == "__main__":
    main()
