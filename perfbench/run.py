#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `mango_perfbench` package (release profile, offline) and runs
it with the same arguments. The benchmark prints one row per metric and
ends its standard output with one JSON object. The build goes to
`$CARGO_TARGET_DIR` when set, else to `perfbench/target`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "mango_perfbench")
    run = subprocess.run([binary, *sys.argv[1:]], timeout=RUN_TIMEOUT_S, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
