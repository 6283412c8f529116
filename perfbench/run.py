#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` under the current directory). The trainer's worker count is
pinned to one through KGREC_THREADS: at two, the trainer spawns threads for
every 256-pair chunk and its fit time swings by more than any bound between
runs on the 2-vCPU reference host (see README.md).
Build output goes to standard error; the last line of standard output is
the run's JSON result. Exits non-zero, without a result, if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    env["KGREC_THREADS"] = "1"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with code {build.returncode}", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "kgrec-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
