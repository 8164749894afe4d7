#!/usr/bin/env python3
"""Builds the task service and its benchmark from source, then runs one
benchmark pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `mbts` (the shipped daemon the serve workloads drive) and the
`perfbench` package into $CARGO_TARGET_DIR (default `.bench_build`), then
runs `perfbench` with the same arguments. Build output goes to standard
error; the last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(
        ["cargo", "build", "--offline", "--release", *args],
        stdout=sys.stderr,
        env=env,
    )
    if done.returncode != 0:
        sys.exit(f"run.py: cargo build {' '.join(args)} failed")


def main():
    for manifest in ("Cargo.toml", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(manifest):
            sys.exit(f"run.py: {manifest} not found; run from the root of a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(["--bin", "mbts"], target_dir)
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target_dir)
    release = os.path.join(target_dir, "release")
    done = subprocess.run(
        [os.path.join(release, "perfbench"), *sys.argv[1:], "--mbts", os.path.join(release, "mbts")]
    )
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
