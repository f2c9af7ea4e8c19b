#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py            # every workload in BENCHMARK.json

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). With --workload the benchmark binary replaces this
process and prints the result object as its last line. Without it, each
workload of BENCHMARK.json runs in a fresh process with its default seed
and the run's seconds, and the command exits non-zero if any of them fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(done.returncode)
    return os.path.join(target, "release", "pollux-perfbench")


def main():
    exe = build()
    args = sys.argv[1:]
    if "--workload" in args:
        os.execv(exe, [exe] + args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = []
    for workload in bench["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [exe, "--workload", name, "--seconds", str(bench["run_seconds"])] + args)
        if done.returncode != 0:
            failed.append(name)
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
