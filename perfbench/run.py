#!/usr/bin/env python3
"""Builds amf-qos and the benchmark from source, then runs the benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload adapt-query --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --write-manifest BENCHMARK.json

Build output goes to stderr; the benchmark's own output (its last line is
the JSON result) goes to stdout. CARGO_TARGET_DIR is honoured for both
builds; without it they share the repository's target/ directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or "target"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "amf-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"),
             "--amf-qos", os.path.join(release, "amf-qos")] + sys.argv[1:]
    return subprocess.run(bench, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
