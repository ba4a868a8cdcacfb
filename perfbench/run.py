#!/usr/bin/env python3
"""Builds `grm` and the benchmark from source, then runs the benchmark.

    python3 perfbench/run.py --workload cold-mine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload warm-mine --seed 1 --seconds 30 --trace 1

Run from the root of a checkout. Both builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`) and print only to stderr, so the last stdout
line is the benchmark's JSON result. Exits non-zero, without a result,
when either build fails.
"""

import os
import signal
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, env["CARGO_TARGET_DIR"])
    builds = [
        ["--manifest-path", "Cargo.toml", "--bin", "grm"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for build in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + build
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            return done.returncode or 1
    bench = os.path.join(target, "release", "perfbench")
    grm = os.path.join(target, "release", "grm")
    # A child, not an exec: the benchmark's peak-RSS-of-children
    # reading must not see the cargo builds above.
    child = subprocess.Popen([bench, "--grm", grm] + sys.argv[1:], cwd=root)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda s, _frame: child.send_signal(s))
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
