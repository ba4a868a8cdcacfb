#!/usr/bin/env python3
"""Steadiness check for the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --repeats 5 --seed 1 --seconds 30

Runs every workload in BENCHMARK.json `--repeats` times through
run.py, each run in a fresh process with its own seed (seed, seed + 1,
...), alternating the workload order between repeats. For each
end-to-end metric it prints the median, quartiles
(statistics.quantiles, n=4), min and max of the run values, the spread
(quartile distance / median), and the metric's bound; raw timings sit
beside their host-normalized ones. A spread at or above a third of the
bound is marked `WIDE`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--all", "1"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} exited with {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady.py: {workload} seed {seed}: {result['failed']} op(s) failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    values = {}
    for r in range(args.repeats):
        for workload in workloads if r % 2 == 0 else workloads[::-1]:
            metrics = run_once(workload, args.seed + r, args.seconds)
            shown = " ".join(f"{name} {metrics[name]:.4f}" for name in (
                "host.ref_ms.p50", "raw.latency_p50_ms", "latency_p50_ms") if name in metrics)
            print(f"run {r} {workload} seed {args.seed + r}: {shown}", file=sys.stderr)
            for name, value in metrics.items():
                values.setdefault((workload, name), []).append(value)
    header = ("workload", "metric", "median", "q1", "q3", "min", "max", "spread", "bound")
    print("%-10s %-22s %10s %10s %10s %10s %10s %8s %6s" % header)
    for workload in workloads:
        for metric in bench["end_to_end"]:
            bound = metric["bound"]
            for name in (metric["name"], "raw." + metric["name"]):
                v = values.get((workload, name))
                if v is None:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else 0.0
                flag = "WIDE" if spread >= bound / 3 and not name.startswith("raw.") else ""
                print("%-10s %-22s %10.4f %10.4f %10.4f %10.4f %10.4f %7.2f%% %6.2f %s" % (
                    workload, name, med, q1, q3, min(v), max(v), 100 * spread, bound, flag))


if __name__ == "__main__":
    main()
