#!/usr/bin/env python3
"""Run the benchmark once per seed and report how much each metric spreads.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Runs are made one after the other, untraced, each as long as BENCHMARK.json's
``run_seconds``.  For each run it prints the raw busy seconds, the
reference-pass seconds, the raw set-up seconds and every metric; then, per
metric, the median and the distance between the first and third quartiles as
a share of the median, which is what a metric's bound in BENCHMARK.json is
held against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    values = {}
    failed_shares = set()
    print("| seed | rounds | busy_s | ref_pass_s | setup_raw_s | metrics |")
    print("|---|---|---|---|---|---|")
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = dict(field.split("=", 1) for field in lines[-2].split()[2:])
        metrics = result["metrics"]
        shown = ", ".join(f"{k} {v['value']:.5g}" for k, v in metrics.items())
        print(f"| {seed} | {detail['rounds']} | {float(detail['busy_s']):.4f} "
              f"| {float(detail['ref_pass_s']):.4g} | {float(detail['setup_raw_s']):.4f} "
              f"| {shown} |", flush=True)
        failed_shares.add(result["failed"] / result["attempted"])
        if not result["correct"]:
            print(f"seed {seed}: wrong outputs", file=sys.stderr)
        for name, entry in metrics.items():
            values.setdefault(name, []).append(entry["value"])

    print()
    print("| metric | median | IQR / median |")
    print("|---|---|---|")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) > 1 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"| {name} | {med:.5g} | {(q3 - q1) / med:.3f} |")
        else:
            print(f"| {name} | {med:.5g} | - |")
    print(f"\nfailed share of attempted ops: {sorted(failed_shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
