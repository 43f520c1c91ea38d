#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median and
spread (interquartile range / median, as statistics.quantiles(n=4) gives
the quartiles), the figure the end-to-end bounds in BENCHMARK.json are
judged against.

    python3 perfbench/spread.py --workload exchange --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload sealed --seeds 1-10 --trace 1

Run it from the repository root. It runs the benchmark command from
BENCHMARK.json with that file's run_seconds, one run at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(items):
    seeds = []
    for item in items:
        if "-" in item:
            lo, hi = item.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(item))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", default=["1-5"])
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print("\n".join(l for l in lines if l.startswith("problem:")))
            sys.exit(f"seed {seed}: incorrect result {lines[-1][:200]}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: ok", file=sys.stderr)

    print(f"{'metric':<46} {'median':>14} {'spread':>8} {'bound':>6}  values")
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = f"{(q3 - q1) / abs(med):8.4f}"
        else:
            spread = f"{'-':>8}"
        bound = bounds.get(name, "")
        shown = " ".join(f"{x:.4g}" for x in xs)
        print(f"{name:<46} {med:14.6g} {spread} {bound!s:>6}  {shown}")


if __name__ == "__main__":
    main()
