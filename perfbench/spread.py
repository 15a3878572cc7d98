#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread on one workload.

    python3 perfbench/spread.py --workload W [--seeds 1-10] [--seconds T]

Runs perfbench/run.py once per seed (untraced), then prints, per end-to-end
metric, the median of the per-run values and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. Run it from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None,
                        help="defaults to BENCHMARK.json's run_seconds")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stdout}{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}"
                                           for k, v in row.items()),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    print(f"{args.workload}: {len(next(iter(values.values())))} runs")
    for name, series in values.items():
        q1, med, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        print(f"  {name:14s} median {med:12.6g}  spread {spread:7.2%}"
              f"  bound {bound:.0%}  (spread/bound {spread / bound:.2f})"
              if bound else f"  {name:14s} median {med:12.6g}"
              f"  spread {spread:7.2%}")


if __name__ == "__main__":
    main()
