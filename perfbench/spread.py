#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage, from the root of a vblock checkout:

    python3 perfbench/spread.py --workload warm_replace --seeds 1-10 \
        [--seconds 20] [--trace 0]

Runs perfbench/run.py once per seed and prints, for every metric, the
median, the quartiles (statistics.quantiles(values, n=4)) and the
interquartile distance as a share of the median. With BENCHMARK.json at the
checkout root it also shows each end-to-end metric's bound and whether the
spread is under a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    bounds = {}
    seconds = args.seconds
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        if seconds is None:
            seconds = spec["run_seconds"]
    if seconds is None:
        seconds = 10

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or not result.get("correct"):
            print("seed %d: exit %d, %s" % (seed, out.returncode,
                                             lines[-1] if lines else ""))
            print(out.stderr[-2000:], file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (name, metric["value"])
            for name, metric in result["metrics"].items())), flush=True)

    print("%-34s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "%.3f%s" % (bound, "" if share < bound / 3 else " WIDE")
        print("%-34s %12.6g %12.6g %12.6g %8.4f %s %s" %
              (name, med, q1, q3, share, flag, units[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
