#!/usr/bin/env python3
"""Committed perf-trajectory files: append bench runs, diff against history.

The repo keeps one BENCH_<area>.json per bench area at the repo root
(sampling / solver / service). Schema — per-metric history lists:

    {
      "<metric>": [ {"pr": 7, "value": 3.42, "unit": "x"}, ... ],
      ...
    }

Every tracked metric is a dimensionless ratio (speedup vs an in-run
baseline), so trajectories survive machine changes: a shared CI runner and
a laptop agree on ratios far better than on nanoseconds.

Usage:
    bench_trajectory.py check  BENCH_sampling.json bench_skip_sampling.json
    bench_trajectory.py append BENCH_sampling.json bench_skip_sampling.json --pr 7

`check` compares a fresh bench run against each metric's last committed
entry and exits 1 if any ratio regressed by more than --threshold (default
15%) — wire it through `continue-on-error` in CI to make that advisory.
`append` adds the run as a new history entry (deduping the PR number) and
rewrites the trajectory file; commit the result.

The metric extractors below understand the JSON emitted by
bench_skip_sampling, bench_sample_pool, bench_batch_solver,
bench_service_throughput, bench_dynamic_graph, and bench_observability,
keyed by the "bench" field each one emits.
"""

import argparse
import json
import sys


def _skip_sampling_metrics(run):
    out = {}
    for name, inst in run["instances"].items():
        for direction in ("forward", "rr"):
            d = inst[direction]
            base = f"{name}_{direction}"
            # Ratios vs the per-edge baseline measured in the same process:
            # machine-portable, and a kernel that slows down shows up as a
            # falling ratio even if the runner got faster.
            out[f"{base}_skip_speedup"] = d["speedup"]
    return out


def _sample_pool_metrics(run):
    return {"pooled_vs_resample_speedup": run["speedup_pooled_vs_resample_path"]}


def _batch_solver_metrics(run):
    return {"batch_vs_sequential_speedup": run["speedup_batch_vs_sequential"]}


def _service_throughput_metrics(run):
    return {"warm_vs_cold_speedup": run["speedup_warm_vs_cold"]}


def _dynamic_metrics(run):
    # Both dimensionless: migrate-arm wall time vs the rebuild arm replaying
    # the identical delta stream, and the fraction of post-update solves the
    # migrated pools answered warm (1.0 = every update carried its pools).
    return {
        "migrate_vs_rebuild_speedup": run["speedup_migrate_vs_rebuild"],
        "warm_hit_rate": run["warm_hit_rate"],
    }


def _observability_metrics(run):
    # The bench reports overhead ratios (lower = better); the trajectory
    # tracks their inverses so that, like every other metric here, a
    # falling value means a regression — instrumentation creep on the
    # trace-off hot path or heavier span recording when tracing is on.
    off = run["trace_off_overhead_ratio"]
    on = run["trace_on_overhead_ratio"]
    return {
        "trace_off_efficiency": 1.0 / off if off else 0.0,
        "trace_on_efficiency": 1.0 / on if on else 0.0,
    }


EXTRACTORS = {
    "skip_sampling": _skip_sampling_metrics,
    "sample_pool": _sample_pool_metrics,
    "batch_solver": _batch_solver_metrics,
    "service_throughput": _service_throughput_metrics,
    "dynamic_graph": _dynamic_metrics,
    "observability": _observability_metrics,
}

UNIT = "x"  # every tracked metric is a speedup ratio


def extract(run_path):
    try:
        with open(run_path) as f:
            run = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read bench run {run_path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: bench run {run_path} is not valid JSON: {e}")
    if not isinstance(run, dict):
        sys.exit(f"error: bench run {run_path} must be a JSON object")
    bench = run.get("bench")
    if bench not in EXTRACTORS:
        sys.exit(f"error: unknown bench kind {bench!r} in {run_path} "
                 f"(known: {', '.join(sorted(EXTRACTORS))})")
    try:
        metrics = EXTRACTORS[bench](run)
    except (KeyError, TypeError) as e:
        sys.exit(f"error: bench run {run_path} is missing a field the "
                 f"{bench!r} extractor needs: {e}")
    bad = [k for k, v in metrics.items() if not isinstance(v, (int, float))]
    if bad:
        sys.exit(f"error: non-numeric metric(s) in {run_path}: "
                 f"{', '.join(sorted(bad))}")
    return metrics


def load_trajectory(path):
    try:
        with open(path) as f:
            trajectory = json.load(f)
    except FileNotFoundError:
        return {}
    except json.JSONDecodeError as e:
        sys.exit(f"error: trajectory {path} is not valid JSON: {e}")
    if not isinstance(trajectory, dict):
        sys.exit(f"error: trajectory {path} must be a JSON object of "
                 "per-metric history lists")
    return trajectory


def cmd_check(args):
    trajectory = load_trajectory(args.trajectory)
    metrics = extract(args.run)
    regressions = []
    for name, value in sorted(metrics.items()):
        history = trajectory.get(name)
        if not history:
            print(f"  {name}: {value:.3f}{UNIT} (no history — new metric)")
            continue
        last = history[-1]
        ratio = value / last["value"] if last["value"] else float("inf")
        marker = ""
        if ratio < 1.0 - args.threshold:
            marker = "  <-- REGRESSION"
            regressions.append((name, last["value"], value))
        print(f"  {name}: {value:.3f}{UNIT} vs PR {last['pr']} "
              f"{last['value']:.3f}{UNIT} ({(ratio - 1) * 100:+.1f}%){marker}")
    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed more than "
              f"{args.threshold:.0%} vs the committed trajectory:")
        for name, old, new in regressions:
            print(f"  {name}: {old:.3f} -> {new:.3f}")
        return 1
    print("\ntrajectory check passed")
    return 0


def cmd_append(args):
    trajectory = load_trajectory(args.trajectory)
    metrics = extract(args.run)
    for name, value in sorted(metrics.items()):
        history = trajectory.setdefault(name, [])
        # Re-appending for the same PR replaces the entry (re-runs happen).
        trajectory[name] = [e for e in history if e["pr"] != args.pr]
        trajectory[name].append(
            {"pr": args.pr, "value": round(value, 4), "unit": UNIT})
    with open(args.trajectory, "w") as f:
        json.dump(trajectory, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"appended {len(metrics)} metric(s) for PR {args.pr} "
          f"to {args.trajectory}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="diff a run against the trajectory")
    check.add_argument("trajectory", help="committed BENCH_*.json file")
    check.add_argument("run", help="JSON emitted by a bench binary")
    check.add_argument("--threshold", type=float, default=0.15,
                       help="relative regression that fails the check "
                            "(default 0.15)")

    append = sub.add_parser("append", help="append a run to the trajectory")
    append.add_argument("trajectory", help="committed BENCH_*.json file")
    append.add_argument("run", help="JSON emitted by a bench binary")
    append.add_argument("--pr", type=int, required=True,
                        help="PR number recorded with the entry")

    args = parser.parse_args()
    if args.command == "check":
        sys.exit(cmd_check(args))
    sys.exit(cmd_append(args))


if __name__ == "__main__":
    main()
