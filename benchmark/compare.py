#!/usr/bin/env python3
"""Compares two sets of benchmark results: a parent commit and a change.

    python3 benchmark/compare.py --parent DIR|FILE... --change DIR|FILE...

Inputs are slick_bench result files (run.py keeps them in
.bench_build/results/; traced runs and trace files are skipped). Runs pair
up by workload and seed, so run both sides with the same seeds, alternating
which side goes first. One row is printed per (workload, end-to-end
metric), with a verdict:

  gain        at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), its median is better by more than
              the parent's interquartile range, and no more answers fail
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  either side's spread (IQR / median) exceeds the bound, and
              not every change run beats every parent run
  unchanged   none of the above

Exits 1 when any row is a regression, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

GAIN_MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9


def load_results(paths):
    """{workload: {seed: result}} from result files and directories."""
    files = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
    runs = {}
    for path in files:
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            result = json.load(f)
        info = result.get("info", {})
        if "workload" not in info or "metrics" not in result:
            continue
        if info.get("traced") == "1":  # its time was split with a traced pass
            continue
        runs.setdefault(info["workload"], {})[info["seed"]] = result
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better, bound, parent_failed, change_failed):
    """Applies the rules above to paired value lists (same order)."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    gained = sign * (mc - mp)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = len(parent)
    if (pairs >= GAIN_MIN_PAIRS and wins >= GAIN_WIN_SHARE * pairs
            and gained > iqr(parent) and change_failed <= parent_failed):
        return "gain", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (spread(parent) > bound or spread(change) > bound) and not all_better:
        return "unresolved", wins
    if -gained > bound * abs(mp):
        return "regression", wins
    return "unchanged", wins


def compare(parent_runs, change_runs, spec):
    """Returns one row dict per (workload, end-to-end metric)."""
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[workload]) & set(change_runs[workload]))
        if not seeds:
            continue
        p_runs = [parent_runs[workload][s] for s in seeds]
        c_runs = [change_runs[workload][s] for s in seeds]
        p_failed = sum(int(r["failed"]) for r in p_runs)
        c_failed = sum(int(r["failed"]) for r in c_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [float(r["metrics"][name]["value"]) for r in p_runs]
            c = [float(r["metrics"][name]["value"]) for r in c_runs]
            v, wins = verdict(p, c, m["better"], m["bound"], p_failed, c_failed)
            mp = statistics.median(p)
            rows.append({
                "workload": workload, "metric": name, "pairs": len(seeds),
                "parent_median": mp, "parent_spread": spread(p),
                "change_median": statistics.median(c), "change_spread": spread(c),
                "delta": (statistics.median(c) - mp) / mp if mp else 0.0,
                "wins": wins, "bound": m["bound"], "verdict": v,
            })
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    opts = parser.parse_args()
    with open(opts.benchmark) as f:
        spec = json.load(f)
    rows = compare(load_results(opts.parent), load_results(opts.change), spec)
    if not rows:
        print("compare.py: no workload has runs on both sides with the same seeds",
              file=sys.stderr)
        return 2
    print(f"{'workload':12} {'metric':18} {'pairs':>5} {'parent':>13} {'spread':>7} "
          f"{'change':>13} {'spread':>7} {'delta':>8} {'wins':>5} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:12} {r['metric']:18} {r['pairs']:5d} "
              f"{r['parent_median']:13.6g} {r['parent_spread']:7.3f} "
              f"{r['change_median']:13.6g} {r['change_spread']:7.3f} "
              f"{r['delta']:+8.2%} {r['wins']:5d} {r['bound']:6.2f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
