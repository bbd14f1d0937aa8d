#!/usr/bin/env python3
"""Merge per-bench --json result files into committed BENCH_<name>.json
snapshots, and gate CI on batch-ingestion throughput.

Merge mode:
    python3 tools/bench_summary.py --name batch --out-dir . exp5.json ...

  Each input is either a bench_common.h JsonReport array (rows with the
  shared {bench, config, tuples_per_sec, p50_ns, p99_ns} schema) or a
  google-benchmark JSON report (detected by its top-level "benchmarks"
  key, stored verbatim under "google_benchmark"). The merged snapshot is

    {"name": <name>, "rows": [...], "google_benchmark": [...]}

  written to <out-dir>/BENCH_<name>.json with stable ordering so re-runs
  diff cleanly.

Check mode:
    python3 tools/bench_summary.py --check exp5.json \
        --min-batch 64 --min-speedup 1.0

  For every (algo, op) group among mode=="single" rows that has a
  batch==1 baseline, requires the BEST row with batch >= --min-batch to
  reach at least --min-speedup x the baseline tuples_per_sec (best-of, so
  one noisy point on a loaded CI box does not fail the gate). --algos
  restricts the gate to a comma-separated algo list — CI passes the
  algorithms with real bulk fast paths and leaves the per-tuple-by-design
  ones (DABA) ungated. Exits non-zero listing every violation.

Baseline-ratio mode:
    python3 tools/bench_summary.py --check exp5_super.json \
        --baseline exp5_fast.json --max-regression 0.03

  Compares each row of --check against the row with the same (bench,
  config) key in --baseline and fails if tuples_per_sec dropped by more
  than --max-regression (fractional). CI uses this to prove the
  supervised runtime (checkpointing on, fault injection compiled out)
  costs < 3% against the same binary's unsupervised run on the same
  box — a paired same-run comparison, so it is robust to machine-speed
  variation in a way absolute thresholds are not. Rows missing from the
  baseline are reported but do not fail the gate.

Cost-ratio mode:
    python3 tools/bench_summary.py --check exp5_batch.json \
        --num-algo slick-noninv --den-algo slick-noninv-scalar \
        --max-cost-ratio 1.05 --best-pair --where mode=single,op=max_int

  Pairs rows within ONE file by config-minus-algo and requires the
  --num-algo row's per-tuple cost (1 / tuples_per_sec) to stay within
  --max-cost-ratio x the --den-algo row's — a paired same-run
  comparison, robust to runner speed. --where restricts to rows whose
  config matches every key=value given (e.g. only the single-aggregator
  max_int lane). --best-pair collapses each side to its best matched
  rate and compares once. CI uses this mode to prove each vectorized
  kernel never loses to its scalar twin (DESIGN.md §16.4), with 5%
  slack so identical-code small-batch pairs cannot flake the check.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def split_inputs(paths):
    """Partition input files into JsonReport rows and google-benchmark blobs."""
    rows, gbench = [], []
    for path in paths:
        doc = load(path)
        if isinstance(doc, dict) and "benchmarks" in doc:
            gbench.append(doc)
        elif isinstance(doc, list):
            for row in doc:
                if not isinstance(row, dict) or "bench" not in row:
                    raise ValueError(f"{path}: row without 'bench' key: {row!r}")
                rows.append(row)
        else:
            raise ValueError(f"{path}: neither a JsonReport array nor a "
                             "google-benchmark report")
    return rows, gbench


def row_sort_key(row):
    config = row.get("config", {})
    return (row.get("bench", ""),
            sorted(config.items()),
            row.get("tuples_per_sec", 0.0))


def merge(args):
    rows, gbench = split_inputs(args.files)
    rows.sort(key=row_sort_key)
    out = {"name": args.name, "rows": rows}
    if gbench:
        out["google_benchmark"] = gbench
    path = f"{args.out_dir}/BENCH_{args.name}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {path}: {len(rows)} rows"
          + (f", {len(gbench)} google-benchmark reports" if gbench else ""))
    return 0


def row_key(row, ignore=()):
    """Identity of a bench row for baseline pairing: bench + config minus
    the knobs that deliberately differ between the paired runs (e.g.
    checkpoint_interval when gating supervised vs unsupervised)."""
    config = row.get("config", {})
    items = tuple(sorted((k, v) for k, v in config.items()
                         if k not in ignore))
    return (row.get("bench", ""), items)


def check_baseline(args):
    ignore = tuple(k for k in args.ignore_config_keys.split(",") if k)
    rows, _ = split_inputs([args.check])
    base_rows, _ = split_inputs([args.baseline])
    baseline = {row_key(r, ignore): r["tuples_per_sec"] for r in base_rows}

    compared, failures = 0, []
    for row in rows:
        key = row_key(row, ignore)
        if key not in baseline:
            print(f"note: no baseline row for {key[0]} {dict(key[1])}")
            continue
        compared += 1
        base = baseline[key]
        cur = row["tuples_per_sec"]
        floor = (1.0 - args.max_regression) * base
        ratio = cur / base if base else float("inf")
        tag = "ok" if cur >= floor else "REGRESSED"
        print(f"{tag}: {key[0]} {dict(key[1])}: {cur:.0f} vs baseline "
              f"{base:.0f} tuples/s ({ratio:.3f}x)")
        if cur < floor:
            failures.append(
                f"{key[0]} {dict(key[1])}: {cur:.0f} < "
                f"{1.0 - args.max_regression:g}x baseline {base:.0f}")

    if compared == 0:
        print("baseline check: no comparable rows", file=sys.stderr)
        return 1
    if failures:
        print(f"baseline regression check FAILED "
              f"(> {args.max_regression:.0%} drop):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"baseline regression check passed ({compared} rows within "
          f"{args.max_regression:.0%})")
    return 0


def check_cost_ratio(args):
    rows, _ = split_inputs([args.check])
    where = dict(kv.split("=", 1) for kv in args.where.split(",") if kv)

    def matches(row):
        config = row.get("config", {})
        return all(config.get(k) == v for k, v in where.items())

    num, den = {}, {}
    for row in rows:
        if not matches(row):
            continue
        algo = row.get("config", {}).get("algo")
        key = row_key(row, ignore=("algo",))
        if algo == args.num_algo:
            num[key] = row["tuples_per_sec"]
        elif algo == args.den_algo:
            den[key] = row["tuples_per_sec"]

    if args.best_pair:
        # Collapse each side to its best rate over the matched rows and
        # compare once. CI uses this for the SIMD-vs-scalar-twin gates:
        # the per-batch pairs include configurations (batch=1) where both
        # twins run identical code and the per-pair ratio is pure runner
        # noise, while the claim under test is only "the vectorized build
        # is never slower where it matters" — i.e. at its best operating
        # point, which best-vs-best isolates.
        if not num or not den:
            print("cost-ratio check: no comparable row pairs",
                  file=sys.stderr)
            return 1
        num_tps = max(num.values())
        den_tps = max(den.values())
        num, den = {("best", ()): num_tps}, {("best", ()): den_tps}

    compared, failures = 0, []
    for key, num_tps in sorted(num.items()):
        if key not in den:
            print(f"note: no {args.den_algo} row pairs {dict(key[1])}")
            continue
        compared += 1
        den_tps = den[key]
        # Per-tuple cost ratio: how much slower the numerator algo is.
        ratio = den_tps / num_tps if num_tps else float("inf")
        tag = "ok" if ratio <= args.max_cost_ratio else "FAILED"
        print(f"{tag}: {args.num_algo} vs {args.den_algo} {dict(key[1])}: "
              f"{num_tps:.0f} vs {den_tps:.0f} tuples/s "
              f"(cost ratio {ratio:.3f}x)")
        if ratio > args.max_cost_ratio:
            failures.append(
                f"{dict(key[1])}: cost ratio {ratio:.3f}x > "
                f"{args.max_cost_ratio:g}x")

    if compared == 0:
        print("cost-ratio check: no comparable row pairs", file=sys.stderr)
        return 1
    if failures:
        print(f"cost-ratio check FAILED ({args.num_algo} vs "
              f"{args.den_algo}):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"cost-ratio check passed ({compared} pairs within "
          f"{args.max_cost_ratio:g}x)")
    return 0


def check(args):
    rows, _ = split_inputs([args.check])
    wanted = set(args.algos.split(",")) if args.algos else None
    groups = {}
    for row in rows:
        config = row.get("config", {})
        if config.get("mode") != "single" or "batch" not in config:
            continue
        if wanted is not None and config.get("algo") not in wanted:
            continue
        key = (config.get("algo", "?"), config.get("op", "?"))
        groups.setdefault(key, {})[int(config["batch"])] = row["tuples_per_sec"]

    if not groups:
        print("check: no single-mode batch rows found", file=sys.stderr)
        return 1

    failures = []
    for (algo, op), by_batch in sorted(groups.items()):
        if 1 not in by_batch:
            continue
        base = by_batch[1]
        big = {b: r for b, r in by_batch.items() if b >= args.min_batch}
        if not big:
            continue
        best_batch, best = max(big.items(), key=lambda kv: kv[1])
        if best < args.min_speedup * base:
            failures.append(
                f"{algo}/{op} best batch={best_batch}: {best:.0f} tuples/s "
                f"< {args.min_speedup:g}x baseline {base:.0f}")
        else:
            print(f"ok: {algo}/{op} best batch={best_batch}: "
                  f"{best / base:.2f}x baseline")
    if failures:
        print("batch-throughput check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("batch-throughput check passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="input --json result files")
    parser.add_argument("--name", help="snapshot name (BENCH_<name>.json)")
    parser.add_argument("--out-dir", default=".", help="snapshot directory")
    parser.add_argument("--check", metavar="FILE",
                        help="gate batch throughput in FILE instead of merging")
    parser.add_argument("--min-batch", type=int, default=64)
    parser.add_argument("--min-speedup", type=float, default=1.0)
    parser.add_argument("--algos", default="",
                        help="comma-separated algo filter for --check")
    parser.add_argument("--baseline", metavar="FILE",
                        help="with --check: paired baseline result file; "
                             "gate per-row tuples_per_sec ratio instead of "
                             "batch speedup")
    parser.add_argument("--max-regression", type=float, default=0.03,
                        help="with --baseline: max fractional drop vs the "
                             "baseline row (default 0.03 = 3%%)")
    parser.add_argument("--ignore-config-keys", default="",
                        help="with --baseline: comma-separated config keys "
                             "excluded from row pairing (knobs that differ "
                             "between the paired runs by design)")
    parser.add_argument("--num-algo",
                        help="with --check: algo whose per-tuple cost is "
                             "gated (cost-ratio mode)")
    parser.add_argument("--den-algo",
                        help="with --check: the reference algo the "
                             "numerator is compared against")
    parser.add_argument("--max-cost-ratio", type=float, default=1.2,
                        help="cost-ratio mode: max allowed per-tuple cost "
                             "multiple (default 1.2)")
    parser.add_argument("--where", default="",
                        help="cost-ratio mode: comma-separated key=value "
                             "config filters applied before pairing")
    parser.add_argument("--best-pair", action="store_true",
                        help="cost-ratio mode: compare the best "
                             "tuples_per_sec of each algo over the matched "
                             "rows (one comparison) instead of per-config "
                             "pairs — used for SIMD-vs-scalar-twin gates "
                             "where small-batch pairs are pure noise")
    args = parser.parse_args()

    if args.check and args.baseline:
        return check_baseline(args)
    if args.check and args.num_algo:
        if not args.den_algo:
            parser.error("--num-algo requires --den-algo")
        return check_cost_ratio(args)
    if args.check:
        return check(args)
    if not args.name:
        parser.error("--name is required in merge mode")
    if not args.files:
        parser.error("at least one input file is required in merge mode")
    return merge(args)


if __name__ == "__main__":
    sys.exit(main())
