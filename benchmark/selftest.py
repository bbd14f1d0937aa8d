#!/usr/bin/env python3
"""Self-test of the benchmark, on short runs of every workload.

    python3 benchmark/selftest.py --bench PATH/slick_bench --out-dir DIR

Checks, per workload:
  * a traced run reports failed = 0, every metric BENCHMARK.json names
    (with its unit), a readable Chrome trace file, and stage self times
    that reconcile with the traced wall time per tuple within 10%;
  * --inject-fault makes the run report failed > 0 and exit with 1;
and, on acq-sum and acq-max, that the same seed gives the same answer
checksum and another seed a different one.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED, OTHER_SEED = 7, 8
RECONCILE_LIMIT = 0.10


def run(bench, out_dir, workload, seed, seconds, *flags):
    stem = os.path.join(out_dir, f"{workload}-{seed}-{'-'.join(f.strip('-') for f in flags)}")
    args = [bench, f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--out={stem}.json", *flags]
    if "--trace" in flags:
        args.append(f"--trace-out={stem}.trace.json")
    proc = subprocess.run(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    with open(stem + ".json") as f:
        return proc.returncode, json.load(f), stem + ".trace.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True)
    parser.add_argument("--out-dir", required=True)
    opts = parser.parse_args()
    os.makedirs(opts.out_dir, exist_ok=True)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        code, traced, trace_path = run(opts.bench, opts.out_dir, workload, SEED, 2,
                                       "--trace")
        check(code == 0 and traced["failed"] == 0,
              f"{workload}: traced run is correct ({traced['failures']})")
        for m in spec["end_to_end"] + spec["per_layer"]:
            got = traced["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"],
                  f"{workload}: reports {m['name']} in {m['unit']}")
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            check(len(events) > 0, f"{workload}: trace file has spans")
        except (OSError, ValueError, KeyError) as e:
            check(False, f"{workload}: trace file is readable ({e})")
        err = traced["metrics"]["bench.reconcile_error_frac"]["value"]
        check(err <= RECONCILE_LIMIT,
              f"{workload}: stage self times reconcile with the traced wall "
              f"time per tuple ({err:.3f} <= {RECONCILE_LIMIT})")

        code, result, _ = run(opts.bench, opts.out_dir, workload, SEED, 1,
                              "--inject-fault")
        check(code == 1 and result["failed"] > 0,
              f"{workload}: --inject-fault is detected (failed={result['failed']})")

        if workload.startswith("acq-"):
            first = traced["info"]["answer_checksum"]
            _, again, _ = run(opts.bench, opts.out_dir, workload, SEED, 1)
            _, other, _ = run(opts.bench, opts.out_dir, workload, OTHER_SEED, 1)
            check(again["info"]["answer_checksum"] == first,
                  f"{workload}: same seed, same answer checksum")
            check(other["info"]["answer_checksum"] != first,
                  f"{workload}: other seed, other answer checksum")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
