#!/usr/bin/env python3
"""Builds slick_bench from source and runs one workload of the benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build lands in .bench_build/ and the
full result of every run in .bench_build/results/. The build log goes to
stderr and slick_bench's report to stdout. The last line of stdout is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with --trace 0 holding every end_to_end metric of BENCHMARK.json, and with
--trace 1 every per_layer metric (from the traced pass; see README.md).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        die(f"no SlickDeque source tree next to {HERE}")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "slick_bench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "slick_bench")


def run(binary, args):
    """Runs slick_bench in its own process group, so a timeout stops the
    generator process it forks too. Returns its exit code."""
    proc = subprocess.Popen(args, stdout=sys.stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{os.path.basename(binary)} did not finish in {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if opts.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {opts.workload!r}")
    wanted = spec["per_layer" if opts.trace else "end_to_end"]

    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{opts.workload}-seed{opts.seed}-trace{opts.trace}")
    args = [binary, f"--workload={opts.workload}", f"--seed={opts.seed}",
            f"--seconds={opts.seconds}", f"--out={stem}.json"]
    if opts.trace:
        args += ["--trace", f"--trace-out={stem}.trace.json"]
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")
    sys.stdout.flush()
    code = run(binary, args)
    if code not in (0, 1) or not os.path.isfile(stem + ".json"):
        die(f"slick_bench exited with code {code} without a result")
    with open(stem + ".json") as f:
        result = json.load(f)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or not isinstance(got["value"], (int, float)):
            die(f"slick_bench reported no value for {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    failed = int(result["failed"])
    line = {"correct": failed == 0 and code == 0,
            "attempted": max(1, int(result["attempted"])),
            "failed": failed,
            "metrics": metrics}
    sys.stdout.flush()
    print(json.dumps(line))


if __name__ == "__main__":
    main()
