#!/usr/bin/env python3
"""Runs one workload of the boxagg benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload warm_batch --seed 1 --seconds 15 --trace 0

Builds the library and the benchmark from source into .bench_build/perfbench
(CMake, Release, native SIMD kernels) when they are out of date, then runs
the workload there. Progress and the human-readable metric table go to
stderr; the last line of stdout is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding BENCHMARK.json's end_to_end metrics with --trace 0 and its per_layer
metrics with --trace 1. A per-layer metric of a layer the workload does not
reach reads 0. The exit status is non-zero when the build fails, an answer
is wrong, an identity or determinism check fails, or the program's metrics
do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("warm_batch", "cold_file", "update_mix", "functional")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are not next to perfbench/")
    steps = [["cmake", "--build", BUILD, "-j", "4"]]
    # Once configured, the build step re-runs CMake itself when needed.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "boxagg_perfbench")


def result(program_line, trace):
    """The result object: the program's metrics, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    out = json.loads(program_line)
    have = out["per_layer" if trace else "end_to_end"]
    problems = sorted(set(have) - {m["name"] for m in declared})
    metrics = {}
    for m in declared:
        got = have.get(m["name"])
        if got is None and not trace:
            problems.append("missing " + m["name"])
            continue
        got = got or {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            problems.append(f"unit of {m['name']} is {got['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        print("perfbench: metric not as declared: " + p, file=sys.stderr)
    return {"correct": out["correct"] and not problems,
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="all: every workload in turn, one result line each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small index and short passes, for self-tests")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt one checked answer (self-test)")
    args = ap.parse_args()

    binary = build()
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--workdir", work]
        if args.inject_wrong:
            cmd.append("--inject-wrong")
        try:
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        lines = run.stdout.strip().splitlines()
        if not lines:
            sys.exit(f"perfbench: {workload} printed no result "
                     f"(exit {run.returncode})")
        res = result(lines[-1], args.trace)
        if args.workload == "all":
            res = {"workload": workload, **res}
        print(json.dumps(res), flush=True)
        if run.returncode or not res["correct"]:
            status = run.returncode or 1
    return status


if __name__ == "__main__":
    sys.exit(main())
