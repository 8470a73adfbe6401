#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale (under a minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced run prints every end-to-end metric, with its unit, non-zero;
  * a traced run prints every per-layer metric with its unit, and its three
    identities and determinism checks hold (exit status 0);
  * two traced runs with one seed report identical count metrics;
  * an injected wrong answer raises failed_frac and makes the run exit
    non-zero;
and that the layer bypass predictions of perfbench/README.md hold, and that
a directory holding only BENCHMARK.json and perfbench/ makes run.py fail
without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Count metrics: exact functions of the seed, so repeated runs must agree.
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"]
                 if m["unit"] == "count" and not m["name"].startswith(
                     ("client.", "trace.", "check."))]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, seed=5, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def expect_metrics(result, decls, what):
    got = result["metrics"]
    names = [d["name"] for d in decls]
    check(sorted(got) == sorted(names), what + ": exactly the declared metrics")
    check(all(got[d["name"]]["unit"] == d["unit"] for d in decls if d["name"] in got),
          what + ": declared units")


def main():
    layers = {}
    for w in [x["name"] for x in SPEC["workloads"]]:
        rc, res, err = run(w, 0)
        check(rc == 0 and res and res["correct"], f"{w}: untraced run is correct")
        if res:
            expect_metrics(res, SPEC["end_to_end"], f"{w} trace 0")
            check(all(v["value"] > 0 for v in res["metrics"].values()),
                  f"{w}: every end-to-end metric is non-zero")

        rc, res, err = run(w, 1)
        check(rc == 0 and res and res["correct"],
              f"{w}: traced run is correct, identities hold")
        if rc != 0:
            print(err[-1500:])
        if res:
            expect_metrics(res, SPEC["per_layer"], f"{w} trace 1")
            layers[w] = {k: v["value"] for k, v in res["metrics"].items()}

        rc2, res2, _ = run(w, 1)
        if res and res2:
            diff = [m for m in COUNT_METRICS
                    if res["metrics"][m]["value"] != res2["metrics"][m]["value"]]
            check(not diff, f"{w}: count metrics repeat exactly {diff}")

        rc, res, _ = run(w, 0, extra=("--inject-wrong",))
        check(rc != 0 and res is not None and not res["correct"]
              and res["failed"] > 0,
              f"{w}: an injected wrong answer fails the run")

    if len(layers) == 4:
        check(layers["warm_batch"]["pagefile.reads_per_op"] == 0 and
              layers["functional"]["pagefile.reads_per_op"] == 0,
              "pagefile.reads_per_op is 0 on warm_batch and functional")
        check(layers["warm_batch"]["core.dedup_frac"] > 0 and
              layers["cold_file"]["core.dedup_frac"] == 0,
              "core.dedup_frac > 0 on warm_batch and 0 on cold_file")
        for m in ("batree.insert_us_per_point", "batree.pages_alloc_per_insert"):
            nonzero = sorted(w for w, v in layers.items() if v[m] != 0)
            check(nonzero == ["update_mix"], f"{m} non-zero only on update_mix")

    # A checkout stripped to the benchmark alone cannot build: run.py must
    # fail without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, _ = run("cold_file", 0, cwd=bare)
    check(rc != 0 and res is None, "a benchmark-only directory fails cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
