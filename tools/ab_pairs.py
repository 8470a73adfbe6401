#!/usr/bin/env python3
"""A/B pair runner: the benchmark at two revisions, in alternating pairs.

    python3 tools/ab_pairs.py A B --workload W --pairs N [--trace-pair]

Exports each revision with `git archive` (local git only, no network) into
its own directory under --work-dir, builds its perfbench once, then runs
`perfbench/run.py --workload W` N times per revision in pairs: pair i uses
seed i, and odd pairs run A first, even pairs B first, so drift over the
session (thermal state, page cache, neighbours) falls on both sides alike.
One more pair on a held-out seed, not used by any pair, is run and printed
apart from the pair statistics. Every run lasts BENCHMARK.json's
run_seconds.

Every pair, the held-out one included, must report the same
index_bytes_per_object for A and B: it is a function of the seed and the
page format, so a difference means the two revisions did not index the
same data, and the tool exits 1. A run that
fails or reports a wrong answer also exits 1.

For each end-to-end metric of BENCHMARK.json the summary prints A's and B's
medians, A's interquartile range, B's median change, whether that median
lies outside A's IQR, and how many of the N pairs B won (strictly better in
the metric's declared direction).

--trace-pair adds one traced pair (seed 1) and compares its count metrics
(per-layer metrics in unit "count", as perfbench/selftest.py picks them):
node visits per level, border probes, buffer-pool counts, build pages. A
change that claims the same work must show them identical; differences are
printed and make the tool exit 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = 9001


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, work_dir):
    """Archives `rev` into work_dir/<sha> and builds its perfbench once."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(work_dir, sha[:12])
    if not os.path.isdir(os.path.join(tree, "perfbench")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"ab_pairs: git archive {rev} failed")
    build = os.path.join(tree, ".bench_build", "perfbench")
    for cmd in (["cmake", "-S", os.path.join(tree, "perfbench"), "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j", "4"]):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode:
            sys.exit(f"ab_pairs: building {rev} failed: {' '.join(cmd)}")
    return sha[:12], tree


def run(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        sys.stderr.write(p.stderr[-2000:])
        sys.exit(f"ab_pairs: run failed ({tree}, seed {seed}, trace {trace})")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"ab_pairs: wrong answers ({tree}, seed {seed})")
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def pair(a, b, workload, seed, seconds, trace, first_a):
    """One pair; returns (metrics of A, metrics of B). An untraced pair
    exits 1 when A and B report a different index_bytes_per_object (a
    traced run reports only per-layer metrics)."""
    order = (a, b) if first_a else (b, a)
    got = {}
    for name, tree in order:
        got[name] = run(tree, workload, seed, seconds, trace)
        print(f"  seed {seed:>4} {name}: " + " ".join(
            f"{k}={v:g}" for k, v in sorted(got[name].items())
            if trace == 0), file=sys.stderr, flush=True)
    ma, mb = got[a[0]], got[b[0]]
    if trace == 0 and (ma["index_bytes_per_object"] !=
                       mb["index_bytes_per_object"]):
        sys.exit(f"ab_pairs: index_bytes_per_object differs at seed {seed}: "
                 f"A {ma['index_bytes_per_object']} "
                 f"B {mb['index_bytes_per_object']}")
    return ma, mb


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline revision")
    ap.add_argument("b", help="candidate revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--trace-pair", action="store_true",
                    help="also run one traced pair and compare its counts")
    ap.add_argument("--work-dir", help="where the revisions are exported "
                    "and built (default: a fresh temporary directory)")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("ab_pairs: --pairs must be at least 1")

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = spec["run_seconds"]
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="ab_pairs_")
    a = export(args.a, work_dir)
    b = export(args.b, work_dir)
    print(f"ab_pairs: A={a[0]} B={b[0]} workload={args.workload} "
          f"pairs={args.pairs} seconds={seconds:g} dir={work_dir}",
          file=sys.stderr, flush=True)

    runs_a, runs_b = [], []
    for seed in range(1, args.pairs + 1):
        ma, mb = pair(a, b, args.workload, seed, seconds, 0, seed % 2 == 1)
        runs_a.append(ma)
        runs_b.append(mb)
    held_a, held_b = pair(a, b, args.workload, HELD_OUT_SEED, seconds, 0,
                          True)

    print(f"{args.workload}: A={a[0]} B={b[0]}, {args.pairs} pairs "
          f"of {seconds:g} s")
    print(f"{'metric':<24}{'A median':>12}{'B median':>12}{'A IQR':>22}"
          f"{'B-A':>9}  {'outside IQR':<12}{'B wins':>7}  held-out A/B")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        xa = [r[name] for r in runs_a]
        xb = [r[name] for r in runs_b]
        med_a, med_b = statistics.median(xa), statistics.median(xb)
        q1, q3 = quartiles(xa)
        wins = sum((vb < va) if lower else (vb > va) for va, vb in zip(xa, xb))
        change = (med_b - med_a) / med_a if med_a else 0.0
        outside = med_b < q1 or med_b > q3
        print(f"{name:<24}{med_a:>12.4g}{med_b:>12.4g}"
              f"{f'[{q1:.4g}, {q3:.4g}]':>22}{change:>+9.1%}  "
              f"{'yes' if outside else 'no':<12}{wins:>4}/{args.pairs}"
              f"  {held_a[name]:.4g}/{held_b[name]:.4g}")

    if not args.trace_pair:
        return 0
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] == "count" and not m["name"].startswith(
                  ("client.", "trace.", "check."))]
    ta, tb = pair(a, b, args.workload, 1, seconds, 1, True)
    differ = [n for n in counts if ta.get(n) != tb.get(n)]
    print(f"traced pair, seed 1: {len(counts) - len(differ)}/{len(counts)} "
          f"count metrics identical")
    for n in counts:
        print(f"  {n:<42}{ta.get(n, 0):>14.6g}{tb.get(n, 0):>14.6g}"
              f"{'' if n not in differ else '  DIFFERS'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
