#!/usr/bin/env python3
"""Perf-regression gate over the committed bench trajectory.

Compares a freshly produced BENCH_*.json (one JSON object per line, as the
bench binaries write under $BOXAGG_BENCH_DIR) against the committed
trajectory file under results/ and exits non-zero on regression.

    perf_gate.py --baseline results/BENCH_descent.json \
                 --fresh   /tmp/BENCH_descent.json \
                 [--max-regress 0.5] [--gate-wall]

Records are matched by a schema-derived identity key (kernel name, backend
tree, replica record kind + buffer size, ...) so reordering and meta churn
(git sha, build type) never trip the gate. Two gate classes:

  deterministic   counts the workload pins exactly for a given (n, queries,
                  seed): per-round logical reads, page counts, replica size
                  ratios, result identity. Compared exactly (floats within
                  1e-6 relative) — any drift is a real behavior change and
                  must come with a trajectory update in the same commit.

  ratio           within-run speed ratios (SIMD-vs-scalar kernel speedup).
                  Machine-portable enough to gate across hosts, but noisy:
                  the fresh value must stay above baseline * (1 - max_regress).
                  The default slack (0.5) only fires on collapse-class
                  regressions — vectorization silently disabled — not
                  scheduler jitter.

Absolute wall-clock fields (wall_ms, *_ms, queries_per_sec) are gated only
with --gate-wall, for same-machine A/B comparisons; across runner
generations they are noise.

A baseline record with no matching fresh record fails the gate (a bench that
silently stopped emitting is itself a regression). Fresh-only records pass
with a note: the next trajectory refresh picks them up.

    perf_gate.py --ab results/BENCH_ab.json

checks instead every A/B record that tools/ab_pairs.py --record appended
there, one claimed speed gain per line. Each record must have every field
with its type, and its summary (B's wins, A's median and IQR, B's median)
must be what its pairs give. Its claim must hold: B wins at least
AB_MIN_WINS of at least AB_MIN_PAIRS pairs, and B's median lies outside
A's interquartile range on the metric's better side.
"""

import argparse
import json
import statistics
import sys

EPS = 1e-6

# Deterministic for fixed (n, queries, seed): exact match required.
DETERMINISTIC = {
    "logical_per_round",
    "bat_pages",
    "replica_pages",
    "bat_bytes_per_object",
    "replica_bytes_per_object",
    "ratio_vs_bat",
    "physical_reads",
    "logical_reads",
    "buffer_hits",
    "hit_rate",
    "match",
    "n",
    "queries",
    "reps",
    "rounds",
}

# Within-run ratios: fresh >= baseline * (1 - max_regress).
RATIO = {"speedup"}

# Absolute times/rates: only gated with --gate-wall (same-machine runs);
# higher-is-better fields listed separately from lower-is-better.
WALL_HIGHER_BETTER = {"queries_per_sec"}
WALL_LOWER_BETTER = {
    "wall_ms",
    "wall_ms_min",
    "scalar_ms",
    "simd_ms",
    "build_ms",
}


def identity(rec):
    """Schema-derived match key for one bench record."""
    if "kernel" in rec:
        return ("kernel", rec["kernel"])
    if rec.get("phase") == "warm_batch":
        return ("warm_batch", rec["backend_tree"])
    if rec.get("record") == "io":
        return ("replica_io", rec["backend"], rec["io_buffer_mb"])
    if rec.get("record") == "size":
        return ("replica_size",)
    if rec.get("record") == "identity":
        return ("replica_identity",)
    return ("opaque", json.dumps(rec, sort_keys=True))


# The claim rule of an A/B record.
AB_MIN_PAIRS = 10
AB_MIN_WINS = 8

# Field -> type(s) of an A/B record; "pairs" entries are {seed, a, b}.
NUM = (int, float)
AB_FIELDS = {
    "record": str, "a": str, "b": str, "workload": str, "metric": str,
    "better": str, "pairs": list, "b_wins": int, "a_median": NUM,
    "a_iqr": list, "b_median": NUM, "held_out": dict, "nproc": int,
    "thp": str,
}


def check_ab_record(rec):
    """Failures of one A/B record: its shape, its summary against its
    pairs, then the claim rule."""
    bad = [f"field {k} missing or not a "
           f"{'number' if t is NUM else t.__name__}"
           for k, t in AB_FIELDS.items()
           if not isinstance(rec.get(k), t) or isinstance(rec.get(k), bool)]
    if bad:
        return bad
    if rec["record"] != "ab" or rec["better"] not in ("lower", "higher"):
        return ["record must be \"ab\" and better \"lower\" or \"higher\""]
    pairs = rec["pairs"]
    if not all(isinstance(p, dict) and isinstance(p.get("seed"), int) and
               isinstance(p.get("a"), NUM) and isinstance(p.get("b"), NUM)
               for p in pairs):
        return ["every pair must be {seed, a, b} with numbers"]
    held = rec["held_out"]
    if not all(isinstance(held.get(k), t)
               for k, t in (("seed", int), ("a", NUM), ("b", NUM))):
        return ["held_out must be {seed, a, b} with numbers"]
    if len(rec["a_iqr"]) != 2 or not all(isinstance(q, NUM)
                                         for q in rec["a_iqr"]):
        return ["a_iqr must be [q1, q3]"]
    if len(pairs) < AB_MIN_PAIRS:
        return [f"{len(pairs)} pairs; the claim needs {AB_MIN_PAIRS}"]

    lower = rec["better"] == "lower"
    xa = [p["a"] for p in pairs]
    xb = [p["b"] for p in pairs]
    q = statistics.quantiles(xa, n=4, method="inclusive")
    derived = {
        "b_wins": sum((b < a) if lower else (b > a) for a, b in zip(xa, xb)),
        "a_median": statistics.median(xa),
        "a_iqr": [q[0], q[2]],
        "b_median": statistics.median(xb),
    }
    failures = []
    for k, want in derived.items():
        got = rec[k]
        same = (all(close(g, w) for g, w in zip(got, want))
                if isinstance(want, list) else close(got, want))
        if not same:
            failures.append(f"{k} {got} is not what the pairs give ({want})")
    if failures:
        return failures

    q1, q3 = derived["a_iqr"]
    med_b = derived["b_median"]
    if derived["b_wins"] < AB_MIN_WINS:
        failures.append(f"B wins {derived['b_wins']}/{len(pairs)} pairs; "
                        f"the claim needs {AB_MIN_WINS}")
    if not (med_b < q1 if lower else med_b > q3):
        failures.append(f"B's median {med_b:g} is not {rec['better']} than "
                        f"A's IQR [{q1:g}, {q3:g}]")
    return failures


def gate_ab(path):
    """Checks every A/B record in `path`; returns the exit code."""
    failures = []
    records = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            records += 1
            rec = json.loads(line)
            what = (f"{path}:{lineno} ({rec.get('workload')} "
                    f"{rec.get('metric')}, {rec.get('a')} -> {rec.get('b')})")
            failures += [f"{what}: {m}" for m in check_ab_record(rec)]
    if records == 0:
        failures.append(f"{path}: no records")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        print(f"perf_gate: {len(failures)} failed A/B check(s) in {path}",
              file=sys.stderr)
        return 1
    print(f"perf_gate: OK — {records} A/B record(s) in {path}")
    return 0


def load(path):
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            key = identity(rec)
            if key in out:
                raise SystemExit(f"{path}: duplicate record identity {key}")
            out[key] = rec
    if not out:
        raise SystemExit(f"{path}: no records")
    return out


def close(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) <= EPS * scale


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline")
    ap.add_argument("--fresh")
    ap.add_argument("--ab", metavar="FILE",
                    help="check the A/B records in FILE instead")
    ap.add_argument("--max-regress", type=float, default=0.5,
                    help="allowed fractional loss on ratio metrics")
    ap.add_argument("--gate-wall", action="store_true",
                    help="also gate absolute wall-clock fields "
                         "(same-machine comparisons only)")
    args = ap.parse_args()
    if args.ab:
        if args.baseline or args.fresh:
            ap.error("--ab takes no --baseline or --fresh")
        return gate_ab(args.ab)
    if not (args.baseline and args.fresh):
        ap.error("--baseline and --fresh are required without --ab")

    base = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    checked = 0
    for key, brec in sorted(base.items()):
        frec = fresh.get(key)
        if frec is None:
            failures.append(f"{key}: present in baseline, missing from fresh")
            continue
        for field, bval in brec.items():
            if field not in frec:
                failures.append(f"{key}: field {field} missing from fresh")
                continue
            fval = frec[field]
            if field in DETERMINISTIC:
                checked += 1
                if not close(bval, fval):
                    failures.append(
                        f"{key}: {field} drifted: baseline={bval} "
                        f"fresh={fval} (deterministic — update the "
                        f"trajectory file if this change is intended)")
            elif field in RATIO:
                checked += 1
                floor = bval * (1.0 - args.max_regress)
                if fval < floor:
                    failures.append(
                        f"{key}: {field} regressed: baseline={bval} "
                        f"fresh={fval} < floor {floor:.3f}")
            elif args.gate_wall and field in WALL_HIGHER_BETTER:
                checked += 1
                if fval < bval * (1.0 - args.max_regress):
                    failures.append(
                        f"{key}: {field} regressed: baseline={bval} "
                        f"fresh={fval}")
            elif args.gate_wall and field in WALL_LOWER_BETTER:
                checked += 1
                if fval > bval * (1.0 + args.max_regress):
                    failures.append(
                        f"{key}: {field} regressed: baseline={bval} "
                        f"fresh={fval}")

    for key in sorted(set(fresh) - set(base)):
        print(f"note: fresh-only record {key} (not gated)")

    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        print(f"perf_gate: {len(failures)} regression(s) against "
              f"{args.baseline}", file=sys.stderr)
        return 1
    print(f"perf_gate: OK — {len(base)} records, {checked} gated fields, "
          f"max_regress={args.max_regress}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
