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
"""

import argparse
import json
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
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--max-regress", type=float, default=0.5,
                    help="allowed fractional loss on ratio metrics")
    ap.add_argument("--gate-wall", action="store_true",
                    help="also gate absolute wall-clock fields "
                         "(same-machine comparisons only)")
    args = ap.parse_args()

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
