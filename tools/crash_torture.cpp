// crash_torture: randomized crash-recovery soak test for the BagFile
// commit protocol, run over the deterministic fault-injecting store.
//
//   crash_torture [--iters N] [--seed S] [--verbose]
//
// Each iteration (fully determined by its seed):
//   1. Creates a BagFile over a FaultInjectingPageFile and grows three
//      structures through one buffer pool: a 1-d aggregate B-tree, a 2-d
//      ECDF-B-tree (update-optimized borders), and a 2-d BA-tree.
//   2. Inserts random integer-valued entries in batches, publishing each
//      batch with Commit() and snapshotting an in-memory oracle per
//      published generation.
//   3. Schedules a power cut at a random I/O index, so the crash lands
//      anywhere: mid-insert, mid-flush, or inside any step of the commit
//      protocol itself (each unsynced write independently vanishes, lands
//      whole, or lands torn).
//   4. Reopens the platter image, recovers, and requires:
//        - recovery lands on the last acknowledged generation, or on the
//          in-flight one if the crash hit after its publish became durable;
//        - boxagg_fsck-level verification is clean (checksums, epochs,
//          every tree's structural invariants, allocation accounting);
//        - every dominance sum over each recovered tree equals the oracle
//          for the recovered generation, exactly (values are integers, so
//          sums are exact in double arithmetic).
//
// The final stdout line is one JSON object summarizing the run (iteration
// count, where the power cuts landed, which generation recovery landed on,
// and how many oracle checks the recovery pass executed) — jq-friendly.
//
// --iters and --seed take a plain decimal value; anything else (a sign,
// trailing characters, overflow), like an unknown flag, prints the usage
// text and exits 2. Otherwise the exit status is 0 iff every iteration
// passes.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "bptree/agg_btree.h"
#include "check/checkable.h"
#include "check/fsck.h"
#include "core/bag_file.h"
#include "ecdf/ecdf_btree.h"
#include "obs/logger.h"
#include "parse_number.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"

using namespace boxagg;

namespace {

constexpr int kDims = 2;
constexpr uint32_t kNumRoots = 3;  // agg-btree, ecdf-btree, ba-tree

struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Integer-valued double: oracle sums stay exact (no rounding order
  /// sensitivity), so recovered trees must match the oracle bit-for-bit.
  double Int(uint64_t n) { return static_cast<double>(Below(n)); }
};

struct PointEntryV {
  Point p;
  double v = 0;
};

/// Everything inserted up to one published generation.
struct Oracle {
  std::vector<std::pair<double, double>> agg;  // key, value
  std::vector<PointEntryV> ecdf;
  std::vector<PointEntryV> ba;
};

double AggOracleSum(const std::vector<std::pair<double, double>>& es,
                    double q) {
  double s = 0;
  for (const auto& [k, v] : es) {
    if (k <= q) s += v;
  }
  return s;
}

double PointOracleSum(const std::vector<PointEntryV>& es, const Point& q) {
  double s = 0;
  for (const auto& e : es) {
    bool dom = true;
    for (int d = 0; d < kDims; ++d) dom = dom && e.p[d] <= q[d];
    if (dom) s += e.v;
  }
  return s;
}

/// fsck root checker matching this harness's tree layout.
Status TortureRootChecker(BufferPool* pool, uint32_t dims, size_t index,
                          PageId root, CheckContext* ctx) {
  switch (index) {
    case 0:
      return AggBTree<double>(pool, root).CheckConsistency(ctx);
    case 1:
      return EcdfBTree<double>(pool, static_cast<int>(dims),
                               EcdfVariant::kUpdateOptimized, root)
          .CheckConsistency(ctx);
    case 2:
      return PackedBaTree<double>(pool, static_cast<int>(dims), root)
          .CheckConsistency(ctx);
    default:
      return Status::Corruption("unexpected root index");
  }
}

int Fail(uint64_t seed, const std::string& what) {
  obs::LogError("crash_torture: seed %" PRIu64 ": %s", seed, what.c_str());
  return 1;
}

/// Run-wide tallies for the final JSON summary line.
struct TortureStats {
  uint64_t iterations = 0;
  uint64_t crash_mid_run = 0;     // scheduled cut fired during the workload
  uint64_t crash_end_of_run = 0;  // cut resolved at end-of-run power cut
  uint64_t recovered_acked = 0;      // recovery landed on the acked gen
  uint64_t recovered_in_flight = 0;  // ... on the interrupted commit's gen
  uint64_t recovery_oracle_checks = 0;
};

int RunIteration(uint64_t seed, bool verbose, TortureStats* stats) {
  FaultInjectingPageFile phys(kDefaultPageSize, seed);
  std::unique_ptr<BagFile> bag;
  if (Status st = BagFile::Create(&phys, kDims, kNumRoots, &bag); !st.ok()) {
    return Fail(seed, "create: " + st.ToString());
  }

  Rng rng{seed ^ 0xc7a5c7a5c7a5c7a5ull};
  std::map<uint64_t, Oracle> by_generation;
  by_generation[0] = Oracle{};  // generation 0: empty
  Oracle cur;
  uint64_t acked = 0;
  uint64_t in_flight = 0;  // 0 = no commit was interrupted

  // The whole workload runs ~25-50 physical I/Os (the pool absorbs the
  // inserts; only flushes and commits hit the store), so a point in
  // [1, 60] usually lands the cut mid-flush or inside the commit protocol
  // itself, and sometimes after the final commit (exercising the no-crash
  // path and the end-of-run power cut).
  const uint64_t crash_at = 1 + rng.Below(60);
  phys.ScheduleCrashAtIo(crash_at);

  {
    BufferPool pool(bag.get(),
                    BufferPool::CapacityForMegabytes(1, kDefaultPageSize));
    AggBTree<double> agg(&pool);
    EcdfBTree<double> ecdf(&pool, kDims, EcdfVariant::kUpdateOptimized);
    PackedBaTree<double> ba(&pool, kDims);

    const int n_batches = 3 + static_cast<int>(rng.Below(3));
    bool down = false;
    for (int b = 0; b < n_batches && !down; ++b) {
      const int n_inserts = 20 + static_cast<int>(rng.Below(30));
      for (int i = 0; i < n_inserts && !down; ++i) {
        const double key = rng.Int(500);
        const double kv = 1 + rng.Int(9);
        const Point ep(rng.Int(100), rng.Int(100));
        const double ev = 1 + rng.Int(9);
        const Point bp(rng.Int(100), rng.Int(100));
        const double bv = 1 + rng.Int(9);
        if (!agg.Insert(key, kv).ok() || !ecdf.Insert(ep, ev).ok() ||
            !ba.Insert(bp, bv).ok()) {
          down = true;
          break;
        }
        cur.agg.emplace_back(key, kv);
        cur.ecdf.push_back({ep, ev});
        cur.ba.push_back({bp, bv});
      }
      if (down) break;
      if (!pool.FlushAll().ok()) {
        down = true;
        break;
      }
      // From here the commit itself may be interrupted — and may still
      // have become durable, so its oracle must be on file either way.
      const uint64_t candidate = bag->generation() + 1;
      by_generation[candidate] = cur;
      if (bag->Commit({agg.root(), ecdf.root(), ba.root()}).ok()) {
        acked = candidate;
      } else {
        in_flight = candidate;
        down = true;
      }
    }
    if (down && !phys.crashed()) {
      return Fail(seed, "workload failed without a crash");
    }
  }
  // Power cut at end-of-run if the scheduled point was never reached:
  // whatever sits unsynced in the simulated OS cache is resolved now.
  if (phys.crashed()) {
    ++stats->crash_mid_run;
  } else {
    ++stats->crash_end_of_run;
    phys.Crash();
  }
  phys.Reopen();

  // fsck IS recovery (it opens the store the same way any reader would),
  // with this harness's tree layout plugged in as the root checker.
  FsckOptions fsck_opts;
  fsck_opts.check_oracle = true;
  fsck_opts.strict_stale = true;  // no lost writes are tolerable here
  FsckReport fsck_report;
  if (Status st =
          FsckBag(&phys, fsck_opts, &fsck_report, TortureRootChecker);
      !st.ok()) {
    return Fail(seed, "fsck after crash at io " + std::to_string(crash_at) +
                          ": " + st.ToString());
  }
  const uint64_t recovered = fsck_report.generation;
  if (recovered == acked) {
    ++stats->recovered_acked;
  } else if (in_flight != 0 && recovered == in_flight) {
    ++stats->recovered_in_flight;
  }
  if (recovered != acked && !(in_flight != 0 && recovered == in_flight)) {
    return Fail(seed, "recovered to generation " + std::to_string(recovered) +
                          ", expected " + std::to_string(acked) +
                          (in_flight != 0
                               ? " or " + std::to_string(in_flight)
                               : ""));
  }

  // Durability oracle: every dominance sum over the recovered trees must
  // equal the oracle of the recovered generation exactly.
  std::unique_ptr<BagFile> rec;
  if (Status st = BagFile::Open(&phys, &rec); !st.ok()) {
    return Fail(seed, "reopen: " + st.ToString());
  }
  const Oracle& oracle = by_generation.at(recovered);
  BufferPool pool(rec.get(),
                  BufferPool::CapacityForMegabytes(1, kDefaultPageSize));
  AggBTree<double> agg(&pool, rec->roots()[0]);
  EcdfBTree<double> ecdf(&pool, kDims, EcdfVariant::kUpdateOptimized,
                         rec->roots()[1]);
  PackedBaTree<double> ba(&pool, kDims, rec->roots()[2]);
  const double inf = std::numeric_limits<double>::infinity();
  for (int probe = 0; probe < 8; ++probe) {
    // Probe 0 is the whole space (total sum); the rest are random corners.
    const double qk = probe == 0 ? inf : rng.Int(600);
    const Point qp = probe == 0 ? Point(inf, inf)
                                : Point(rng.Int(120), rng.Int(120));
    double got = 0;
    if (Status st = agg.DominanceSum(std::min(qk, 1e300), &got); !st.ok()) {
      return Fail(seed, "agg query: " + st.ToString());
    }
    if (got != AggOracleSum(oracle.agg, qk)) {
      return Fail(seed, "agg sum mismatch at generation " +
                            std::to_string(recovered));
    }
    if (Status st = ecdf.DominanceSum(qp, &got); !st.ok()) {
      return Fail(seed, "ecdf query: " + st.ToString());
    }
    if (got != PointOracleSum(oracle.ecdf, qp)) {
      return Fail(seed, "ecdf sum mismatch at generation " +
                            std::to_string(recovered));
    }
    if (Status st = ba.DominanceSum(qp, &got); !st.ok()) {
      return Fail(seed, "ba query: " + st.ToString());
    }
    if (got != PointOracleSum(oracle.ba, qp)) {
      return Fail(seed, "ba sum mismatch at generation " +
                            std::to_string(recovered));
    }
    ++stats->recovery_oracle_checks;
  }
  ++stats->iterations;

  if (verbose) {
    obs::LogInfo("seed %" PRIu64 ": crash at io %" PRIu64
                 ", recovered generation %" PRIu64 " (acked %" PRIu64
                 "%s), %" PRIu64 " entries",
                 seed, crash_at, recovered, acked,
                 in_flight != 0 ? ", commit in flight" : "",
                 static_cast<uint64_t>(oracle.agg.size()));
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: crash_torture [--iters N] [--seed S] [--verbose]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t iters = 100;
  uint64_t seed = 1;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      if (!ParseUnsigned(argv[++i], &iters)) return Usage();
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!ParseUnsigned(argv[++i], &seed)) return Usage();
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      return Usage();
    }
  }
  TortureStats stats;
  for (uint64_t i = 0; i < iters; ++i) {
    if (RunIteration(seed + i, verbose, &stats) != 0) return 1;
    if (!verbose && iters >= 20 && (i + 1) % (iters / 10) == 0) {
      obs::LogInfo("crash_torture: %" PRIu64 "/%" PRIu64 " iterations ok",
                   i + 1, iters);
    }
  }
  obs::LogInfo("crash_torture: all %" PRIu64 " iterations passed", iters);
  // Machine-readable run summary: exactly one stdout line, one JSON object.
  std::printf(
      "{\"tool\":\"crash_torture\",\"status\":\"pass\",\"iterations\":%" PRIu64
      ",\"crash_mid_run\":%" PRIu64 ",\"crash_end_of_run\":%" PRIu64
      ",\"recovered_acked\":%" PRIu64 ",\"recovered_in_flight\":%" PRIu64
      ",\"recovery_oracle_checks\":%" PRIu64 "}\n",
      stats.iterations, stats.crash_mid_run, stats.crash_end_of_run,
      stats.recovered_acked, stats.recovered_in_flight,
      stats.recovery_oracle_checks);
  return 0;
}
