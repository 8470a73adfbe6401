// Compressed read-replica experiment: freeze the 2-d corner-transform
// BA-tree index into compact replica segments and measure, in ONE run over
// binaries-identical inputs:
//
//   size      pages and bytes-per-object, replica vs live packed BA-trees
//             (the Fig. 9a axis; the bench asserts >= 3x smaller)
//   io        cold-pool physical reads and hit rate for a fig9b-style query
//             batch at a 10 MB and at a 1 MB buffer, both backends (the
//             replica must do strictly fewer physical reads at 1 MB)
//   identity  replica batch results byte-compared against the live tree's
//             (FP addition order is preserved, so equality is exact)
//
// Each io batch is timed kTimedRuns times, each run on a freshly reset
// pool; wall_ms is the median run and wall_ms_min the fastest. Every run
// must make the same I/O and return the same answer bytes.
//
// Any identity or invariant violation exits 1. Output: stderr carries the
// human-readable table; stdout carries one "JSON "-prefixed line per record,
// mirrored to $BOXAGG_BENCH_DIR/BENCH_replica.json (one object per line),
// which tools/perf_gate.py compares with results/BENCH_replica.json, and two
// "BASELINE" page-count lines that the replica_pages_small ctest diffs
// against bench/baselines/replica_pages_small.txt.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "bench/suite.h"
#include "core/box_sum_index.h"
#include "replica/compact_replica.h"
#include "replica/replica_builder.h"

using namespace boxagg;
using namespace boxagg::bench;

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct IoRun {
  IoStats d;
  double wall_ms = 0;      // median of the timed runs
  double wall_ms_min = 0;  // fastest timed run
};

/// Timed runs per io batch: one cold run swings too widely to compare
/// wall times between builds, so each batch is repeated and its median kept.
constexpr int kTimedRuns = 5;

/// Cold-pool query batch, kTimedRuns times: each run resets the pool to a
/// fresh LRU of `buffer_mb` and makes one QueryBatch over all queries (the
/// LRU warms up across the batch exactly as in the paper's buffer
/// experiments). The runs must agree on the IoStats delta and the answer
/// bytes, or the bench exits 1. Results land in *out for the identity
/// check.
template <class Index>
IoRun MeasureBatch(BoxSumIndex<Index>* index, BufferPool* pool,
                   const std::vector<Box>& queries,
                   std::vector<double>* out) {
  IoRun run;
  std::vector<double> walls;
  std::vector<double> answers(queries.size());
  for (int r = 0; r < kTimedRuns; ++r) {
    std::fill(answers.begin(), answers.end(), 0.0);
    DieIf(pool->Reset(), "pool reset");
    const IoStats before = pool->stats();
    auto t0 = Clock::now();
    DieIf(index->QueryBatch(queries.data(), queries.size(), answers.data()),
          "query batch");
    walls.push_back(MillisSince(t0));
    const IoStats d = pool->stats().Since(before);
    if (r == 0) {
      run.d = d;
      *out = answers;
    } else if (std::memcmp(&d, &run.d, sizeof(IoStats)) != 0 ||
               std::memcmp(answers.data(), out->data(),
                           answers.size() * sizeof(double)) != 0) {
      std::fprintf(stderr, "timed run %d of a query batch differs from run 0 "
                           "in its I/O or its answers\n", r);
      std::exit(1);
    }
  }
  std::sort(walls.begin(), walls.end());
  run.wall_ms = walls[kTimedRuns / 2];
  run.wall_ms_min = walls.front();
  return run;
}

void EmitIo(JsonSink* sink, const Config& cfg, const char* backend,
            size_t buffer_mb, size_t queries, const IoRun& run) {
  const double hit_rate =
      run.d.logical_reads == 0
          ? 0.0
          : static_cast<double>(run.d.buffer_hits) /
                static_cast<double>(run.d.logical_reads);
  obs::LogInfo("  %-7s buffer=%2zuMB: physical=%llu logical=%llu "
               "hit_rate=%.3f wall=%.1fms (min %.1fms)",
               backend, buffer_mb,
               static_cast<unsigned long long>(run.d.physical_reads),
               static_cast<unsigned long long>(run.d.logical_reads), hit_rate,
               run.wall_ms, run.wall_ms_min);
  sink->Emit(Fmt("{\"bench\":\"replica\",\"record\":\"io\","
                 "\"backend\":\"%s\",\"io_buffer_mb\":%zu,\"queries\":%zu,"
                 "\"physical_reads\":%llu,\"logical_reads\":%llu,"
                 "\"buffer_hits\":%llu,\"hit_rate\":%.4f,\"wall_ms\":%.3f,"
                 "\"wall_ms_min\":%.3f,%s}",
                 backend, buffer_mb, queries,
                 static_cast<unsigned long long>(run.d.physical_reads),
                 static_cast<unsigned long long>(run.d.logical_reads),
                 static_cast<unsigned long long>(run.d.buffer_hits), hit_rate,
                 run.wall_ms, run.wall_ms_min, JsonRunMeta(cfg).c_str()));
}

}  // namespace

int main() {
  Config cfg = Config::FromEnv();
  cfg.Log("Compressed read replicas: size ratio, physical I/O, identity");

  bool ok = true;
  JsonSink sink("BENCH_replica.json");

  workload::RectConfig rc;
  rc.n = cfg.n;
  rc.seed = cfg.seed;
  const auto objects = workload::UniformRects(rc);
  const auto queries = workload::QueryBoxes(cfg.queries, 0.0001, cfg.seed + 7);

  // Build the live trees and their replica snapshots into one page file;
  // I/O runs below re-open it under differently sized cold pools.
  MemPageFile file(cfg.page_size);
  std::vector<PageId> live_roots, rep_roots;
  uint64_t live_pages = 0, rep_pages = 0;
  double build_ms = 0;
  {
    BufferPool build_pool(&file,
                          BufferPool::CapacityForMegabytes(64, cfg.page_size),
                          cfg.shards);
    BoxSumIndex<PackedBaTree<double>> live(
        2, [&] { return PackedBaTree<double>(&build_pool, 2); });
    DieIf(live.BulkLoad(objects), "bulk load");
    DieIf(live.PageCount(&live_pages), "live page count");
    ReplicaBuilder<double> builder(&build_pool);
    auto t0 = Clock::now();
    for (uint32_t s = 0; s < live.index_count(); ++s) {
      PageId root = kInvalidPageId;
      DieIf(builder.Build(live.index(s), &root), "replica build");
      rep_roots.push_back(root);
      live_roots.push_back(live.index(s).root());
    }
    build_ms = MillisSince(t0);
    for (PageId root : rep_roots) {
      CompactReplica<double> rep(&build_pool, 2, root);
      DieIf(rep.Open(), "replica open");
      uint64_t pages = 0;
      DieIf(rep.PageCount(&pages), "replica page count");
      rep_pages += pages;
    }
    DieIf(build_pool.FlushAll(), "flush");
  }

  const double ratio = rep_pages == 0
                           ? 0.0
                           : static_cast<double>(live_pages) /
                                 static_cast<double>(rep_pages);
  const double bat_bpo = static_cast<double>(live_pages) * cfg.page_size /
                         static_cast<double>(cfg.n);
  const double rep_bpo = static_cast<double>(rep_pages) * cfg.page_size /
                         static_cast<double>(cfg.n);
  obs::LogInfo("  size: bat=%llu pages (%.1f B/obj)  replica=%llu pages "
               "(%.1f B/obj)  ratio=%.2fx  build=%.1fms",
               static_cast<unsigned long long>(live_pages), bat_bpo,
               static_cast<unsigned long long>(rep_pages), rep_bpo, ratio,
               build_ms);
  sink.Emit(Fmt("{\"bench\":\"replica\",\"record\":\"size\",\"n\":%zu,"
                "\"bat_pages\":%llu,\"replica_pages\":%llu,"
                "\"bat_bytes_per_object\":%.2f,"
                "\"replica_bytes_per_object\":%.2f,\"ratio_vs_bat\":%.3f,"
                "\"build_ms\":%.3f,%s}",
                cfg.n, static_cast<unsigned long long>(live_pages),
                static_cast<unsigned long long>(rep_pages), bat_bpo, rep_bpo,
                ratio, build_ms, JsonRunMeta(cfg).c_str()));
  // Exact page counts for the replica-page golden (bench/baselines).
  std::printf("BASELINE backend=bat pages=%llu\n",
              static_cast<unsigned long long>(live_pages));
  std::printf("BASELINE backend=replica pages=%llu\n",
              static_cast<unsigned long long>(rep_pages));
  if (ratio < 3.0) {
    std::fprintf(stderr,
                 "replica is only %.2fx smaller than the live trees "
                 "(gate: >= 3x)\n",
                 ratio);
    ok = false;
  }

  // Cold-pool I/O, both backends, at the paper buffer and a starved one.
  bool identity = true;
  std::vector<double> bat_results, rep_results;
  for (size_t buffer_mb : {size_t{10}, size_t{1}}) {
    IoRun bat_run, rep_run;
    {
      BufferPool pool(&file,
                      BufferPool::CapacityForMegabytes(buffer_mb,
                                                       cfg.page_size),
                      cfg.shards);
      uint32_t next = 0;
      BoxSumIndex<PackedBaTree<double>> index(2, [&] {
        return PackedBaTree<double>(&pool, 2, live_roots[next++]);
      });
      bat_run = MeasureBatch(&index, &pool, queries, &bat_results);
    }
    {
      BufferPool pool(&file,
                      BufferPool::CapacityForMegabytes(buffer_mb,
                                                       cfg.page_size),
                      cfg.shards);
      uint32_t next = 0;
      BoxSumIndex<CompactReplica<double>> index(2, [&] {
        return CompactReplica<double>(&pool, 2, rep_roots[next++]);
      });
      for (uint32_t s = 0; s < index.index_count(); ++s) {
        DieIf(index.index(s).Open(), "replica open");
      }
      rep_run = MeasureBatch(&index, &pool, queries, &rep_results);
    }
    EmitIo(&sink, cfg, "bat", buffer_mb, queries.size(), bat_run);
    EmitIo(&sink, cfg, "replica", buffer_mb, queries.size(), rep_run);
    if (std::memcmp(bat_results.data(), rep_results.data(),
                    queries.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "replica results diverge from the live tree at %zu MB\n",
                   buffer_mb);
      identity = false;
    }
    if (buffer_mb == 1 &&
        rep_run.d.physical_reads >= bat_run.d.physical_reads) {
      std::fprintf(stderr,
                   "replica did %llu physical reads vs bat %llu at 1 MB "
                   "(gate: strictly fewer)\n",
                   static_cast<unsigned long long>(rep_run.d.physical_reads),
                   static_cast<unsigned long long>(bat_run.d.physical_reads));
      ok = false;
    }
  }
  sink.Emit(Fmt("{\"bench\":\"replica\",\"record\":\"identity\","
                "\"match\":%s,\"queries\":%zu,%s}",
                identity ? "true" : "false", queries.size(),
                JsonRunMeta(cfg).c_str()));
  if (!identity) ok = false;
  return ok ? 0 : 1;
}
