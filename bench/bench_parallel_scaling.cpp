// Parallel query scaling: queries/sec and speedup of a batch of box-sum
// queries fanned out over the ParallelQueryExecutor at 1/2/4/8 worker
// threads, against a warm MemPageFile-backed BA-tree (the paper's main
// index) behind a sharded BufferPool.
//
// The batch is the same workload as the sequential benches (uniform rects,
// random square queries); a sequential pass both warms the buffer pool and
// produces the oracle that every parallel run must match byte-for-byte.
// Output: the usual table, plus one JSON line per thread count (prefix
// "JSON ") so harnesses can scrape machine-readable results alongside the
// existing suite.
//
// Extra knobs (on top of bench/common.h): BOXAGG_SHARDS (default 8 here —
// this bench exists to exercise the concurrent pool), BOXAGG_THREADS (max
// thread count measured, default 8).

#include <algorithm>
#include <cstring>

#include "batree/packed_ba_tree.h"
#include "bench/suite.h"
#include "core/box_sum_index.h"
#include "exec/parallel_executor.h"
#include "exec/query_adapters.h"

using namespace boxagg;
using namespace boxagg::bench;

int main() {
  Config cfg = Config::FromEnv();
  if (!std::getenv("BOXAGG_SHARDS")) cfg.shards = 8;
  // Human-readable output goes to stderr via the logger; stdout carries only
  // the machine-readable JSON lines that harnesses scrape.
  cfg.Log("Parallel scaling: box-sum queries/sec vs worker threads");

  workload::RectConfig rc;
  rc.n = cfg.n;
  rc.seed = cfg.seed;
  auto objects = workload::UniformRects(rc);
  auto queries = workload::QueryBoxes(cfg.queries, 0.0001, cfg.seed + 7);

  Storage storage(cfg, "parallel_bat");
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(storage.pool(), 2); });
  DieIf(index.BulkLoad(objects), "BA-tree bulk load");
  DieIf(storage.pool()->FlushAll(), "flush");

  exec::BatchQueryFn fn = exec::BoxSumBatchQueryFn(&index);

  // Sequential warm-up pass: fills the LRU and records the oracle answers.
  std::vector<double> oracle(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    DieIf(index.Query(queries[i], &oracle[i]), "sequential oracle query");
  }

  IoStats warm = storage.pool()->stats();
  obs::LogInfo("index: %zu objects, %.2f MB, warm (%llu physical reads "
               "during build+warmup)",
               objects.size(), storage.SizeMb(),
               static_cast<unsigned long long>(warm.physical_reads));
  obs::LogInfo("  %-8s %14s %12s %10s %12s %12s", "threads", "queries/s",
               "wall_ms", "speedup", "p50_us", "p99_us");

  double base_qps = 0;
  bool ok = true;
  for (size_t threads = 1; threads <= cfg.threads; threads *= 2) {
    exec::ParallelQueryExecutor executor(threads);
    // Measure the best of 3 runs to damp scheduler noise.
    exec::BatchExecStats best{};
    std::vector<double> results;
    for (int rep = 0; rep < 3; ++rep) {
      exec::BatchExecStats st;
      // morsel=1: one query per claim, so the morsel latency percentiles
      // are per-query latencies.
      DieIf(executor.RunBatchGrouped(fn, queries, /*morsel=*/1, &results, &st),
            "parallel batch");
      if (st.queries_per_sec > best.queries_per_sec) best = st;
      // Byte-identical to the sequential oracle, every repetition.
      if (std::memcmp(results.data(), oracle.data(),
                      results.size() * sizeof(double)) != 0) {
        std::fprintf(stderr, "parallel results diverge from oracle at "
                             "%zu threads!\n", threads);
        ok = false;
      }
    }
    if (threads == 1) base_qps = best.queries_per_sec;
    double speedup = base_qps > 0 ? best.queries_per_sec / base_qps : 0;
    obs::LogInfo("  %-8zu %14.0f %12.3f %9.2fx %12.1f %12.1f", threads,
                 best.queries_per_sec, best.wall_ms, speedup,
                 best.latency_p50_us, best.latency_p99_us);
    std::printf(
        "JSON {\"bench\":\"parallel_scaling\",\"threads\":%zu,\"shards\":%zu,"
        "\"n\":%zu,\"queries\":%zu,\"queries_per_sec\":%.1f,\"wall_ms\":%.3f,"
        "\"speedup\":%.3f,\"latency_p50_us\":%.1f,\"latency_p95_us\":%.1f,"
        "\"latency_p99_us\":%.1f,\"latency_max_us\":%.1f,%s}\n",
        threads, cfg.shards, cfg.n, queries.size(), best.queries_per_sec,
        best.wall_ms, speedup, best.latency_p50_us, best.latency_p95_us,
        best.latency_p99_us, best.latency_max_us,
        JsonRunMeta(cfg).c_str());
  }

  // The warm read path must stay logically consistent under concurrency.
  IoStats end = storage.pool()->stats();
  if (end.logical_reads != end.buffer_hits + end.physical_reads) {
    std::fprintf(stderr, "IoStats invariant violated: logical=%llu hits=%llu "
                         "physical=%llu\n",
                 static_cast<unsigned long long>(end.logical_reads),
                 static_cast<unsigned long long>(end.buffer_hits),
                 static_cast<unsigned long long>(end.physical_reads));
    ok = false;
  }
  return ok ? 0 : 1;
}
