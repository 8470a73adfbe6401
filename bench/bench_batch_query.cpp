// Batched query execution: I/O count and wall-clock of BoxSumIndex::
// QueryBatch at batch sizes 1/16/256/4096 versus the per-query path, for the
// three corner-transform backends (ECDF-Bu, ECDF-Bq, packed BA-tree).
//
// The per-query reference is the per-corner read path — 2^d independent
// DominanceSum probes per query, no corner dedup — measured cold.
// DominanceSum is a one-probe DominanceSumBatch, so the reference and every
// batched run share one descent per structure. Every batched run must be
// byte-identical to it, batch=1 must read exactly its logical AND physical
// I/O counts (a same-path consistency check), and batch>=16 must show a
// measurable logical-fetch reduction; any violation exits 1. The fidelity
// guard against the seed's I/O is the committed baseline below. Batched
// runs at batch>1 additionally pin the 2^d sign-index roots for the duration
// of the run (a prefetch hint: shared path pages stay resident under
// eviction pressure).
//
// A final pass per backend fans morsels of 256 sorted queries out over
// ParallelQueryExecutor::RunBatchGrouped and re-verifies byte-identity.
//
// Output: a table plus one "JSON "-prefixed line per (backend, batch) with
// the buffer-pool delta (logical/physical/hit-rate/probes-saved), and one
// "BASELINE" line per backend with the batch=1 I/O counts — the
// batch1_io_small ctest (and batch1_io_small_obs, with BOXAGG_OBS=1) diffs
// these against bench/baselines/batch1_io_small.txt, recorded from the
// seed's sequential descent, to catch read-path drift.

#include <chrono>
#include <cstring>

#include "batree/packed_ba_tree.h"
#include "bench/suite.h"
#include "core/box_sum_index.h"
#include "ecdf/ecdf_btree.h"
#include "exec/parallel_executor.h"
#include "exec/query_adapters.h"

using namespace boxagg;
using namespace boxagg::bench;

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// The per-corner read path: 2^d independent one-probe dominance sums, no
// corner dedup. This is the oracle every batched run is compared against,
// arithmetic and I/O both.
template <class Index>
Status SeedPathQuery(BoxSumIndex<Index>* index, const Box& q, double* out) {
  *out = 0;
  for (uint32_t s = 0; s < index->index_count(); ++s) {
    double part;
    BOXAGG_RETURN_NOT_OK(index->index(s).DominanceSum(
        QueryCorner(q, s, index->dims()), &part));
    *out += MaskSign(s) * part;
  }
  return Status::OK();
}

template <class Index>
void RunBackend(const char* name, const Config& cfg, Storage* storage,
                BoxSumIndex<Index>* index, const std::vector<Box>& queries,
                bool* ok) {
  BufferPool* pool = storage->pool();
  const size_t nq = queries.size();

  // Per-query reference, cold.
  DieIf(pool->Reset(), "reset");
  const IoStats ref0 = pool->stats();
  auto rt0 = Clock::now();
  std::vector<double> oracle(nq);
  for (size_t i = 0; i < nq; ++i) {
    DieIf(SeedPathQuery(index, queries[i], &oracle[i]), "per-query oracle");
  }
  const double ref_wall = MillisSince(rt0);
  const IoStats ref = pool->stats().Since(ref0);

  obs::LogInfo("%s: %zu queries, per-query path: logical=%llu physical=%llu "
               "wall=%.2fms",
               name, nq, static_cast<unsigned long long>(ref.logical_reads),
               static_cast<unsigned long long>(ref.physical_reads), ref_wall);
  obs::LogInfo("  %-8s %12s %12s %10s %12s %10s", "batch", "logical",
               "physical", "hit_rate", "saved", "wall_ms");

  for (size_t batch : {size_t{1}, size_t{16}, size_t{256}, size_t{4096}}) {
    if (batch > nq) continue;
    DieIf(pool->Reset(), "reset");
    const IoStats b0 = pool->stats();
    auto t0 = Clock::now();
    std::vector<PageGuard> pins;
    if (batch > 1) {
      // Prefetch hint: keep the 2^d sign-index roots pinned for the whole
      // run. Skipped at batch=1 so its I/O stays the per-corner path's.
      for (uint32_t s = 0; s < index->index_count(); ++s) {
        const PageId root = index->index(s).root();
        if (root == kInvalidPageId) continue;
        PageGuard g;
        DieIf(pool->Fetch(root, &g), "prefetch sign-index roots");
        pins.push_back(std::move(g));
      }
    }
    std::vector<double> results(nq);
    for (size_t lo = 0; lo < nq; lo += batch) {
      const size_t cnt = std::min(batch, nq - lo);
      DieIf(index->QueryBatch(queries.data() + lo, cnt, results.data() + lo),
            "batched query");
    }
    pins.clear();
    const double wall = MillisSince(t0);
    const IoStats d = pool->stats().Since(b0);

    if (std::memcmp(results.data(), oracle.data(), nq * sizeof(double)) !=
        0) {
      std::fprintf(stderr,
                   "%s: batch=%zu results diverge from per-query oracle!\n",
                   name, batch);
      *ok = false;
    }
    if (batch == 1) {
      if (d.logical_reads != ref.logical_reads ||
          d.physical_reads != ref.physical_reads) {
        std::fprintf(
            stderr,
            "%s: batch=1 I/O differs from the per-corner path: "
            "logical %llu != %llu or physical %llu != %llu\n",
            name, static_cast<unsigned long long>(d.logical_reads),
            static_cast<unsigned long long>(ref.logical_reads),
            static_cast<unsigned long long>(d.physical_reads),
            static_cast<unsigned long long>(ref.physical_reads));
        *ok = false;
      }
      std::printf("BASELINE backend=%s batch=1 logical=%llu physical=%llu\n",
                  name, static_cast<unsigned long long>(d.logical_reads),
                  static_cast<unsigned long long>(d.physical_reads));
    } else if (batch >= 16 && d.logical_reads >= ref.logical_reads) {
      std::fprintf(stderr,
                   "%s: batch=%zu shows no logical-fetch reduction "
                   "(%llu >= %llu)\n",
                   name, batch,
                   static_cast<unsigned long long>(d.logical_reads),
                   static_cast<unsigned long long>(ref.logical_reads));
      *ok = false;
    }

    obs::LogInfo("  %-8zu %12llu %12llu %9.1f%% %12llu %10.2f", batch,
                 static_cast<unsigned long long>(d.logical_reads),
                 static_cast<unsigned long long>(d.physical_reads),
                 100.0 * d.HitRate(),
                 static_cast<unsigned long long>(d.probe_fetches_saved), wall);
    std::printf(
        "JSON {\"bench\":\"batch_query\",\"backend\":\"%s\",\"batch\":%zu,"
        "\"n\":%zu,\"queries\":%zu,\"logical\":%llu,\"physical\":%llu,"
        "\"buffer_hits\":%llu,\"hit_rate\":%.4f,\"probes_saved\":%llu,"
        "\"wall_ms\":%.3f,\"ref_logical\":%llu,\"ref_physical\":%llu,"
        "\"logical_reduction\":%.4f,%s}\n",
        name, batch, cfg.n, nq,
        static_cast<unsigned long long>(d.logical_reads),
        static_cast<unsigned long long>(d.physical_reads),
        static_cast<unsigned long long>(d.buffer_hits), d.HitRate(),
        static_cast<unsigned long long>(d.probe_fetches_saved), wall,
        static_cast<unsigned long long>(ref.logical_reads),
        static_cast<unsigned long long>(ref.physical_reads),
        ref.logical_reads > 0
            ? 1.0 - static_cast<double>(d.logical_reads) /
                        static_cast<double>(ref.logical_reads)
            : 0.0,
        JsonRunMeta(cfg).c_str());
  }

  // Morsel-partitioned parallel execution: contiguous runs of 256 queries
  // per QueryBatch call, claimed by executor workers.
  {
    exec::ParallelQueryExecutor executor(cfg.threads);
    exec::BatchQueryFn bfn = exec::BoxSumBatchQueryFn(index);
    DieIf(pool->Reset(), "reset");
    std::vector<double> results;
    exec::BatchExecStats st;
    const IoStats g0 = pool->stats();
    DieIf(executor.RunBatchGrouped(bfn, queries, 256, &results, &st),
          "grouped parallel batch");
    const IoStats g = pool->stats().Since(g0);
    if (std::memcmp(results.data(), oracle.data(), nq * sizeof(double)) !=
        0) {
      std::fprintf(stderr, "%s: RunBatchGrouped diverges from oracle!\n",
                   name);
      *ok = false;
    }
    std::printf(
        "JSON {\"bench\":\"batch_query_grouped\",\"backend\":\"%s\","
        "\"threads\":%zu,\"morsel\":256,\"morsels\":%zu,\"queries\":%zu,"
        "\"logical\":%llu,\"physical\":%llu,\"hit_rate\":%.4f,"
        "\"probes_saved\":%llu,\"wall_ms\":%.3f,\"queries_per_sec\":%.1f,"
        "%s}\n",
        name, st.threads, st.morsels, st.queries,
        static_cast<unsigned long long>(g.logical_reads),
        static_cast<unsigned long long>(g.physical_reads), g.HitRate(),
        static_cast<unsigned long long>(g.probe_fetches_saved),
        st.wall_ms, st.queries_per_sec, JsonRunMeta(cfg).c_str());
  }

  const IoStats end = pool->stats();
  if (end.logical_reads != end.buffer_hits + end.physical_reads) {
    std::fprintf(stderr, "%s: IoStats invariant violated\n", name);
    *ok = false;
  }
}

}  // namespace

int main() {
  Config cfg = Config::FromEnv();
  // Large default batch so the 4096 measurement point exists.
  if (!std::getenv("BOXAGG_QUERIES")) cfg.queries = 4096;
  // Human-readable output goes to stderr via the logger; stdout carries only
  // the machine-readable BASELINE and JSON lines that the ctests read.
  cfg.Log("Batched query execution: I/O and wall-clock vs batch size");

  workload::RectConfig rc;
  rc.n = cfg.n;
  rc.seed = cfg.seed;
  auto objects = workload::UniformRects(rc);
  auto queries = workload::QueryBoxes(cfg.queries, 0.0001, cfg.seed + 7);

  bool ok = true;
  {
    Storage storage(cfg, "batch_ecdfu");
    BoxSumIndex<EcdfBTree<double>> index(2, [&] {
      return EcdfBTree<double>(storage.pool(), 2,
                               EcdfVariant::kUpdateOptimized);
    });
    DieIf(index.BulkLoad(objects), "ECDFu bulk load");
    DieIf(storage.pool()->FlushAll(), "flush");
    RunBackend("ecdfu", cfg, &storage, &index, queries, &ok);
  }
  {
    Storage storage(cfg, "batch_ecdfq");
    BoxSumIndex<EcdfBTree<double>> index(2, [&] {
      return EcdfBTree<double>(storage.pool(), 2,
                               EcdfVariant::kQueryOptimized);
    });
    DieIf(index.BulkLoad(objects), "ECDFq bulk load");
    DieIf(storage.pool()->FlushAll(), "flush");
    RunBackend("ecdfq", cfg, &storage, &index, queries, &ok);
  }
  {
    Storage storage(cfg, "batch_bat");
    BoxSumIndex<PackedBaTree<double>> index(
        2, [&] { return PackedBaTree<double>(storage.pool(), 2); });
    DieIf(index.BulkLoad(objects), "BA-tree bulk load");
    DieIf(storage.pool()->FlushAll(), "flush");
    RunBackend("bat", cfg, &storage, &index, queries, &ok);
  }
  return ok ? 0 : 1;
}
