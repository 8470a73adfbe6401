// ParallelQueryExecutor: fans a batch of independent box queries out across
// a ThreadPool and collects per-query results plus aggregate latency and
// throughput statistics.
//
// This is the concurrent read path motivated by the paper's experiments
// (Sec. 6 replays large batches of independent box-sum queries against a
// read-mostly index). Queries are pure reads: the only shared mutable state
// they touch is the sharded BufferPool, which is thread-safe for Fetch.
// Any index exposing a batched box query is adapted through BatchQueryFn
// (see query_adapters.h); results are deterministic — each query slot is
// computed by exactly one worker with the same arithmetic as a sequential
// run, so parallel output is byte-identical to the sequential oracle.

#ifndef BOXAGG_EXEC_PARALLEL_EXECUTOR_H_
#define BOXAGG_EXEC_PARALLEL_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "exec/thread_pool.h"
#include "geom/box.h"
#include "storage/io_stats.h"
#include "storage/status.h"

namespace boxagg {

class BufferPool;

namespace exec {

/// A read-only batched query: answers `count` boxes, filling out[0..count).
/// Implementations amortize work across the batch (corner dedup, sorted
/// multi-probe descent) but must return results bit-identical to `count`
/// single-box calls.
using BatchQueryFn = std::function<Status(const Box*, size_t, double*)>;

/// \brief Aggregate statistics for one executed batch.
struct BatchExecStats {
  size_t threads = 0;        ///< workers used
  size_t queries = 0;        ///< batch size
  size_t morsels = 0;        ///< work units claimed
  double wall_ms = 0;        ///< wall-clock time for the whole batch
  double queries_per_sec = 0;
  // Per-morsel latency distribution, microseconds (one morsel is a
  // contiguous run of queries answered together; at morsel=1 it is the
  // per-query latency).
  double latency_p50_us = 0;
  double latency_p95_us = 0;
  double latency_p99_us = 0;
  double latency_max_us = 0;
  // Buffer-pool traffic attributable to this batch (snapshot delta around
  // the run), filled when a pool is passed to RunBatchGrouped.
  bool has_io = false;
  IoStats io{};
  double hit_rate = 0;  ///< io.HitRate() of the delta
};

/// \brief Executes query batches on an owned ThreadPool.
///
/// The executor is reusable: construct once per thread count, run many
/// batches. RunBatchGrouped blocks the caller until the batch completes, so
/// a caller that must answer the whole batch from one MVCC generation takes
/// a GenerationPin before the call, captures it in `fn`, and drops it after
/// the call returns — one pin then spans every morsel.
class ParallelQueryExecutor {
 public:
  explicit ParallelQueryExecutor(size_t threads);
  ~ParallelQueryExecutor();

  ParallelQueryExecutor(const ParallelQueryExecutor&) = delete;
  ParallelQueryExecutor& operator=(const ParallelQueryExecutor&) = delete;

  [[nodiscard]] size_t threads() const { return pool_->size(); }

  /// Morsel-style batched execution: the query vector is cut into contiguous
  /// runs of `morsel` queries (the last may be shorter); workers claim runs
  /// atomically and answer each with ONE `fn` call, so a batch-aware query
  /// function amortizes page fetches across the whole morsel. Queries should
  /// be pre-sorted by the caller if probe locality is wanted — contiguity is
  /// what makes sorted ranges land in one descent. `morsel` == 0 means the
  /// whole batch is one morsel; `morsel` == 1 answers query by query.
  /// Writes results[i] for queries[i] and returns the first morsel error
  /// encountered (remaining morsels still run to completion). `stats` is
  /// optional; when `pool` is given too, stats->io is filled with the
  /// batch's buffer-pool delta.
  Status RunBatchGrouped(const BatchQueryFn& fn,
                         const std::vector<Box>& queries, size_t morsel,
                         std::vector<double>* results,
                         BatchExecStats* stats = nullptr,
                         BufferPool* pool = nullptr);

 private:
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace exec
}  // namespace boxagg

#endif  // BOXAGG_EXEC_PARALLEL_EXECUTOR_H_
