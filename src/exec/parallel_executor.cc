#include "exec/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "core/sync.h"

namespace boxagg {
namespace exec {

namespace {
using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Latency distribution over `latencies` (one entry per morsel).
void FillLatencies(BatchExecStats* stats, std::vector<double>* latencies) {
  const size_t n = latencies->size();
  if (n > 0) {
    std::sort(latencies->begin(), latencies->end());
    stats->latency_p50_us = (*latencies)[n / 2];
    stats->latency_p95_us = (*latencies)[n - 1 - (n - 1) / 20];
    stats->latency_p99_us = (*latencies)[n - 1 - (n - 1) / 100];
    stats->latency_max_us = latencies->back();
  }
}
}  // namespace

ParallelQueryExecutor::ParallelQueryExecutor(size_t threads)
    : pool_(std::make_unique<ThreadPool>(threads)) {}

ParallelQueryExecutor::~ParallelQueryExecutor() = default;

Status ParallelQueryExecutor::RunBatchGrouped(const BatchQueryFn& fn,
                                              const std::vector<Box>& queries,
                                              size_t morsel,
                                              std::vector<double>* results,
                                              BatchExecStats* stats) {
  const size_t n = queries.size();
  results->assign(n, 0.0);
  if (stats) *stats = BatchExecStats{};
  if (n == 0) return Status::OK();
  if (morsel == 0) morsel = n;
  const size_t num_morsels = (n + morsel - 1) / morsel;

  const size_t workers = pool_->size();
  std::atomic<size_t> next{0};
  std::vector<double> latencies(stats ? num_morsels : 0);

  sync::Mutex mu("exec.latch", sync::lock_rank::kExecLatch);
  sync::CondVar done_cv;
  size_t workers_done = 0;
  Status first_error = Status::OK();

  auto t0 = Clock::now();
  for (size_t w = 0; w < workers; ++w) {
    pool_->Submit([&, record = stats != nullptr] {
      Status local = Status::OK();
      for (;;) {
        size_t m = next.fetch_add(1, std::memory_order_relaxed);
        if (m >= num_morsels) break;
        const size_t lo = m * morsel;
        const size_t hi = std::min(n, lo + morsel);
        auto q0 = record ? Clock::now() : Clock::time_point{};
        Status s = fn(queries.data() + lo, hi - lo, results->data() + lo);
        if (record) latencies[m] = MicrosBetween(q0, Clock::now());
        if (!s.ok() && local.ok()) local = s;
      }
      sync::MutexLock lock(&mu);
      if (!local.ok() && first_error.ok()) first_error = local;
      if (++workers_done == workers) done_cv.NotifyAll();
    });
  }
  {
    sync::MutexLock lock(&mu);
    while (workers_done != workers) done_cv.Wait(&mu);
  }
  auto t1 = Clock::now();

  if (stats) {
    stats->threads = workers;
    stats->queries = n;
    stats->morsels = num_morsels;
    stats->wall_ms = MicrosBetween(t0, t1) / 1000.0;
    stats->queries_per_sec =
        stats->wall_ms > 0 ? 1000.0 * static_cast<double>(n) / stats->wall_ms
                           : 0;
    FillLatencies(stats, &latencies);
  }
  return first_error;
}

}  // namespace exec
}  // namespace boxagg
