#include "exec/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "core/sync.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"

namespace boxagg {
namespace exec {

namespace {
using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Latency distribution over `latencies` (one entry per morsel) plus the
// batch's buffer-pool delta. When a metrics registry is installed the
// per-morsel latencies also feed `executor.morsel_latency_us`, so repeated
// batches accumulate a process-wide distribution.
void FillStats(BatchExecStats* stats, std::vector<double>* latencies,
               BufferPool* pool, const IoStats& before) {
  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();
      reg != nullptr && !latencies->empty()) {
    obs::Histogram* h = reg->GetHistogram("executor.morsel_latency_us",
                                          obs::LatencyBucketsUs());
    for (double l : *latencies) h->Record(l);
  }
  const size_t n = latencies->size();
  if (n > 0) {
    std::sort(latencies->begin(), latencies->end());
    stats->latency_p50_us = (*latencies)[n / 2];
    stats->latency_p95_us = (*latencies)[n - 1 - (n - 1) / 20];
    stats->latency_p99_us = (*latencies)[n - 1 - (n - 1) / 100];
    stats->latency_max_us = latencies->back();
  }
  if (pool) {
    stats->has_io = true;
    stats->io = pool->stats().Since(before);
    stats->hit_rate = stats->io.HitRate();
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
                                              BatchExecStats* stats,
                                              BufferPool* pool) {
  const size_t n = queries.size();
  results->assign(n, 0.0);
  if (stats) *stats = BatchExecStats{};
  if (n == 0) return Status::OK();
  if (morsel == 0) morsel = n;
  const size_t num_morsels = (n + morsel - 1) / morsel;
  const IoStats io_before = pool ? pool->stats() : IoStats{};

  const size_t workers = pool_->size();
  std::atomic<size_t> next{0};
  std::vector<double> latencies(stats ? num_morsels : 0);

  // Unclaimed-morsel depth, sampled at every claim (observability only).
  obs::Gauge* depth_gauge = nullptr;
  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::Global()) {
    depth_gauge = reg->GetGauge("executor.queue_depth");
    depth_gauge->Set(static_cast<int64_t>(num_morsels));
    reg->GetCounter("executor.queries")->Inc(n);
  }

  sync::Mutex mu("exec.latch", sync::lock_rank::kExecLatch);
  sync::CondVar done_cv;
  size_t workers_done = 0;
  Status first_error = Status::OK();

  auto t0 = Clock::now();
  for (size_t w = 0; w < workers; ++w) {
    pool_->Submit([&, record = stats != nullptr, depth_gauge] {
      Status local = Status::OK();
      for (;;) {
        size_t m = next.fetch_add(1, std::memory_order_relaxed);
        if (m >= num_morsels) break;
        if (depth_gauge != nullptr) {
          depth_gauge->Set(static_cast<int64_t>(num_morsels - m - 1));
        }
        const size_t lo = m * morsel;
        const size_t hi = std::min(n, lo + morsel);
        obs::Span span("morsel", "executor");
        span.SetProbes(static_cast<int64_t>(hi - lo));
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
    FillStats(stats, &latencies, pool, io_before);
  }
  return first_error;
}

}  // namespace exec
}  // namespace boxagg
