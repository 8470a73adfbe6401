// Metrics registry: named counters, gauges, and fixed-bucket histograms with
// lock-free relaxed-atomic hot paths, mirroring the IoStats discipline — the
// registry mutex guards only registration/lookup (cold); every Inc/Record on
// a handed-out metric is wait-free relaxed atomics, so instrumented code can
// run on any number of threads without contending.
//
// Snapshot() produces a plain-data view of the whole registry, which
// boxagg_stats prints as a table, JSON or Prometheus text at the end of a
// run. A process-global registry pointer (install/clear) lets deep code (the
// executor, the buffer pool) pick up metrics opportunistically: with no
// registry installed, the hot paths cost one relaxed pointer load and
// allocate nothing.

#ifndef BOXAGG_OBS_METRICS_H_
#define BOXAGG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sync.h"

namespace boxagg {
namespace obs {

/// \brief Monotone event counter (relaxed atomic increments).
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] uint64_t Value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief Instantaneous signed level (queue depth, resident pages, ...).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] int64_t Value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Plain-POD histogram view.
///
/// counts has bounds.size() + 1 entries: counts[i] holds values
/// v <= bounds[i]; the final entry is the overflow bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;  ///< total recorded values
  double sum = 0;      ///< sum of recorded values

  [[nodiscard]] double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Value at percentile `p` in [0, 100], linearly interpolated inside the
  /// covering bucket (bucket 0 interpolates from 0; the overflow bucket
  /// reports the last finite bound). 0 when empty.
  [[nodiscard]] double Percentile(double p) const;
};

/// \brief Fixed-bucket histogram: precomputed upper bounds, atomic counts.
///
/// Record() is wait-free: a binary search over the immutable bounds array
/// plus two relaxed atomic adds (count slot and sum). No allocation ever
/// happens after construction.
class Histogram {
 public:
  static constexpr size_t kMaxBuckets = 64;

  /// \param bounds strictly increasing upper bucket bounds (<= kMaxBuckets).
  explicit Histogram(const std::vector<double>& bounds);

  void Record(double v);
  [[nodiscard]] uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] HistogramSnapshot Snapshot() const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::atomic<uint64_t> counts_[kMaxBuckets + 1] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Log-spaced bounds from `lo` to `hi` inclusive with `per_decade` bounds
/// per factor-of-10 (e.g. LogBuckets(1, 1000, 3) -> 1, 2.15, 4.64, 10, ...).
std::vector<double> LogBuckets(double lo, double hi, int per_decade);

/// Shared latency bounds: 1 us .. 10 s, 4 per decade (29 buckets + overflow).
const std::vector<double>& LatencyBucketsUs();

/// Shared I/O-count bounds: powers of two, 1 .. 2^24 (25 buckets + overflow).
const std::vector<double>& IoCountBuckets();

/// \brief One named metric inside a MetricsSnapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;       ///< kCounter
  int64_t gauge = 0;          ///< kGauge
  HistogramSnapshot hist;     ///< kHistogram
};

/// \brief Plain-data view of a whole registry, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  [[nodiscard]] const MetricSample* Find(const std::string& name) const;

  /// JSON object {"name": value | {histogram}} without trailing newline.
  void WriteJson(FILE* out) const;

  /// Human-readable aligned table (one metric per line).
  void WriteTable(FILE* out) const;

  /// Prometheus text exposition format (text/plain; version 0.0.4).
  /// Metric names are sanitized (`.` -> `_`) and prefixed `boxagg_`;
  /// counters gain the conventional `_total` suffix; histograms emit
  /// cumulative `_bucket{le="..."}` series ending in `le="+Inf"` plus
  /// `_sum` and `_count`. Each family carries `# HELP` / `# TYPE` lines.
  void WritePrometheus(FILE* out) const;
};

/// \brief Named-metric owner. Lookup is mutex-guarded (cold); handed-out
/// pointers are stable for the registry's lifetime and wait-free to update.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Returns the existing histogram regardless of `bounds` if `name` is
  /// already registered (first registration wins).
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  [[nodiscard]] MetricsSnapshot Snapshot() const;

  /// Process-global registry used by opportunistic instrumentation (the
  /// executor, the stats CLI). nullptr (the default) disables: hot paths
  /// see one relaxed load and record nothing. Install/uninstall only at
  /// quiescent points (no workload in flight).
  static void InstallGlobal(MetricsRegistry* r);
  static MetricsRegistry* Global();

 private:
  // Writer lock for registration (GetX may insert), reader lock for
  // Snapshot — concurrent snapshots never serialize against each other,
  // only against registration of new metrics.
  mutable sync::SharedMutex mu_{"obs.metrics",
                                sync::lock_rank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace boxagg

#endif  // BOXAGG_OBS_METRICS_H_
