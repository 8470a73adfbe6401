#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace boxagg {
namespace obs {

namespace {

std::atomic<MetricsRegistry*> g_registry{nullptr};

void JsonEscape(FILE* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', out);
    std::fputc(c, out);
  }
}

void WriteHistJson(FILE* out, const HistogramSnapshot& h) {
  std::fprintf(out, "{\"count\":%llu,\"sum\":%.17g,\"p50\":%.17g,"
                    "\"p95\":%.17g,\"p99\":%.17g,\"bounds\":[",
               static_cast<unsigned long long>(h.count), h.sum,
               h.Percentile(50), h.Percentile(95), h.Percentile(99));
  for (size_t i = 0; i < h.bounds.size(); ++i) {
    std::fprintf(out, "%s%.17g", i ? "," : "", h.bounds[i]);
  }
  std::fputs("],\"counts\":[", out);
  for (size_t i = 0; i < h.counts.size(); ++i) {
    std::fprintf(out, "%s%llu", i ? "," : "",
                 static_cast<unsigned long long>(h.counts[i]));
  }
  std::fputs("]}", out);
}

}  // namespace

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  // Rank of the target value, 1-based; rank r falls in the first bucket
  // whose cumulative count reaches r.
  const double rank = p / 100.0 * static_cast<double>(count);
  uint64_t cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t c = counts[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= rank) {
      if (i >= bounds.size()) {
        // Overflow bucket: no finite upper edge to interpolate toward.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(c);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    cum += c;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(const std::vector<double>& bounds) : bounds_(bounds) {
  assert(bounds_.size() <= kMaxBuckets);
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Record(double v) {
  const size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double old = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(old, old + v, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> LogBuckets(double lo, double hi, int per_decade) {
  assert(lo > 0 && hi > lo && per_decade > 0);
  std::vector<double> bounds;
  const double step = std::pow(10.0, 1.0 / per_decade);
  for (double b = lo; b < hi * (1 + 1e-9); b *= step) {
    bounds.push_back(b);
    if (bounds.size() >= Histogram::kMaxBuckets) break;
  }
  return bounds;
}

const std::vector<double>& LatencyBucketsUs() {
  static const std::vector<double> kBounds = LogBuckets(1.0, 1e7, 4);
  return kBounds;
}

const std::vector<double>& IoCountBuckets() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> b;
    for (int i = 0; i <= 24; ++i) b.push_back(static_cast<double>(1u << i));
    return b;
  }();
  return kBounds;
}

const MetricSample* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void MetricsSnapshot::WriteJson(FILE* out) const {
  std::fputc('{', out);
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) std::fputc(',', out);
    first = false;
    std::fputc('"', out);
    JsonEscape(out, s.name);
    std::fputs("\":", out);
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        std::fprintf(out, "%llu", static_cast<unsigned long long>(s.counter));
        break;
      case MetricSample::Kind::kGauge:
        std::fprintf(out, "%lld", static_cast<long long>(s.gauge));
        break;
      case MetricSample::Kind::kHistogram:
        WriteHistJson(out, s.hist);
        break;
    }
  }
  std::fputc('}', out);
}

void MetricsSnapshot::WriteTable(FILE* out) const {
  size_t width = 0;
  for (const MetricSample& s : samples) width = std::max(width, s.name.size());
  for (const MetricSample& s : samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        std::fprintf(out, "%-*s %llu\n", static_cast<int>(width),
                     s.name.c_str(),
                     static_cast<unsigned long long>(s.counter));
        break;
      case MetricSample::Kind::kGauge:
        std::fprintf(out, "%-*s %lld\n", static_cast<int>(width),
                     s.name.c_str(), static_cast<long long>(s.gauge));
        break;
      case MetricSample::Kind::kHistogram:
        std::fprintf(out,
                     "%-*s count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f\n",
                     static_cast<int>(width), s.name.c_str(),
                     static_cast<unsigned long long>(s.hist.count),
                     s.hist.Mean(), s.hist.Percentile(50),
                     s.hist.Percentile(95), s.hist.Percentile(99));
        break;
    }
  }
}

namespace {

// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; the
// registry's dotted names map onto that by replacing every other byte
// with '_' (dots become underscores, which is the conventional mapping).
std::string PromName(const std::string& name) {
  std::string out = "boxagg_";
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    c == '_' || c == ':' || (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void MetricsSnapshot::WritePrometheus(FILE* out) const {
  for (const MetricSample& s : samples) {
    const std::string base = PromName(s.name);
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        std::fprintf(out, "# HELP %s_total boxagg counter %s\n", base.c_str(),
                     s.name.c_str());
        std::fprintf(out, "# TYPE %s_total counter\n", base.c_str());
        std::fprintf(out, "%s_total %llu\n", base.c_str(),
                     static_cast<unsigned long long>(s.counter));
        break;
      case MetricSample::Kind::kGauge:
        std::fprintf(out, "# HELP %s boxagg gauge %s\n", base.c_str(),
                     s.name.c_str());
        std::fprintf(out, "# TYPE %s gauge\n", base.c_str());
        std::fprintf(out, "%s %lld\n", base.c_str(),
                     static_cast<long long>(s.gauge));
        break;
      case MetricSample::Kind::kHistogram: {
        std::fprintf(out, "# HELP %s boxagg histogram %s\n", base.c_str(),
                     s.name.c_str());
        std::fprintf(out, "# TYPE %s histogram\n", base.c_str());
        uint64_t cum = 0;
        for (size_t i = 0; i < s.hist.bounds.size(); ++i) {
          if (i < s.hist.counts.size()) cum += s.hist.counts[i];
          std::fprintf(out, "%s_bucket{le=\"%.17g\"} %llu\n", base.c_str(),
                       s.hist.bounds[i], static_cast<unsigned long long>(cum));
        }
        std::fprintf(out, "%s_bucket{le=\"+Inf\"} %llu\n", base.c_str(),
                     static_cast<unsigned long long>(s.hist.count));
        std::fprintf(out, "%s_sum %.17g\n", base.c_str(), s.hist.sum);
        std::fprintf(out, "%s_count %llu\n", base.c_str(),
                     static_cast<unsigned long long>(s.hist.count));
        break;
      }
    }
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  sync::WriterLock lock(&mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  sync::WriterLock lock(&mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  sync::WriterLock lock(&mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  sync::ReaderLock lock(&mu_);
  MetricsSnapshot snap;
  snap.samples.reserve(counters_.size() + gauges_.size() + histograms_.size());
  // std::map iteration is name-ordered; merge the three kinds back into one
  // sorted list so Snapshot output is deterministic.
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.counter = c->Value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.gauge = g->Value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.hist = h->Snapshot();
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return snap;
}

void MetricsRegistry::InstallGlobal(MetricsRegistry* r) {
  g_registry.store(r, std::memory_order_release);
}

MetricsRegistry* MetricsRegistry::Global() {
  return g_registry.load(std::memory_order_acquire);
}

}  // namespace obs
}  // namespace boxagg
