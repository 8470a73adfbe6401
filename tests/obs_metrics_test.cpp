// Metrics registry tests: histogram bucket boundaries (lower_bound
// semantics: counts[i] holds v <= bounds[i]), percentile linear
// interpolation, the shared bucket layouts, registry lookup/snapshot
// behaviour and Prometheus exposition — plus a multi-threaded recorder test
// exercised under TSan in CI.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace boxagg {
namespace obs {
namespace {

TEST(ObsMetrics, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);

  Gauge g;
  g.Set(7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  // counts[i] holds v <= bounds[i]; a value above every bound lands in the
  // overflow slot. Boundary values belong to their own bucket, not the next.
  Histogram h({1.0, 10.0, 100.0});
  h.Record(0.5);    // bucket 0
  h.Record(1.0);    // bucket 0 (boundary inclusive)
  h.Record(1.5);    // bucket 1
  h.Record(10.0);   // bucket 1
  h.Record(100.0);  // bucket 2
  h.Record(101.0);  // overflow
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.5 + 10.0 + 100.0 + 101.0);
  EXPECT_DOUBLE_EQ(s.Mean(), s.sum / 6.0);
}

TEST(ObsMetrics, PercentileInterpolatesInsideBucket) {
  // Ten values, all in the single [0, 10] bucket: rank r maps linearly to
  // value r (lo = 0, hi = 10, frac = rank / 10).
  Histogram h({10.0});
  for (int i = 0; i < 10; ++i) h.Record(5.0);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(95), 9.5);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 9.9);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.0);
}

TEST(ObsMetrics, PercentileSpansBuckets) {
  // 8 values <= 10 and 2 in (10, 100]: p50 interpolates inside the first
  // bucket (rank 5 of 8 -> 6.25), p95 inside the second (rank 9.5: 1.5 of
  // the 2 values covering [10, 100] -> 77.5).
  Histogram h({10.0, 100.0});
  for (int i = 0; i < 8; ++i) h.Record(1.0);
  h.Record(50.0);
  h.Record(60.0);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.Percentile(50), 6.25);
  EXPECT_DOUBLE_EQ(s.Percentile(95), 77.5);
}

TEST(ObsMetrics, PercentileEdgeCases) {
  Histogram empty({10.0});
  EXPECT_DOUBLE_EQ(empty.Snapshot().Percentile(50), 0.0);

  // Everything overflowed: no finite upper edge, report the last bound.
  Histogram over({10.0});
  over.Record(1e9);
  EXPECT_DOUBLE_EQ(over.Snapshot().Percentile(99), 10.0);
}

TEST(ObsMetrics, SharedBucketLayouts) {
  const std::vector<double>& lat = LatencyBucketsUs();
  ASSERT_FALSE(lat.empty());
  EXPECT_DOUBLE_EQ(lat.front(), 1.0);
  EXPECT_NEAR(lat.back(), 1e7, 1e7 * 1e-6);
  EXPECT_LE(lat.size(), Histogram::kMaxBuckets);
  for (size_t i = 1; i < lat.size(); ++i) EXPECT_LT(lat[i - 1], lat[i]);
  // 4 per decade over 7 decades, endpoints inclusive.
  EXPECT_EQ(lat.size(), 29u);

  const std::vector<double>& io = IoCountBuckets();
  ASSERT_EQ(io.size(), 25u);
  for (size_t i = 0; i < io.size(); ++i) {
    EXPECT_DOUBLE_EQ(io[i], std::ldexp(1.0, static_cast<int>(i)));
  }

  const std::vector<double> lb = LogBuckets(1.0, 1000.0, 3);
  EXPECT_EQ(lb.size(), 10u);  // 3 per decade * 3 decades + both endpoints
  EXPECT_DOUBLE_EQ(lb.front(), 1.0);
  EXPECT_NEAR(lb.back(), 1000.0, 1e-6);
}

TEST(ObsMetrics, RegistryHandlesAreStableAndSnapshotSorted) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("b.counter");
  EXPECT_EQ(c, reg.GetCounter("b.counter"));  // same name -> same handle
  c->Inc(3);
  reg.GetGauge("a.gauge")->Set(-5);
  // First registration wins: the second lookup's bounds are ignored.
  Histogram* h = reg.GetHistogram("c.hist", {1.0, 2.0});
  EXPECT_EQ(h, reg.GetHistogram("c.hist", {99.0}));
  ASSERT_EQ(h->bounds().size(), 2u);
  h->Record(1.5);

  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "a.gauge");
  EXPECT_EQ(snap.samples[1].name, "b.counter");
  EXPECT_EQ(snap.samples[2].name, "c.hist");

  const MetricSample* found = snap.Find("b.counter");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->counter, 3u);
  EXPECT_EQ(snap.Find("missing"), nullptr);
}

TEST(ObsMetrics, WritePrometheusExposition) {
  MetricsRegistry reg;
  reg.GetCounter("io.reads")->Inc(42);
  reg.GetGauge("pool.resident")->Set(-3);
  Histogram* h = reg.GetHistogram("lat.us", {10.0, 100.0});
  h->Record(5.0);
  h->Record(50.0);
  h->Record(500.0);

  char* buf = nullptr;
  size_t len = 0;
  FILE* out = open_memstream(&buf, &len);
  ASSERT_NE(out, nullptr);
  reg.Snapshot().WritePrometheus(out);
  std::fclose(out);
  const std::string text(buf, len);
  free(buf);

  // Name mangling: boxagg_ prefix, dots to underscores, counters _total.
  EXPECT_NE(text.find("# TYPE boxagg_io_reads_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("boxagg_io_reads_total 42"), std::string::npos);
  EXPECT_NE(text.find("boxagg_pool_resident -3"), std::string::npos);
  // Histogram buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("boxagg_lat_us_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("boxagg_lat_us_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("boxagg_lat_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("boxagg_lat_us_count 3"), std::string::npos);
  EXPECT_NE(text.find("boxagg_lat_us_sum 555"), std::string::npos);
}

TEST(ObsMetrics, GlobalRegistryDefaultsToDisabled) {
  EXPECT_EQ(MetricsRegistry::Global(), nullptr);
  MetricsRegistry reg;
  MetricsRegistry::InstallGlobal(&reg);
  EXPECT_EQ(MetricsRegistry::Global(), &reg);
  MetricsRegistry::InstallGlobal(nullptr);
  EXPECT_EQ(MetricsRegistry::Global(), nullptr);
}

// Many threads hammering one histogram and one counter: exact totals must
// survive (counts and integer-valued sums are exact in double arithmetic).
// CI runs this binary under ThreadSanitizer.
TEST(ObsMetrics, ConcurrentRecordersLoseNothing) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat", LatencyBucketsUs());
  Counter* c = reg.GetCounter("ops");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(static_cast<double>(1 + (t + i) % 1000));
        c->Inc();
      }
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t n : s.counts) bucket_total += n;
  EXPECT_EQ(bucket_total, s.count);
}

}  // namespace
}  // namespace obs
}  // namespace boxagg
