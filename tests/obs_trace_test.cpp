// Tracing tests: span lifecycle against the global sink (inert when none
// installed), nesting depth and close-ordering in the ring sink, bounded
// capture with drop counting, the chrome://tracing JSON shape, and a
// multi-threaded span-writer test exercised under TSan in CI.
//
// Every test that installs a sink uninstalls it before returning — the
// sink pointer is process-global and tests in this binary share it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace boxagg {
namespace obs {
namespace {

class SinkGuard {
 public:
  explicit SinkGuard(TraceSink* sink) { SetTraceSink(sink); }
  ~SinkGuard() { SetTraceSink(nullptr); }
};

TEST(ObsTrace, SpanIsInertWithoutSink) {
  ASSERT_EQ(CurrentTraceSink(), nullptr);
  Span span("noop", "test");
  EXPECT_FALSE(span.active());
}

TEST(ObsTrace, NestedSpansRecordDepthAndCloseInnerFirst) {
  RingBufferSink sink(16);
  SinkGuard guard(&sink);
  {
    Span outer("outer", "test");
    outer.SetProbes(2);
    EXPECT_TRUE(outer.active());
    {
      Span inner("inner");
      inner.SetPagesFetched(4);
    }
  }
  const std::vector<TraceEvent> events = sink.Drain();
  ASSERT_EQ(events.size(), 2u);
  // Spans record on close, so the inner span lands first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_EQ(events[0].pages_fetched, 4);
  EXPECT_EQ(events[0].probes, -1);
  EXPECT_EQ(events[1].probes, 2);
  EXPECT_STREQ(events[1].structure, "test");
  EXPECT_EQ(events[0].structure, nullptr);
  // The outer span opened first and closed last.
  EXPECT_LE(events[1].start_us, events[0].start_us);
  EXPECT_GE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
}

TEST(ObsTrace, RingSinkBoundsCaptureAndCountsDrops) {
  RingBufferSink sink(3);
  SinkGuard guard(&sink);
  for (int i = 0; i < 5; ++i) {
    Span span("s");
  }
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.Drain().size(), 3u);
  // Drain resets both the buffer and the drop count.
  EXPECT_EQ(sink.dropped(), 0u);
  {
    Span span("again");
  }
  EXPECT_EQ(sink.Drain().size(), 1u);
}

TEST(ObsTrace, ChromeTraceJsonShape) {
  RingBufferSink sink(8);
  SinkGuard guard(&sink);
  {
    Span span("dominance_sum", "bat");
    span.SetPagesFetched(7);
    span.SetProbes(16);
  }
  char* buf = nullptr;
  size_t len = 0;
  FILE* mem = open_memstream(&buf, &len);
  ASSERT_NE(mem, nullptr);
  WriteChromeTrace(mem, sink.Drain());
  std::fclose(mem);
  const std::string json(buf, len);
  free(buf);

  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dominance_sum\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"boxagg\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"structure\":\"bat\""), std::string::npos);
  EXPECT_NE(json.find("\"pages_fetched\":7"), std::string::npos);
  EXPECT_NE(json.find("\"probes\":16"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(ObsTrace, OmittedTagsStayOutOfJson) {
  RingBufferSink sink(8);
  SinkGuard guard(&sink);
  {
    Span span("bare");
  }
  char* buf = nullptr;
  size_t len = 0;
  FILE* mem = open_memstream(&buf, &len);
  ASSERT_NE(mem, nullptr);
  WriteChromeTrace(mem, sink.Drain());
  std::fclose(mem);
  const std::string json(buf, len);
  free(buf);
  EXPECT_EQ(json.find("\"structure\""), std::string::npos);
  EXPECT_EQ(json.find("\"pages_fetched\""), std::string::npos);
  EXPECT_EQ(json.find("\"probes\""), std::string::npos);
}

// Many threads opening and closing nested spans against one ring sink:
// captured + dropped must equal the number of spans closed, every captured
// event must be well-formed, and per-thread nesting depths must be sane.
// CI runs this binary under ThreadSanitizer.
TEST(ObsTrace, ConcurrentSpanWritersAreSafe) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  RingBufferSink sink(kThreads * kPerThread);
  SinkGuard guard(&sink);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread / 2; ++i) {
        Span outer("outer", "stress");
        outer.SetProbes(i);
        Span inner("inner");
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::vector<TraceEvent> events = sink.Drain();
  EXPECT_EQ(events.size() + sink.dropped(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (const TraceEvent& e : events) {
    ASSERT_NE(e.name, nullptr);
    const bool inner = std::strcmp(e.name, "inner") == 0;
    EXPECT_TRUE(inner || std::strcmp(e.name, "outer") == 0);
    // inner spans sit exactly one level below their outer span.
    EXPECT_EQ(e.depth % 2, inner ? 1u : 0u);
  }
}

}  // namespace
}  // namespace obs
}  // namespace boxagg
