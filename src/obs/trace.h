// Structured tracing: RAII spans feeding a pluggable TraceSink.
//
// The disabled path is the design center: with no sink installed (the
// default), constructing a Span is one relaxed pointer load and a null
// check — no clock read, no allocation, no synchronization. Only when a
// sink is installed do spans take timestamps and record events.
//
// Events use static-string names and a fixed set of integer tags, so the
// hot path never formats or allocates; RingBufferSink preallocates its
// whole buffer up front. WriteChromeTrace() renders drained events as
// chrome://tracing "X" (complete) events loadable in Perfetto or
// chrome://tracing directly.

#ifndef BOXAGG_OBS_TRACE_H_
#define BOXAGG_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/sync.h"

namespace boxagg {
namespace obs {

/// Monotonic clock in microseconds (steady across the process).
uint64_t NowMicros();

/// \brief One completed span. `name`/`structure` must be string literals
/// (or otherwise outlive the sink) — sinks store the pointers, not copies.
struct TraceEvent {
  const char* name = nullptr;       ///< span name, e.g. "dominance_sum"
  const char* structure = nullptr;  ///< index structure tag, may be null
  uint64_t start_us = 0;            ///< NowMicros() at span open
  uint64_t dur_us = 0;              ///< span duration
  uint32_t tid = 0;                 ///< small per-thread ordinal, not OS tid
  uint32_t depth = 0;               ///< nesting depth within the thread
  int64_t pages_fetched = -1;       ///< logical page fetches inside the span
  int64_t probes = -1;              ///< probes carried / queries in batch
  int64_t generation = -1;          ///< BagFile generation, -1 when n/a
};

/// \brief Receives completed spans; implementations must be thread-safe.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Record(const TraceEvent& e) = 0;
};

/// \brief Bounded in-memory sink: keeps the first `capacity` events and
/// counts (but drops) the rest, so always-on capture has a hard memory
/// ceiling. A mutex is fine here: spans close at page-fetch granularity,
/// orders of magnitude rarer than the relaxed-atomic metric bumps.
class RingBufferSink : public TraceSink {
 public:
  explicit RingBufferSink(size_t capacity);

  void Record(const TraceEvent& e) override;

  /// Moves the captured events out (oldest first) and resets the sink.
  std::vector<TraceEvent> Drain();

  [[nodiscard]] size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  const size_t capacity_;
  sync::Mutex mu_{"obs.trace_ring", sync::lock_rank::kTraceSink};
  std::vector<TraceEvent> events_ GUARDED_BY(mu_);
  std::atomic<size_t> dropped_{0};
};

/// Installs the process-global sink (nullptr disables tracing). Install or
/// swap only at quiescent points; the sink must outlive all spans.
void SetTraceSink(TraceSink* sink);
TraceSink* CurrentTraceSink();

/// \brief RAII span: records a TraceEvent to the global sink when it closes.
/// Inert (no clock, no state) when no sink is installed at construction.
class Span {
 public:
  explicit Span(const char* name, const char* structure = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Tag setters are no-ops on an inert span.
  void SetPagesFetched(int64_t n) { event_.pages_fetched = n; }
  void SetProbes(int64_t n) { event_.probes = n; }
  void SetGeneration(int64_t g) { event_.generation = g; }
  [[nodiscard]] bool active() const { return sink_ != nullptr; }

 private:
  TraceSink* sink_;  // captured once at open; null = inert
  TraceEvent event_;
};

/// Renders events as a chrome://tracing JSON document:
/// {"traceEvents":[{"name":...,"cat":"boxagg","ph":"X","ts":...,"dur":...,
///  "pid":1,"tid":...,"args":{...}}]}
void WriteChromeTrace(FILE* out, const std::vector<TraceEvent>& events);

}  // namespace obs
}  // namespace boxagg

#endif  // BOXAGG_OBS_TRACE_H_
