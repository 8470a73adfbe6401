#include "obs/trace.h"

#include <chrono>

namespace boxagg {
namespace obs {

namespace {

std::atomic<TraceSink*> g_sink{nullptr};
std::atomic<uint32_t> g_next_tid{0};

uint32_t ThisThreadOrdinal() {
  thread_local uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

thread_local uint32_t t_span_depth = 0;

}  // namespace

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

RingBufferSink::RingBufferSink(size_t capacity) : capacity_(capacity) {
  sync::MutexLock lock(&mu_);  // uncontended; satisfies GUARDED_BY
  events_.reserve(capacity_);
}

void RingBufferSink::Record(const TraceEvent& e) {
  sync::MutexLock lock(&mu_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(e);
}

std::vector<TraceEvent> RingBufferSink::Drain() {
  sync::MutexLock lock(&mu_);
  std::vector<TraceEvent> out;
  out.swap(events_);
  out.reserve(out.size());
  events_.reserve(capacity_);
  dropped_.store(0, std::memory_order_relaxed);
  return out;
}

void SetTraceSink(TraceSink* sink) {
  g_sink.store(sink, std::memory_order_release);
}

TraceSink* CurrentTraceSink() {
  return g_sink.load(std::memory_order_acquire);
}

Span::Span(const char* name, const char* structure)
    : sink_(CurrentTraceSink()) {
  if (sink_ == nullptr) return;
  event_.name = name;
  event_.structure = structure;
  event_.tid = ThisThreadOrdinal();
  event_.depth = t_span_depth++;
  event_.start_us = NowMicros();
}

Span::~Span() {
  if (sink_ == nullptr) return;
  event_.dur_us = NowMicros() - event_.start_us;
  --t_span_depth;
  sink_->Record(event_);
}

void WriteChromeTrace(FILE* out, const std::vector<TraceEvent>& events) {
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  for (const TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    if (!first) std::fputc(',', out);
    first = false;
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"boxagg\",\"ph\":\"X\","
                 "\"ts\":%llu,\"dur\":%llu,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"depth\":%u",
                 e.name, static_cast<unsigned long long>(e.start_us),
                 static_cast<unsigned long long>(e.dur_us), e.tid, e.depth);
    if (e.structure != nullptr) {
      std::fprintf(out, ",\"structure\":\"%s\"", e.structure);
    }
    if (e.pages_fetched >= 0) {
      std::fprintf(out, ",\"pages_fetched\":%lld",
                   static_cast<long long>(e.pages_fetched));
    }
    if (e.probes >= 0) {
      std::fprintf(out, ",\"probes\":%lld", static_cast<long long>(e.probes));
    }
    if (e.generation >= 0) {
      std::fprintf(out, ",\"generation\":%lld",
                   static_cast<long long>(e.generation));
    }
    std::fputs("}}", out);
  }
  std::fputs("]}\n", out);
}

}  // namespace obs
}  // namespace boxagg
