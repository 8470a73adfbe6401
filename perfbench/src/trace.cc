#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace trace_internal {
std::atomic<bool> g_enabled{false};
}  // namespace trace_internal

namespace {

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One buffer per thread that ever recorded a span. The registry owns them,
// so a buffer outlives its thread and CollectSpans can read it later.
struct ThreadBuffer {
  uint16_t thread = 0;
  std::vector<SpanRecord> spans;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;
std::atomic<uint32_t> g_next_id{0};

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint32_t t_span = kNoSpan;
thread_local uint32_t t_request = 0;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_registry.back().get();
    t_buffer->thread = static_cast<uint16_t>(g_registry.size() - 1);
    t_buffer->spans.reserve(1 << 16);
  }
  return t_buffer;
}

}  // namespace

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kClientOp: return "client.op";
    case Layer::kClientCheck: return "client.check";
    case Layer::kExecBatch: return "exec.batch";
    case Layer::kExecMorsel: return "exec.morsel";
    case Layer::kCoreQuery: return "core.query";
    case Layer::kCoreInsert: return "core.insert";
    case Layer::kBatreeDescent: return "batree.descent";
    case Layer::kBatreeInsert: return "batree.insert";
    case Layer::kFunctionalQuery: return "functional.query";
    case Layer::kFunctionalDescent: return "functional.descent";
    case Layer::kBufferpoolFlush: return "bufferpool.flush";
    case Layer::kPagefileRead: return "pagefile.read";
    case Layer::kPagefileWrite: return "pagefile.write";
    case Layer::kCount: break;
  }
  return "?";
}

void EnableTracing(bool on) {
  trace_internal::g_enabled.store(on, std::memory_order_relaxed);
}

void ResetTrace() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& b : g_registry) b->spans.clear();
  g_next_id.store(0, std::memory_order_relaxed);
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& b : g_registry) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& s) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite("PBSPANS1", 1, 8, f) == 8;
  const uint32_t layers = static_cast<uint32_t>(Layer::kCount);
  ok = ok && std::fwrite(&layers, sizeof(layers), 1, f) == 1;
  for (uint32_t i = 0; i < layers; ++i) {
    char name[32] = {};
    std::snprintf(name, sizeof(name), "%s", LayerName(static_cast<Layer>(i)));
    ok = ok && std::fwrite(name, 1, sizeof(name), f) == sizeof(name);
  }
  const uint64_t n = s.size();
  ok = ok && std::fwrite(&n, sizeof(n), 1, f) == 1;
  ok = ok && (s.empty() ||
              std::fwrite(s.data(), sizeof(SpanRecord), s.size(), f) ==
                  s.size());
  return std::fclose(f) == 0 && ok;
}

uint32_t CurrentRequest() { return t_request; }
void SetRequest(uint32_t request) { t_request = request; }

ScopedSpan::ScopedSpan(Layer layer) {
  if (TracingEnabled()) Begin(layer, t_span, t_request);
}

ScopedSpan::ScopedSpan(Layer layer, uint32_t parent, uint32_t request) {
  if (TracingEnabled()) Begin(layer, parent, request);
}

void ScopedSpan::Begin(Layer layer, uint32_t parent, uint32_t request) {
  active_ = true;
  saved_span_ = t_span;
  saved_request_ = t_request;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = parent;
  rec_.request = request;
  rec_.layer = layer;
  t_span = rec_.id;
  t_request = request;
  rec_.start_ns = Now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  rec_.end_ns = Now();
  ThreadBuffer* b = Buffer();
  rec_.thread = b->thread;
  b->spans.push_back(rec_);
  t_span = saved_span_;
  t_request = saved_request_;
}

Attribution Attribute(const std::vector<SpanRecord>& spans, int64_t start_ns,
                      int64_t end_ns) {
  Attribution a;
  a.wall_ns = static_cast<double>(end_ns - start_ns);
  if (spans.empty()) return a;

  // Span ids are dense from 0 after ResetTrace; index per-span state by id.
  uint32_t max_id = 0;
  for (const SpanRecord& s : spans) max_id = std::max(max_id, s.id);
  std::vector<int32_t> slot(static_cast<size_t>(max_id) + 1, -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    slot[spans[i].id] = static_cast<int32_t>(i);
  }

  // Events: ends before starts at equal times; a parent starts before and
  // ends after its children (ids grow with creation order).
  struct Event {
    int64_t t;
    bool start;
    uint32_t span;  // index into spans
  };
  std::vector<Event> ev;
  ev.reserve(spans.size() * 2);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t s = std::clamp(spans[i].start_ns, start_ns, end_ns);
    const int64_t e = std::clamp(spans[i].end_ns, start_ns, end_ns);
    ev.push_back({s, true, static_cast<uint32_t>(i)});
    ev.push_back({e, false, static_cast<uint32_t>(i)});
  }
  std::sort(ev.begin(), ev.end(), [&](const Event& x, const Event& y) {
    if (x.t != y.t) return x.t < y.t;
    if (x.start != y.start) return !x.start;
    const uint32_t ix = spans[x.span].id, iy = spans[y.span].id;
    return x.start ? ix < iy : ix > iy;
  });

  std::vector<uint32_t> active_children(spans.size(), 0);
  std::vector<uint8_t> active(spans.size(), 0);
  std::vector<uint32_t> leaves;  // innermost active spans
  auto parent_of = [&](uint32_t i) -> int32_t {
    const uint32_t p = spans[i].parent;
    if (p == kNoSpan || p > max_id) return -1;
    const int32_t j = slot[p];
    return (j >= 0 && active[static_cast<size_t>(j)]) ? j : -1;
  };
  auto drop_leaf = [&](uint32_t i) {
    auto it = std::find(leaves.begin(), leaves.end(), i);
    if (it != leaves.end()) leaves.erase(it);
  };

  int64_t prev = start_ns;
  for (const Event& e : ev) {
    if (e.t > prev && !leaves.empty()) {
      const double share =
          static_cast<double>(e.t - prev) / static_cast<double>(leaves.size());
      for (uint32_t i : leaves) {
        a.self_ns[static_cast<size_t>(spans[i].layer)] += share;
      }
    }
    prev = e.t;
    if (e.start) {
      const int32_t p = parent_of(e.span);
      if (p >= 0 && active_children[static_cast<size_t>(p)]++ == 0) {
        drop_leaf(static_cast<uint32_t>(p));
      }
      active[e.span] = 1;
      leaves.push_back(e.span);
    } else {
      active[e.span] = 0;
      drop_leaf(e.span);
      const int32_t p = parent_of(e.span);
      if (p >= 0 && --active_children[static_cast<size_t>(p)] == 0) {
        leaves.push_back(static_cast<uint32_t>(p));
      }
    }
  }
  return a;
}

}  // namespace perfbench
