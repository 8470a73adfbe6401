// Spans for the traced run, recorded from the benchmark's own code around
// each call into a layer of the library.
//
// A span has a layer name, a start and end on the steady nanosecond clock,
// the span that was current on the calling thread when it began (its
// parent), and a request id shared by every span of one closed-loop step.
// Spans are kept in per-thread memory and collected at quiescent points;
// nothing is written until the run ends. With tracing disabled a ScopedSpan
// is one relaxed load and a branch, and the untraced run does not use the
// traced code paths at all.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/page_file.h"

namespace perfbench {

enum class Layer : uint8_t {
  kClientOp,           // one closed-loop step (the root of every request)
  kClientCheck,        // the benchmark's own answer verification
  kExecBatch,          // ParallelQueryExecutor::RunBatchGrouped
  kExecMorsel,         // one morsel's batch-query call on a worker
  kCoreQuery,          // BoxSumIndex::QueryBatch / Query
  kCoreInsert,         // BoxSumIndex::Insert
  kBatreeDescent,      // PackedBaTree::DominanceSum / DominanceSumBatch
  kBatreeInsert,       // PackedBaTree::Insert
  kFunctionalQuery,    // FunctionalBoxSumIndex::Query
  kFunctionalDescent,  // PackedBaTree<Poly2>::DominanceSum
  kBufferpoolFlush,    // BufferPool::FlushAll
  kPagefileRead,       // PageFile::ReadPageEx issued by the buffer pool
  kPagefileWrite,      // PageFile::WritePage issued by the buffer pool
  kCount
};

const char* LayerName(Layer l);

inline constexpr uint32_t kNoSpan = 0xffffffffu;

struct SpanRecord {
  int64_t start_ns;
  int64_t end_ns;
  uint32_t id;
  uint32_t parent;   // kNoSpan for a root
  uint32_t request;
  uint16_t thread;
  Layer layer;
};

namespace trace_internal {
extern std::atomic<bool> g_enabled;
}  // namespace trace_internal

inline bool TracingEnabled() {
  return trace_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on or off. Call only at quiescent points.
void EnableTracing(bool on);

/// Drops every recorded span and restarts span ids at 0. Quiescent only.
void ResetTrace();

/// Every recorded span of every thread, ordered by id. Quiescent only.
std::vector<SpanRecord> CollectSpans();

/// Writes spans to `path` (binary: "PBSPANS1", layer-name table, records).
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& s);

/// Request id of the calling thread, for handing to work that runs on
/// another thread.
uint32_t CurrentRequest();

/// RAII span. The default form nests under the calling thread's current
/// span; the explicit form names the parent and request (executor morsels,
/// whose parent lives on the client thread).
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ScopedSpan(Layer layer, uint32_t parent, uint32_t request);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return rec_.id; }

 private:
  void Begin(Layer layer, uint32_t parent, uint32_t request);

  bool active_ = false;
  SpanRecord rec_{};
  uint32_t saved_span_ = kNoSpan;
  uint32_t saved_request_ = 0;
};

/// Starts a new request on the calling thread; its spans carry `request`.
void SetRequest(uint32_t request);

/// Wall time of [start, end) attributed to layers. Each instant is split
/// evenly among the innermost spans active at that instant (a span with no
/// active child), so a layer's share is its self time, concurrent spans on
/// several threads share the instant, and the shares of all layers sum to
/// the time some span covers. Time covered by no span is unattributed.
struct Attribution {
  double wall_ns = 0;
  std::array<double, static_cast<size_t>(Layer::kCount)> self_ns{};

  double Self(Layer l) const { return self_ns[static_cast<size_t>(l)]; }
  double SelfSum() const {
    double s = 0;
    for (double v : self_ns) s += v;
    return s;
  }
};

Attribution Attribute(const std::vector<SpanRecord>& spans, int64_t start_ns,
                      int64_t end_ns);

/// PageFile decorator: times every read and write the buffer pool issues as
/// a pagefile span, and counts allocations. Forwards everything to `inner`.
class TracedPageFile : public boxagg::PageFile {
 public:
  explicit TracedPageFile(boxagg::PageFile* inner)
      : PageFile(inner->page_size()), inner_(inner) {}

  boxagg::Status Allocate(boxagg::PageId* out) override {
    allocs_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Allocate(out);
  }
  boxagg::Status Free(boxagg::PageId id) override { return inner_->Free(id); }
  boxagg::Status ReadPageEx(boxagg::PageId id, boxagg::Page* page,
                            uint64_t* epoch_out) override {
    ScopedSpan span(Layer::kPagefileRead);
    return inner_->ReadPageEx(id, page, epoch_out);
  }
  boxagg::Status WritePage(boxagg::PageId id,
                           const boxagg::Page& page) override {
    ScopedSpan span(Layer::kPagefileWrite);
    return inner_->WritePage(id, page);
  }
  boxagg::Status Sync() override { return inner_->Sync(); }

  uint64_t allocs() const { return allocs_.load(std::memory_order_relaxed); }

 protected:
  // Allocate forwards to the inner file, which grows itself.
  boxagg::Status Extend(uint64_t) override { return boxagg::Status::OK(); }

 private:
  boxagg::PageFile* inner_;
  std::atomic<uint64_t> allocs_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
