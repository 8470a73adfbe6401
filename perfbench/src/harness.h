// The run skeleton shared by every workload: timed phases, the traced
// phase's per-layer report, and the checks every count pass must pass.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obs/query_obs.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "trace.h"

namespace perfbench {

/// Latency samples and op counts of one timed phase.
struct Samples {
  std::vector<double> step_us;   // one closed-loop step (see BENCHMARK.json)
  std::vector<double> query_us;  // one Query call
  uint64_t ops = 0;              // operations counted in ops_per_s
  double op_ns = 0;              // summed latency of those operations
  uint64_t answers = 0;          // box answers computed, checks included
  uint64_t inserts = 0;          // objects inserted

  double OpsPerSec() const {
    return Ratio(static_cast<double>(ops), op_ns / 1e9);
  }
};

/// Timed windows per run. Each timing metric is the median over the windows
/// of that window's statistic, so outside interference that spans fewer
/// than half of the windows does not move it.
inline constexpr int kWindows = 5;

/// Adds ops_per_s, the step p50 and the query p50 and p90 (medians over the
/// windows), and the pooled step p90, p99s and sample counts.
void ReportLatency(const std::vector<Samples>& windows, Report* r);

/// Self-time slack of the traced run: the layers' self times must cover the
/// traced wall time to within this fraction.
inline constexpr double kTraceSlack = 0.05;

/// What the traced phase recorded.
struct TracedPhase {
  std::vector<SpanRecord> spans;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t answers = 0;
  uint64_t inserts = 0;
  size_t workers = 0;  // executor workers; 0 when the workload has none
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
};

/// Adds the time-based per-layer metrics, checks the self-time identity,
/// and writes the spans to `dump_path`.
void ReportTrace(const TracedPhase& t, const std::string& dump_path,
                 Report* r);

/// Times DecodePageSlot on re-encoded copies of real pages of `file`.
void MeasureDecode(boxagg::PageFile* file, Report* r);

/// Checks a count pass's two I/O identities (node visits == logical reads
/// of the queries; logical == hits + physical).
void CheckIdentities(const CountSignature& c, Report* r);

/// Fails the run unless every count pass equals the first.
void CheckDeterminism(const std::vector<CountSignature>& passes, Report* r);

/// Runs the timed part of a workload. `phase(traced, deadline_ns,
/// min_steps, &samples)` runs closed-loop steps until the deadline (and at
/// least min_steps). An untraced run spends the whole budget untraced, in
/// kWindows windows; a traced run spends half untraced, for
/// trace.overhead_frac, and half traced, for the per-layer report.
template <class Phase>
void RunTimed(const Options& o, size_t min_steps, size_t workers,
              Phase&& phase, Report* r) {
  const auto budget = static_cast<int64_t>(o.seconds * 1e9);
  const int64_t plain_budget = o.trace ? budget / 2 : budget;
  const size_t window_min = o.trace ? 0 : (min_steps + kWindows - 1) / kWindows;
  std::vector<Samples> windows(kWindows);
  const int64_t t0 = NowNs();
  for (int w = 0; w < kWindows; ++w) {
    phase(false, t0 + plain_budget * (w + 1) / kWindows, window_min,
          &windows[w]);
  }
  ReportLatency(windows, r);
  if (!o.trace) return;

  Samples plain;
  for (const Samples& w : windows) {
    plain.ops += w.ops;
    plain.op_ns += w.op_ns;
  }
  ResetTrace();
  EnableTracing(true);
  Samples traced;
  TracedPhase t;
  t.start_ns = NowNs();
  phase(true, t.start_ns + budget / 2, size_t{0}, &traced);
  t.end_ns = NowNs();
  EnableTracing(false);
  t.spans = CollectSpans();
  ResetTrace();
  t.answers = traced.answers;
  t.inserts = traced.inserts;
  t.workers = workers;
  t.untraced_ops_per_s = plain.OpsPerSec();
  t.traced_ops_per_s = traced.OpsPerSec();
  ReportTrace(t, o.workdir + "/spans_" + o.workload + ".bin", r);
}

inline constexpr uint32_t kPageSize = boxagg::kDefaultPageSize;

struct StoreConfig {
  bool on_file = false;  // FilePageFile in the work directory, else in memory
  size_t pool_pages = 0;
  size_t shards = 1;
};

/// One set-up: page file, buffer pool and index. A file-backed set-up
/// truncates its file before closing it, so teardown never writes the index
/// back to the device.
template <class Index>
struct Setup {
  std::string path;
  std::unique_ptr<boxagg::PageFile> base;
  std::unique_ptr<TracedPageFile> traced;  // only in traced runs
  std::unique_ptr<boxagg::BufferPool> pool;
  std::unique_ptr<Index> index;

  uint64_t allocs() const { return traced ? traced->allocs() : 0; }

  ~Setup() {
    index.reset();
    pool.reset();
    if (!path.empty() && ::truncate(path.c_str(), 0) != 0) {
      std::perror("truncate");
    }
    traced.reset();
    base.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

/// Builds one set-up: `make_index(pool)` returns the empty index, which is
/// bulk-loaded from `objects` and flushed, both timed into `times`.
template <class Index, class Objects, class MakeIndex>
Status BuildSetup(const Options& o, const StoreConfig& c,
                  const Objects& objects, MakeIndex& make_index,
                  std::unique_ptr<Setup<Index>>* out, SetupTimes* times) {
  auto s = std::make_unique<Setup<Index>>();
  if (c.on_file) {
    s->path = o.workdir + "/" + o.workload + ".pages";
    std::unique_ptr<boxagg::FilePageFile> f;
    BOXAGG_RETURN_NOT_OK(
        boxagg::FilePageFile::Open(s->path, kPageSize, /*truncate=*/true, &f));
    s->base = std::move(f);
  } else {
    s->base = std::make_unique<boxagg::MemPageFile>(kPageSize);
  }
  boxagg::PageFile* file = s->base.get();
  if (o.trace) {
    s->traced = std::make_unique<TracedPageFile>(file);
    file = s->traced.get();
  }
  s->pool = std::make_unique<boxagg::BufferPool>(file, c.pool_pages, c.shards);
  s->index = make_index(s->pool.get());

  const int64_t t0 = NowNs();
  BOXAGG_RETURN_NOT_OK(s->index->BulkLoad(objects));
  const int64_t t1 = NowNs();
  BOXAGG_RETURN_NOT_OK(s->pool->FlushAll());
  const int64_t t2 = NowNs();
  times->bulkload_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  times->flush_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  times->total_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  BOXAGG_RETURN_NOT_OK(s->index->PageCount(&times->pages));
  *out = std::move(s);
  return Status::OK();
}

/// Runs kSetups set-ups; after each, `count_pass(setup, traced_path)` runs a
/// fixed-length pass whose counts must agree across set-ups. In a traced
/// run the first pass takes the library's path and the others the traced
/// path, which proves the traced path reproduces answers and I/O exactly.
/// Returns the last set-up, for the timed phase.
template <class Index, class Objects, class MakeIndex, class CountPass>
std::unique_ptr<Setup<Index>> SetUpAndCount(const Options& o,
                                            const StoreConfig& c,
                                            const Objects& objects,
                                            MakeIndex&& make_index,
                                            CountPass&& count_pass, Report* r) {
  SetupTimes times;
  std::vector<CountSignature> passes;
  std::unique_ptr<Setup<Index>> s;
  for (int k = 0; k < kSetups; ++k) {
    s.reset();  // free the previous set-up before building the next
    if (Status st = BuildSetup(o, c, objects, make_index, &s, &times);
        !st.ok()) {
      r->Error("set-up: " + st.ToString());
      return nullptr;
    }
    const bool traced_path = o.trace && k > 0;
    boxagg::obs::QueryObs qobs;
    boxagg::obs::InstallQueryObs(&qobs);
    EnableTracing(traced_path);
    const uint64_t allocs0 = s->allocs();
    CountSignature sig = count_pass(*s, traced_path);
    sig.page_allocs = s->allocs() - allocs0;
    EnableTracing(false);
    ResetTrace();
    boxagg::obs::InstallQueryObs(nullptr);
    sig.obs = qobs.Snapshot();
    CheckIdentities(sig, r);
    r->attempted += sig.queries + sig.inserts;
    passes.push_back(std::move(sig));
  }
  CheckDeterminism(passes, r);
  ReportSetup(times, objects.size(), kPageSize, r);
  ReportCounts(passes.back(), r);
  return s;
}

/// Answers recorded during the timed phase, checked against the oracle
/// after it.
struct Recorded {
  std::vector<Box> boxes;
  std::vector<double> answers;
  size_t cap = 0;

  void Add(const Box& q, double v) {
    if (boxes.size() < cap) {
      boxes.push_back(q);
      answers.push_back(v);
    }
  }

  /// `oracle(box)` gives the Expected answer; `objects` is N of the bound.
  template <class Oracle>
  void Check(const Options& o, Oracle&& oracle, size_t objects,
             Report* r) const;
};

/// Component-wise sum of I/O deltas.
inline void AddIo(IoStats* acc, const IoStats& d) {
  acc->physical_reads += d.physical_reads;
  acc->physical_writes += d.physical_writes;
  acc->logical_reads += d.logical_reads;
  acc->buffer_hits += d.buffer_hits;
  acc->probe_fetches_saved += d.probe_fetches_saved;
  acc->checksum_failures += d.checksum_failures;
  acc->read_retries += d.read_retries;
  acc->evictions += d.evictions;
  acc->dirty_writebacks += d.dirty_writebacks;
}

/// Perturbs the first checked answer when the self-test asks for it.
inline double MaybeInjectWrong(const Options& o, size_t i, double v) {
  return (o.inject_wrong && i == 0) ? v + 1.0 + std::fabs(v) * 1e-3 : v;
}

template <class Oracle>
void Recorded::Check(const Options& o, Oracle&& oracle, size_t objects,
                     Report* r) const {
  AnswerCheck check;
  for (size_t i = 0; i < boxes.size(); ++i) {
    check.Add(MaybeInjectWrong(o, i, answers[i]), oracle(boxes[i]), objects);
  }
  ReportCheck(check, r);
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
