// Workloads over the simple box-sum index (BoxSumIndex over PackedBaTree):
//   warm_batch  batched reads through the executor, index fully buffered
//   cold_file   single reads from a file 25x the paper's 10 MB buffer
//   update_mix  inserts alternating with reads on the file-backed index

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>

#include "batree/packed_ba_tree.h"
#include "core/arena.h"
#include "core/box_sum_index.h"
#include "exec/parallel_executor.h"
#include "exec/query_adapters.h"
#include "harness.h"
#include "simd/simd.h"
#include "storage/buffer_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Tree = boxagg::PackedBaTree<double>;
using Index = boxagg::BoxSumIndex<Tree>;
constexpr int kDims = 2;

// Fig. 9b's four query box sizes (fractions of the space's area).
const std::vector<double> kFig9bQbs = {0.0001, 0.001, 0.01, 0.1};

// ---------------------------------------------------------------------------
// Traced paths: the library's own steps, issued from here so that each call
// into the BA-tree layer gets its own span. Answers and page I/O are
// identical to BoxSumIndex::QueryBatch / Insert; every count pass of a
// traced run checks that.

Status TracedQueryBatch(Index& index, const Box* qs, size_t count,
                        double* out) {
  ScopedSpan span(Layer::kCoreQuery);
  for (size_t i = 0; i < count; ++i) out[i] = 0;
  if (count == 0) return Status::OK();
  boxagg::core::ArenaScope scope(boxagg::core::ScratchArena());
  boxagg::core::ArenaVector<Point> corners(count);
  boxagg::core::ArenaVector<uint32_t> order(count);
  boxagg::core::ArenaVector<uint32_t> probe_of(count);
  boxagg::core::ArenaVector<Point> distinct;
  boxagg::core::ArenaVector<double> parts;
  for (uint32_t s = 0; s < index.index_count(); ++s) {
    for (size_t i = 0; i < count; ++i) {
      corners[i] = boxagg::QueryCorner(qs[i], s, kDims);
      order[i] = static_cast<uint32_t>(i);
    }
    std::sort(order.begin(), order.end(), [&corners](uint32_t a, uint32_t b) {
      if (boxagg::LexLess(corners[a], corners[b], kDims)) return true;
      if (boxagg::LexLess(corners[b], corners[a], kDims)) return false;
      return a < b;
    });
    distinct.clear();
    for (size_t j = 0; j < count; ++j) {
      const Point& c = corners[order[j]];
      if (distinct.empty() || !boxagg::LexEqual(distinct.back(), c, kDims)) {
        distinct.push_back(c);
      }
      probe_of[order[j]] = static_cast<uint32_t>(distinct.size() - 1);
    }
    parts.resize(distinct.size());
    boxagg::obs::NoteCornerProbes(distinct.size(), count - distinct.size());
    {
      ScopedSpan descent(Layer::kBatreeDescent);
      BOXAGG_RETURN_NOT_OK(index.index(s).DominanceSumBatch(
          distinct.data(), distinct.size(), parts.data()));
    }
    boxagg::simd::AccumulateSigned(out, parts.data(), probe_of.data(),
                                   boxagg::MaskSign(s), count);
  }
  return Status::OK();
}

Status TracedInsert(Index& index, const Box& box, double value) {
  ScopedSpan span(Layer::kCoreInsert);
  for (uint32_t s = 0; s < index.index_count(); ++s) {
    const Point p = boxagg::StorageCorner(box, s, kDims);
    ScopedSpan insert(Layer::kBatreeInsert);
    BOXAGG_RETURN_NOT_OK(index.index(s).Insert(p, value));
  }
  return Status::OK();
}

Status QueryOne(Index& index, bool traced, const Box& q, double* out) {
  return traced ? TracedQueryBatch(index, &q, 1, out) : index.Query(q, out);
}

Status InsertOne(Index& index, bool traced, const BoxObject& o) {
  return traced ? TracedInsert(index, o.box, o.value)
                : index.Insert(o.box, o.value);
}

Status FlushPool(boxagg::BufferPool* pool) {
  ScopedSpan span(Layer::kBufferpoolFlush);
  return pool->FlushAll();
}

std::unique_ptr<Index> MakeIndex(boxagg::BufferPool* pool) {
  return std::make_unique<Index>(kDims, [pool] { return Tree(pool, kDims); });
}

void CheckRecorded(const Options& o, const std::vector<BoxObject>& objects,
                   const Recorded& rec, Report* r) {
  boxagg::NaiveBoxSum naive(kDims);
  for (const BoxObject& ob : objects) naive.Insert(ob.box, ob.value);
  rec.Check(
      o, [&naive](const Box& q) { return SimpleOracle(naive, q); },
      naive.size(), r);
}

// ---------------------------------------------------------------------------
// warm_batch

constexpr size_t kBatch = 256;
constexpr size_t kRepeats = 64;  // a quarter of each batch repeats a box
constexpr size_t kMorsel = 64;
// One worker: on a shared 4-vCPU host, a batch split over 2 workers waits
// for whichever vCPU the host slows, and its latency then spreads past the
// gate's bound from run to run.
constexpr size_t kWorkers = 1;
constexpr size_t kChecksPerBatch = 16;

/// Batches of 256 boxes at QBS 0.01% and 1%; 64 of each batch repeat boxes
/// drawn earlier in the same batch. A batch is sorted by box, as a client
/// that wants probe locality sends it.
class BatchStream {
 public:
  explicit BatchStream(uint64_t seed)
      : seed_(seed), boxes_(seed, {0.0001, 0.01}) {}

  std::vector<Box> Next() {
    std::vector<Box> b;
    b.reserve(kBatch);
    for (size_t i = 0; i < kBatch - kRepeats; ++i) b.push_back(boxes_.Next());
    std::mt19937_64 rng(Mix(seed_, 1000 + batches_++));
    for (size_t i = 0; i < kRepeats; ++i) {
      b.push_back(b[rng() % (kBatch - kRepeats)]);
    }
    std::sort(b.begin(), b.end(), [](const Box& x, const Box& y) {
      if (!(x.lo == y.lo)) return boxagg::LexLess(x.lo, y.lo, kDims);
      return boxagg::LexLess(x.hi, y.hi, kDims);
    });
    return b;
  }

 private:
  uint64_t seed_;
  BoxStream boxes_;
  uint64_t batches_ = 0;
};

/// The executor's batch function. The traced form opens a morsel span under
/// the client's exec.batch span, whose id and request it reads at call time.
boxagg::exec::BatchQueryFn BatchFn(Index* index, bool traced,
                                   const uint32_t* batch_span,
                                   const uint32_t* request) {
  if (!traced) return boxagg::exec::BoxSumBatchQueryFn(index);
  return [index, batch_span, request](const Box* qs, size_t n, double* out) {
    ScopedSpan morsel(Layer::kExecMorsel, *batch_span, *request);
    return TracedQueryBatch(*index, qs, n, out);
  };
}

class WarmBatch {
 public:
  WarmBatch(const Options& o, Report* r)
      : o_(o), r_(r), executor_(kWorkers) {}

  void Run() {
    const size_t n = o_.tiny ? 3000 : 200000;
    const std::vector<BoxObject> objects = PaperObjects(n, o_.seed);
    StoreConfig c;
    c.pool_pages = n / 4 + 1024;  // the whole index (about n / 6 pages)
    c.shards = 8;
    const size_t count_batches = o_.tiny ? 2 : 8;
    setup_ = SetUpAndCount<Index>(
        o_, c, objects, MakeIndex,
        [&](Setup<Index>& s, bool traced) {
          return CountPass(s, traced, count_batches);
        },
        r_);
    if (!setup_) return;
    recorded_.cap = o_.tiny ? 32 : 256;
    stream_ = std::make_unique<BatchStream>(Mix(o_.seed, 3));
    std::vector<double> results;
    for (int w = 0; w < 4; ++w) {  // warm-up, not timed
      if (Status st = RunBatch(setup_->index.get(), /*traced=*/false,
                               stream_->Next(), &results);
          !st.ok()) {
        r_->OpFailed(st, "warm-up batch");
      }
    }
    const IoStats before = setup_->pool->stats();
    RunTimed(
        o_, o_.tiny ? 5 : 1000, kWorkers,
        [&](bool traced, int64_t deadline, size_t min_steps, Samples* out) {
          Phase(traced, deadline, min_steps, out);
        },
        r_);
    const IoStats d = setup_->pool->stats().Since(before);
    if (d.physical_reads != 0 || d.evictions != 0) {
      r_->Error("warm_batch: the buffer pool did not hold the whole index");
    }
    CheckRecorded(o_, objects, recorded_, r_);
    MeasureDecode(setup_->base.get(), r_);
    setup_.reset();
  }

 private:
  Status RunBatch(Index* index, bool traced, const std::vector<Box>& batch,
                  std::vector<double>* results) {
    ScopedSpan span(Layer::kExecBatch);
    batch_span_ = span.id();
    request_ = CurrentRequest();
    return executor_.RunBatchGrouped(
        BatchFn(index, traced, &batch_span_, &request_), batch, kMorsel,
        results);
  }

  CountSignature CountPass(Setup<Index>& s, bool traced, size_t batches) {
    CountSignature sig;
    BatchStream stream(Mix(o_.seed, 2));
    std::vector<double> results;
    const IoStats io0 = s.pool->stats();
    for (size_t b = 0; b < batches; ++b) {
      const std::vector<Box> batch = stream.Next();
      const IoStats q0 = s.pool->stats();
      if (Status st = RunBatch(s.index.get(), traced, batch, &results);
          !st.ok()) {
        r_->OpFailed(st, "count pass batch");
      }
      AddIo(&sig.query_io, s.pool->stats().Since(q0));
      sig.answers.insert(sig.answers.end(), results.begin(), results.end());
      sig.queries += batch.size();
    }
    sig.io = s.pool->stats().Since(io0);
    return sig;
  }

  void Phase(bool traced, int64_t deadline, size_t min_steps, Samples* out) {
    Index& index = *setup_->index;
    std::vector<double> results;
    uint32_t request = 0;
    while (NowNs() < deadline || out->step_us.size() < min_steps) {
      const std::vector<Box> batch = stream_->Next();
      SetRequest(++request);
      ScopedSpan op(Layer::kClientOp);
      const int64_t t0 = NowNs();
      const Status st = RunBatch(&index, traced, batch, &results);
      const int64_t t1 = NowNs();
      out->step_us.push_back(NsToUs(t1 - t0));
      out->op_ns += static_cast<double>(t1 - t0);
      out->ops += batch.size();
      out->answers += batch.size();
      r_->attempted += batch.size();
      if (!st.ok()) {
        r_->OpFailed(st, "batch");
        continue;
      }
      // Batched answers must be bit-identical to single Query calls.
      ScopedSpan check(Layer::kClientCheck);
      const size_t offset = out->step_us.size() % kChecksPerBatch;
      for (size_t j = 0; j < kChecksPerBatch; ++j) {
        const size_t i = j * (kBatch / kChecksPerBatch) + offset;
        double single = 0;
        const int64_t q0 = NowNs();
        const Status qs = QueryOne(index, traced, batch[i], &single);
        out->query_us.push_back(NsToUs(NowNs() - q0));
        ++out->answers;
        ++r_->attempted;
        if (!qs.ok()) {
          r_->OpFailed(qs, "single query");
        } else if (std::memcmp(&single, &results[i], sizeof(double)) != 0) {
          ++r_->failed;
          r_->Error("warm_batch: batched answer differs from a single Query");
        }
        recorded_.Add(batch[i], results[i]);
      }
    }
  }

  const Options& o_;
  Report* r_;
  boxagg::exec::ParallelQueryExecutor executor_;
  std::unique_ptr<Setup<Index>> setup_;
  std::unique_ptr<BatchStream> stream_;
  Recorded recorded_;
  uint32_t batch_span_ = kNoSpan;
  uint32_t request_ = 0;
};

// ---------------------------------------------------------------------------
// cold_file and update_mix share the paper's storage: a file-backed index
// under a 10 MB LRU buffer with one shard.

StoreConfig PaperFileStore(const Options& o) {
  StoreConfig c;
  c.on_file = true;
  c.pool_pages = boxagg::BufferPool::CapacityForMegabytes(o.tiny ? 1 : 10,
                                                          kPageSize);
  c.shards = 1;
  return c;
}

/// Times one Query and accounts its I/O.
double TimedQuery(Setup<Index>& s, bool traced, const Box& q, IoStats* io,
                  double* answer, Report* r) {
  const IoStats q0 = s.pool->stats();
  const int64_t t0 = NowNs();
  const Status st = QueryOne(*s.index, traced, q, answer);
  const int64_t t1 = NowNs();
  if (io != nullptr) AddIo(io, s.pool->stats().Since(q0));
  if (!st.ok()) r->OpFailed(st, "query");
  return static_cast<double>(t1 - t0);
}

double TimedInsert(Setup<Index>& s, bool traced, const BoxObject& ob,
                   IoStats* io, Report* r) {
  const IoStats i0 = s.pool->stats();
  const int64_t t0 = NowNs();
  const Status st = InsertOne(*s.index, traced, ob);
  const int64_t t1 = NowNs();
  if (io != nullptr) AddIo(io, s.pool->stats().Since(i0));
  if (!st.ok()) r->OpFailed(st, "insert");
  return static_cast<double>(t1 - t0);
}

}  // namespace

void RunWarmBatch(const Options& o, Report* r) { WarmBatch(o, r).Run(); }

void RunColdFile(const Options& o, Report* r) {
  const size_t n = o.tiny ? 3000 : 200000;
  const std::vector<BoxObject> objects = PaperObjects(n, o.seed);
  const size_t count_queries = o.tiny ? 100 : 2000;
  auto count_pass = [&](Setup<Index>& s, bool traced) {
    CountSignature sig;
    if (Status st = s.pool->Reset(); !st.ok()) r->Error(st.ToString());
    BoxStream stream(Mix(o.seed, 2), kFig9bQbs);
    const IoStats io0 = s.pool->stats();
    for (size_t i = 0; i < count_queries; ++i) {
      double v = 0;
      TimedQuery(s, traced, stream.Next(), &sig.query_io, &v, r);
      sig.answers.push_back(v);
    }
    sig.queries = count_queries;
    sig.io = s.pool->stats().Since(io0);
    return sig;
  };
  std::unique_ptr<Setup<Index>> s =
      SetUpAndCount<Index>(o, PaperFileStore(o), objects, MakeIndex,
                           count_pass, r);
  if (!s) return;

  Recorded recorded;
  recorded.cap = o.tiny ? 32 : 256;
  BoxStream stream(Mix(o.seed, 3), kFig9bQbs);
  RunTimed(
      o, o.tiny ? 10 : 1000, 0,
      [&](bool traced, int64_t deadline, size_t min_steps, Samples* out) {
        uint32_t request = 0;
        while (NowNs() < deadline || out->step_us.size() < min_steps) {
          const Box q = stream.Next();
          SetRequest(++request);
          ScopedSpan op(Layer::kClientOp);
          double v = 0;
          const double ns = TimedQuery(*s, traced, q, nullptr, &v, r);
          out->step_us.push_back(ns / 1e3);
          out->query_us.push_back(ns / 1e3);
          out->op_ns += ns;
          ++out->ops;
          ++out->answers;
          ++r->attempted;
          recorded.Add(q, v);
        }
      },
      r);
  CheckRecorded(o, objects, recorded, r);
  MeasureDecode(s->base.get(), r);
}

void RunUpdateMix(const Options& o, Report* r) {
  const size_t n = o.tiny ? 3000 : 200000;
  const std::vector<BoxObject> objects = PaperObjects(n, o.seed);
  const size_t count_pairs = o.tiny ? 40 : 400;
  constexpr size_t kCheckEvery = 16;  // queries between oracle checks
  auto count_pass = [&](Setup<Index>& s, bool traced) {
    CountSignature sig;
    if (Status st = s.pool->Reset(); !st.ok()) r->Error(st.ToString());
    ObjectStream inserts(Mix(o.seed, 4));
    BoxStream queries(Mix(o.seed, 5), kFig9bQbs);
    const IoStats io0 = s.pool->stats();
    for (size_t i = 0; i < count_pairs; ++i) {
      TimedInsert(s, traced, inserts.Next(), &sig.insert_io, r);
      double v = 0;
      TimedQuery(s, traced, queries.Next(), &sig.query_io, &v, r);
      sig.answers.push_back(v);
    }
    // Dirty pages reach the file on eviction and at this final flush; its
    // writes are charged to the inserts.
    const IoStats f0 = s.pool->stats();
    if (Status st = FlushPool(s.pool.get()); !st.ok()) r->OpFailed(st, "flush");
    AddIo(&sig.insert_io, s.pool->stats().Since(f0));
    sig.queries = sig.inserts = count_pairs;
    sig.io = s.pool->stats().Since(io0);
    return sig;
  };
  std::unique_ptr<Setup<Index>> s =
      SetUpAndCount<Index>(o, PaperFileStore(o), objects, MakeIndex,
                           count_pass, r);
  if (!s) return;

  // The oracle follows every insert: the base objects, the last count
  // pass's inserts, then each insert of the timed phase.
  boxagg::NaiveBoxSum naive(kDims);
  for (const BoxObject& ob : objects) naive.Insert(ob.box, ob.value);
  ObjectStream inserts(Mix(o.seed, 4));
  for (size_t i = 0; i < count_pairs; ++i) {
    const BoxObject ob = inserts.Next();
    naive.Insert(ob.box, ob.value);
  }
  BoxStream queries(Mix(o.seed, 6), kFig9bQbs);
  AnswerCheck check;
  RunTimed(
      o, o.tiny ? 10 : 1000, 0,
      [&](bool traced, int64_t deadline, size_t min_steps, Samples* out) {
        uint32_t request = 0;
        while (NowNs() < deadline || out->step_us.size() < min_steps) {
          const BoxObject ob = inserts.Next();
          const Box q = queries.Next();
          SetRequest(++request);
          ScopedSpan op(Layer::kClientOp);
          const double ins_ns = TimedInsert(*s, traced, ob, nullptr, r);
          naive.Insert(ob.box, ob.value);
          double v = 0;
          const double q_ns = TimedQuery(*s, traced, q, nullptr, &v, r);
          out->step_us.push_back(ins_ns / 1e3);
          out->query_us.push_back(q_ns / 1e3);
          out->op_ns += ins_ns + q_ns;
          out->ops += 2;
          ++out->answers;
          ++out->inserts;
          r->attempted += 2;
          if (out->query_us.size() % kCheckEvery == 1) {
            ScopedSpan c(Layer::kClientCheck);
            check.Add(MaybeInjectWrong(o, check.checked, v),
                      SimpleOracle(naive, q), naive.size());
          }
        }
      },
      r);
  const int64_t f0 = NowNs();
  if (Status st = s->pool->FlushAll(); !st.ok()) r->OpFailed(st, "final flush");
  r->PerLayer("bufferpool.final_flush_ms",
              static_cast<double>(NowNs() - f0) / 1e6, "ms");
  ReportCheck(check, r);
  MeasureDecode(s->base.get(), r);
}

}  // namespace perfbench
