// Tests for the batched query path: DominanceSumBatch on every backend,
// BoxSumIndex::QueryBatch (corner dedup + per-sign-index grouping), batch=1
// I/O pinned to goldens of the sequential seed descent, and morsel-grouped
// parallel execution. The contract everywhere is BYTE-identity: batching
// may change traversal order and page-fetch counts, never a single result
// bit.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "bptree/agg_btree.h"
#include "core/box_sum_index.h"
#include "ecdf/ecdf_btree.h"
#include "exec/parallel_executor.h"
#include "exec/query_adapters.h"
#include "obs/query_obs.h"
#include "poly/poly2.h"
#include "replica/compact_replica.h"
#include "replica/replica_builder.h"
#include "storage/buffer_pool.h"
#include "workload/generators.h"

namespace boxagg {
namespace {

std::vector<BoxObject> World2d(int n, uint32_t seed, double avg_side = 0.03) {
  workload::RectConfig cfg;
  cfg.n = static_cast<size_t>(n);
  cfg.avg_side = avg_side;
  cfg.seed = seed;
  return workload::UniformRects(cfg);
}

// Deterministic d-dimensional objects derived from the 2-d generator: 1-d
// drops the second coordinate, 3-d borrows the neighbour object's second
// coordinate as a third dimension.
std::vector<BoxObject> WorldDims(int dims, int n, uint32_t seed) {
  auto base = World2d(n, seed);
  if (dims == 2) return base;
  std::vector<BoxObject> out;
  out.reserve(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    const Box& b = base[i].box;
    if (dims == 1) {
      out.push_back({Box(Point(b.lo[0]), Point(b.hi[0])), base[i].value});
    } else {
      const Box& c = base[(i + 1) % base.size()].box;
      out.push_back({Box(Point(b.lo[0], b.lo[1], c.lo[1]),
                         Point(b.hi[0], b.hi[1], c.hi[1])),
                     base[i].value});
    }
  }
  return out;
}

// Query mix stressing the dedup path: regular boxes, degenerate boxes
// (lo == hi), and exact repeats.
std::vector<Box> QueriesDims(int dims, size_t count, uint64_t seed) {
  auto base = workload::QueryBoxes(count, 0.01, seed);
  std::vector<Box> out;
  out.reserve(base.size() + base.size() / 3);
  for (size_t i = 0; i < base.size(); ++i) {
    const Box& q = base[i];
    Box mapped = q;
    if (dims == 1) {
      mapped = Box(Point(q.lo[0]), Point(q.hi[0]));
    } else if (dims == 3) {
      const Box& c = base[(i + 1) % base.size()];
      mapped = Box(Point(q.lo[0], q.lo[1], c.lo[1]),
                   Point(q.hi[0], q.hi[1], c.hi[1]));
    }
    out.push_back(mapped);
    if (i % 5 == 0) out.push_back(Box(mapped.lo, mapped.lo));  // degenerate
    if (i % 7 == 0) out.push_back(mapped);                     // repeat
  }
  return out;
}

// The per-corner read path: one DominanceSum per sign index, no corner
// dedup. DominanceSum is a one-probe DominanceSumBatch, so this path and
// QueryBatch share one descent per structure.
template <class Index>
void SeedPathQuery(BoxSumIndex<Index>* index, const Box& q, double* out) {
  *out = 0;
  for (uint32_t s = 0; s < index->index_count(); ++s) {
    double part;
    ASSERT_TRUE(index->index(s)
                    .DominanceSum(QueryCorner(q, s, index->dims()), &part)
                    .ok());
    *out += MaskSign(s) * part;
  }
}

// One 502-probe batch against 502 one-probe batches (DominanceSum): the
// big batch groups probes per child, the small ones walk alone.
TEST(AggBTreeBatch, MatchesSequentialByteForByte) {
  MemPageFile file(512);  // tiny pages -> several levels
  BufferPool pool(&file, 256);
  AggBTree<double> tree(&pool);
  for (int i = 0; i < 3000; ++i) {
    double key = static_cast<double>((i * 7919) % 1000) / 10.0;
    ASSERT_TRUE(tree.Insert(key, 0.1 * i).ok());
  }
  // Unsorted probes with duplicates, below/above the key range.
  std::vector<double> qs;
  for (int i = 0; i < 500; ++i) {
    qs.push_back(static_cast<double>((i * 31) % 1100) / 10.0 - 5.0);
  }
  qs.push_back(qs[0]);
  qs.push_back(qs[1]);
  std::vector<double> seq(qs.size()), batch(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_TRUE(tree.DominanceSum(qs[i], &seq[i]).ok());
  }
  ASSERT_TRUE(tree.DominanceSumBatch(qs.data(), qs.size(), batch.data()).ok());
  EXPECT_EQ(
      std::memcmp(batch.data(), seq.data(), seq.size() * sizeof(double)), 0);
  // Empty batch and empty tree are no-ops.
  ASSERT_TRUE(tree.DominanceSumBatch(qs.data(), 0, batch.data()).ok());
  AggBTree<double> empty(&pool);
  double out = 1.0;
  ASSERT_TRUE(empty.DominanceSumBatch(qs.data(), 1, &out).ok());
  EXPECT_EQ(out, 0.0);
}

// Property: QueryBatch output is byte-identical to a sequential per-query
// loop AND to the per-corner path (one-probe batches), for every backend
// and 1-3 dimensions, over a query mix with degenerate and repeated boxes.
// Batch queries are reads: CheckConsistency afterwards confirms nothing
// mutated.
template <class Index, class Factory>
void CheckBatchProperty(int dims, int n, uint32_t seed, Factory factory) {
  MemPageFile file(2048);
  BufferPool pool(&file, 1024);
  auto objs = WorldDims(dims, n, seed);
  auto queries = QueriesDims(dims, 40, seed + 7);
  BoxSumIndex<Index> index(dims, [&] { return factory(&pool, dims); });
  ASSERT_TRUE(index.BulkLoad(objs).ok());

  std::vector<double> seq(queries.size()), seed_path(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(index.Query(queries[i], &seq[i]).ok());
    SeedPathQuery(&index, queries[i], &seed_path[i]);
  }
  EXPECT_EQ(std::memcmp(seq.data(), seed_path.data(),
                        seq.size() * sizeof(double)),
            0)
      << "Query() drifted from the per-sign DominanceSum path, dims=" << dims;

  std::vector<double> batch;
  ASSERT_TRUE(index.QueryBatch(queries, &batch).ok());
  ASSERT_EQ(batch.size(), seq.size());
  EXPECT_EQ(
      std::memcmp(batch.data(), seq.data(), seq.size() * sizeof(double)), 0)
      << "QueryBatch drifted from sequential Query loop, dims=" << dims;

  // Odd-sized sub-batches must agree too (exercises every split point).
  std::vector<double> chunked(queries.size());
  for (size_t lo = 0; lo < queries.size(); lo += 7) {
    size_t cnt = std::min<size_t>(7, queries.size() - lo);
    ASSERT_TRUE(
        index.QueryBatch(queries.data() + lo, cnt, chunked.data() + lo).ok());
  }
  EXPECT_EQ(std::memcmp(chunked.data(), seq.data(),
                        seq.size() * sizeof(double)),
            0);

  // Reads mutated nothing.
  for (uint32_t s = 0; s < index.index_count(); ++s) {
    EXPECT_TRUE(index.index(s).CheckConsistency().ok())
        << "sign index " << s << " inconsistent after batch queries";
  }
}

TEST(BatchBoxSumProperty, EcdfBu) {
  for (int dims = 1; dims <= 3; ++dims) {
    CheckBatchProperty<EcdfBTree<double>>(
        dims, 1500, 100u + static_cast<uint32_t>(dims),
        [](BufferPool* pool, int d) {
          return EcdfBTree<double>(pool, d, EcdfVariant::kUpdateOptimized);
        });
  }
}

TEST(BatchBoxSumProperty, EcdfBq) {
  for (int dims = 1; dims <= 3; ++dims) {
    CheckBatchProperty<EcdfBTree<double>>(
        dims, 1500, 200u + static_cast<uint32_t>(dims),
        [](BufferPool* pool, int d) {
          return EcdfBTree<double>(pool, d, EcdfVariant::kQueryOptimized);
        });
  }
}

TEST(BatchBoxSumProperty, PackedBaTree) {
  for (int dims = 1; dims <= 3; ++dims) {
    CheckBatchProperty<PackedBaTree<double>>(
        dims, 1500, 400u + static_cast<uint32_t>(dims),
        [](BufferPool* pool, int d) { return PackedBaTree<double>(pool, d); });
  }
}

// The BaTree test IDs predate the unpacked tree's deletion; they run the
// same properties on PackedBaTree over a second, independent data draw.
TEST(BatchBoxSumProperty, BaTree) {
  for (int dims = 1; dims <= 3; ++dims) {
    CheckBatchProperty<PackedBaTree<double>>(
        dims, 1500, 300u + static_cast<uint32_t>(dims),
        [](BufferPool* pool, int d) { return PackedBaTree<double>(pool, d); });
  }
}

// batch=1 I/O, pinned to goldens: cumulative logical reads, buffer hits
// AND physical reads (LRU eviction order included — the pool is sized small
// enough to evict) of 30 one-box batches, recorded from the build whose
// DominanceSum was still a separate sequential descent. The per-corner path
// must read exactly the same pages as QueryBatch(&q, 1).
struct IoGolden {
  uint64_t logical_reads;
  uint64_t buffer_hits;
  uint64_t physical_reads;
};

template <class Index, class Factory>
void CheckBatchOneIoFidelity(const IoGolden& golden, Factory factory,
                             uint32_t seed = 77) {
  MemPageFile file(1024);
  BufferPool pool(&file, 32);  // tight: eviction order differences would show
  auto objs = World2d(2500, seed);
  auto queries = QueriesDims(2, 30, seed + 22);
  BoxSumIndex<Index> index(2, [&] { return factory(&pool, 2); });
  ASSERT_TRUE(index.BulkLoad(objs).ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  ASSERT_TRUE(pool.Reset().ok());
  IoStats a0 = pool.stats();
  std::vector<double> seq(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SeedPathQuery(&index, queries[i], &seq[i]);
  }
  IoStats seed_io = pool.stats().Since(a0);

  ASSERT_TRUE(pool.Reset().ok());
  IoStats b0 = pool.stats();
  std::vector<double> one(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(index.QueryBatch(&queries[i], 1, &one[i]).ok());
  }
  IoStats batch_io = pool.stats().Since(b0);

  EXPECT_EQ(
      std::memcmp(one.data(), seq.data(), seq.size() * sizeof(double)), 0);
  for (const IoStats& io : {seed_io, batch_io}) {
    EXPECT_EQ(io.logical_reads, golden.logical_reads);
    EXPECT_EQ(io.buffer_hits, golden.buffer_hits);
    EXPECT_EQ(io.physical_reads, golden.physical_reads);
    EXPECT_EQ(io.probe_fetches_saved, 0u);  // no grouping at batch=1
  }
}

TEST(BatchIoFidelity, EcdfBuBatchOneMatchesSeed) {
  CheckBatchOneIoFidelity<EcdfBTree<double>>(
      {3176, 0, 3176}, [](BufferPool* pool, int d) {
        return EcdfBTree<double>(pool, d, EcdfVariant::kUpdateOptimized);
      });
}

TEST(BatchIoFidelity, EcdfBqBatchOneMatchesSeed) {
  CheckBatchOneIoFidelity<EcdfBTree<double>>(
      {1012, 403, 609}, [](BufferPool* pool, int d) {
        return EcdfBTree<double>(pool, d, EcdfVariant::kQueryOptimized);
      });
}

TEST(BatchIoFidelity, PackedBaTreeBatchOneMatchesSeed) {
  CheckBatchOneIoFidelity<PackedBaTree<double>>(
      {1811, 32, 1779},
      [](BufferPool* pool, int d) { return PackedBaTree<double>(pool, d); });
}

TEST(BatchIoFidelity, BaTreeBatchOneMatchesSeed) {
  CheckBatchOneIoFidelity<PackedBaTree<double>>(
      {1763, 50, 1713},
      [](BufferPool* pool, int d) { return PackedBaTree<double>(pool, d); },
      177);
}

TEST(BatchDedup, RepeatedQueriesAnswerEachDistinctProbeOnce) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  auto objs = World2d(2000, 55);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  ASSERT_TRUE(index.BulkLoad(objs).ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  Box q = workload::QueryBoxes(1, 0.01, 5)[0];
  double single;
  ASSERT_TRUE(pool.Reset().ok());
  IoStats s0 = pool.stats();
  ASSERT_TRUE(index.Query(q, &single).ok());
  const uint64_t one_query_logical = pool.stats().Since(s0).logical_reads;

  // 64 copies of the same query: dedup collapses them to one probe per sign
  // index, so the batch costs exactly what one query costs.
  std::vector<Box> repeated(64, q);
  std::vector<double> results;
  ASSERT_TRUE(pool.Reset().ok());
  IoStats r0 = pool.stats();
  ASSERT_TRUE(index.QueryBatch(repeated, &results).ok());
  IoStats rep_io = pool.stats().Since(r0);
  EXPECT_EQ(rep_io.logical_reads, one_query_logical);
  for (double r : results) {
    EXPECT_EQ(std::memcmp(&r, &single, sizeof(double)), 0);
  }
}

TEST(BatchDedup, DistinctQueriesShareDescentPages) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  auto objs = World2d(3000, 66);
  BoxSumIndex<EcdfBTree<double>> index(2, [&] {
    return EcdfBTree<double>(&pool, 2, EcdfVariant::kUpdateOptimized);
  });
  ASSERT_TRUE(index.BulkLoad(objs).ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  auto queries = workload::QueryBoxes(128, 0.01, 11);
  std::vector<double> seq(queries.size());
  ASSERT_TRUE(pool.Reset().ok());
  IoStats s0 = pool.stats();
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(index.Query(queries[i], &seq[i]).ok());
  }
  IoStats per_query = pool.stats().Since(s0);

  std::vector<double> batch;
  ASSERT_TRUE(pool.Reset().ok());
  IoStats b0 = pool.stats();
  ASSERT_TRUE(index.QueryBatch(queries, &batch).ok());
  IoStats batched = pool.stats().Since(b0);

  EXPECT_EQ(std::memcmp(batch.data(), seq.data(),
                        seq.size() * sizeof(double)),
            0);
  // Shared upper levels are fetched once per batch instead of once per
  // probe: strictly fewer logical reads, and the savings are accounted.
  EXPECT_LT(batched.logical_reads, per_query.logical_reads);
  EXPECT_GT(batched.probe_fetches_saved, 0u);
  EXPECT_GE(batched.probe_fetches_saved,
            per_query.logical_reads - batched.logical_reads);
}

// Morsel-grouped parallel execution: byte-identical to the sequential
// per-query loop under threads + shards. (Name anchors the TSan CI regex.)
TEST(BatchExecGrouped, MatchesSequential) {
  MemPageFile file(2048);
  BufferPool pool(&file, 1024, /*shards=*/4);
  auto objs = World2d(3000, 88);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  ASSERT_TRUE(index.BulkLoad(objs).ok());

  auto queries = QueriesDims(2, 200, 13);
  std::vector<double> oracle(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(index.Query(queries[i], &oracle[i]).ok());
  }

  exec::ParallelQueryExecutor executor(4);
  exec::BatchQueryFn fn = exec::BoxSumBatchQueryFn(&index);
  for (size_t morsel : {size_t{1}, size_t{16}, size_t{0}}) {
    std::vector<double> results;
    exec::BatchExecStats st;
    ASSERT_TRUE(
        executor.RunBatchGrouped(fn, queries, morsel, &results, &st).ok());
    EXPECT_EQ(std::memcmp(results.data(), oracle.data(),
                          oracle.size() * sizeof(double)),
              0)
        << "morsel=" << morsel;
    EXPECT_EQ(st.queries, queries.size());
    const size_t want_morsels =
        morsel == 0 ? 1 : (queries.size() + morsel - 1) / morsel;
    EXPECT_EQ(st.morsels, want_morsels);
  }
}

// ---------------------------------------------------------------------------
// Answer-bytes golden: on a fixed seed, the raw bytes of 256
// DominanceSumBatch answers per backend hash to values recorded from the
// build in which each tree added its page values its own way. A change to
// how any descent reads or adds values must keep every answer bit. Inputs
// come from mt19937_64's raw output, not from a library distribution, so
// they do not depend on the standard library.

// A double in [lo, hi) from 53 raw generator bits.
double Uniform(std::mt19937_64* rng, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>((*rng)() >> 11) * 0x1.0p-53);
}

double GoldenValue(std::mt19937_64* rng) { return Uniform(rng, -50, 50); }

Poly2<3> GoldenPoly(std::mt19937_64* rng) {
  Poly2<3> p;
  for (double& c : p.c) c = Uniform(rng, -50, 50);
  return p;
}

template <class V>
std::vector<PointEntry<V>> GoldenPoints(int dims, size_t n, uint64_t seed,
                                        V (*value)(std::mt19937_64*)) {
  std::mt19937_64 rng(seed);
  std::vector<PointEntry<V>> out(n);
  for (auto& e : out) {
    for (int d = 0; d < dims; ++d) e.pt[d] = Uniform(&rng, 0, 1);
    e.value = value(&rng);
  }
  return out;
}

std::vector<Point> GoldenProbes(int dims, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Point> out(256);
  for (Point& q : out) {
    for (int d = 0; d < dims; ++d) q[d] = Uniform(&rng, -0.05, 1.05);
  }
  return out;
}

template <class V>
uint64_t AnswerHash(const std::vector<V>& outs) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  const auto* b = reinterpret_cast<const unsigned char*>(outs.data());
  for (size_t i = 0; i < outs.size() * sizeof(V); ++i) {
    h = (h ^ b[i]) * 0x100000001b3ull;
  }
  return h;
}

template <class V>
uint64_t AggAnswerHash(uint32_t page_size, V (*value)(std::mt19937_64*)) {
  MemPageFile file(page_size);
  BufferPool pool(&file, 4096);
  AggBTree<V> tree(&pool);
  for (const auto& e : GoldenPoints(1, 4000, 11, value)) {
    EXPECT_TRUE(tree.Insert(e.pt[0], e.value).ok());
  }
  std::vector<double> qs;
  for (const Point& q : GoldenProbes(1, 12)) qs.push_back(q[0]);
  std::vector<V> outs(qs.size());
  EXPECT_TRUE(tree.DominanceSumBatch(qs.data(), qs.size(), outs.data()).ok());
  return AnswerHash(outs);
}

uint64_t EcdfAnswerHash(EcdfVariant variant) {
  MemPageFile file(1024);
  BufferPool pool(&file, 4096);
  EcdfBTree<double> tree(&pool, 2, variant);
  EXPECT_TRUE(tree.BulkLoad(GoldenPoints(2, 3000, 21, GoldenValue)).ok());
  const std::vector<Point> qs = GoldenProbes(2, 22);
  std::vector<double> outs(qs.size());
  EXPECT_TRUE(tree.DominanceSumBatch(qs.data(), qs.size(), outs.data()).ok());
  return AnswerHash(outs);
}

TEST(AnswerBytesGolden, DominanceSumBatchAcrossBackends) {
  EXPECT_EQ(AggAnswerHash<double>(1024, GoldenValue),
            12852020753885447492ull);
  EXPECT_EQ(AggAnswerHash<Poly2<3>>(4096, GoldenPoly),
            13578442870351992703ull);
  EXPECT_EQ(EcdfAnswerHash(EcdfVariant::kUpdateOptimized),
            10694673443480146174ull);
  EXPECT_EQ(EcdfAnswerHash(EcdfVariant::kQueryOptimized),
            13416916073558171293ull);

  const std::vector<Point> qs = GoldenProbes(2, 32);
  MemPageFile file(4096);
  BufferPool pool(&file, 8192);
  PackedBaTree<double> bat(&pool, 2);
  ASSERT_TRUE(bat.BulkLoad(GoldenPoints(2, 4000, 31, GoldenValue)).ok());
  std::vector<double> outs(qs.size());
  ASSERT_TRUE(bat.DominanceSumBatch(qs.data(), qs.size(), outs.data()).ok());
  EXPECT_EQ(AnswerHash(outs), 16399359186431246274ull);

  ReplicaBuilder<double> builder(&pool);
  PageId root = kInvalidPageId;
  ASSERT_TRUE(builder.Build(bat, &root).ok());
  CompactReplica<double> rep(&pool, 2, root);
  ASSERT_TRUE(rep.Open().ok());
  std::vector<double> rep_outs(qs.size());
  ASSERT_TRUE(
      rep.DominanceSumBatch(qs.data(), qs.size(), rep_outs.data()).ok());
  EXPECT_EQ(AnswerHash(rep_outs), 16399359186431246274ull);

  // Poly2 entries on small pages: borders spill to their own trees, and
  // the probes must reach them.
  MemPageFile pfile(2048);
  BufferPool ppool(&pfile, 8192);
  PackedBaTree<Poly2<3>> pbat(&ppool, 2);
  ASSERT_TRUE(pbat.BulkLoad(GoldenPoints(2, 3000, 41, GoldenPoly)).ok());
  obs::QueryObs qobs;
  obs::InstallQueryObs(&qobs);
  std::vector<Poly2<3>> pouts(qs.size());
  const Status st = pbat.DominanceSumBatch(qs.data(), qs.size(), pouts.data());
  obs::InstallQueryObs(nullptr);
  ASSERT_TRUE(st.ok());
  EXPECT_GT(qobs.Snapshot().border_probes, 0u);
  EXPECT_EQ(AnswerHash(pouts), 6490693606695128676ull);
}

}  // namespace
}  // namespace boxagg
