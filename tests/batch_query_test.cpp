// Tests for the batched query path: DominanceSumBatch on every backend,
// BoxSumIndex::QueryBatch (corner dedup + per-sign-index grouping), batch=1
// I/O fidelity to the per-probe seed path, and morsel-grouped parallel
// execution. The contract everywhere is BYTE-identity: batching may change
// traversal order and page-fetch counts, never a single result bit.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "bptree/agg_btree.h"
#include "core/box_sum_index.h"
#include "ecdf/ecdf_btree.h"
#include "exec/parallel_executor.h"
#include "exec/query_adapters.h"
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

// The pre-batching per-query read path: one DominanceSum per sign index.
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
// loop AND to the per-sign-index seed path, for every backend and 1-3
// dimensions, over a query mix with degenerate and repeated boxes. Batch
// queries are reads: CheckConsistency afterwards confirms nothing mutated.
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

// batch=1 must issue the exact Fetch sequence of the per-probe seed path:
// cumulative logical reads, buffer hits, AND physical reads (LRU eviction
// order included — the pool is sized small enough to evict) all match.
template <class Index, class Factory>
void CheckBatchOneIoFidelity(Factory factory, uint32_t seed = 77) {
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
  EXPECT_EQ(batch_io.logical_reads, seed_io.logical_reads);
  EXPECT_EQ(batch_io.buffer_hits, seed_io.buffer_hits);
  EXPECT_EQ(batch_io.physical_reads, seed_io.physical_reads);
  EXPECT_EQ(batch_io.probe_fetches_saved, 0u);  // no grouping at batch=1
}

TEST(BatchIoFidelity, EcdfBuBatchOneMatchesSeed) {
  CheckBatchOneIoFidelity<EcdfBTree<double>>([](BufferPool* pool, int d) {
    return EcdfBTree<double>(pool, d, EcdfVariant::kUpdateOptimized);
  });
}

TEST(BatchIoFidelity, EcdfBqBatchOneMatchesSeed) {
  CheckBatchOneIoFidelity<EcdfBTree<double>>([](BufferPool* pool, int d) {
    return EcdfBTree<double>(pool, d, EcdfVariant::kQueryOptimized);
  });
}

TEST(BatchIoFidelity, PackedBaTreeBatchOneMatchesSeed) {
  CheckBatchOneIoFidelity<PackedBaTree<double>>(
      [](BufferPool* pool, int d) { return PackedBaTree<double>(pool, d); });
}

TEST(BatchIoFidelity, BaTreeBatchOneMatchesSeed) {
  CheckBatchOneIoFidelity<PackedBaTree<double>>(
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
// per-query loop under threads + shards, with the buffer-pool delta
// reported in the stats. (Name anchors the TSan CI regex.)
TEST(BatchExecGrouped, MatchesSequentialAndFillsIoStats) {
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
        executor.RunBatchGrouped(fn, queries, morsel, &results, &st, &pool)
            .ok());
    EXPECT_EQ(std::memcmp(results.data(), oracle.data(),
                          oracle.size() * sizeof(double)),
              0)
        << "morsel=" << morsel;
    EXPECT_EQ(st.queries, queries.size());
    const size_t want_morsels =
        morsel == 0 ? 1 : (queries.size() + morsel - 1) / morsel;
    EXPECT_EQ(st.morsels, want_morsels);
    EXPECT_TRUE(st.has_io);
    EXPECT_GT(st.io.logical_reads, 0u);
    EXPECT_EQ(st.io.logical_reads,
              st.io.buffer_hits + st.io.physical_reads);
  }
}

}  // namespace
}  // namespace boxagg
