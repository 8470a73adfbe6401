// Multi-threaded stress tests for the concurrent read path: many threads
// hammering one sharded BufferPool, and the ParallelQueryExecutor checked
// against the sequential oracle. Run under ThreadSanitizer in CI.
//
// Scope mirrors DESIGN.md's concurrency model: index construction is
// single-threaded; only the query (read) path runs concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "core/box_sum_index.h"
#include "exec/parallel_executor.h"
#include "exec/query_adapters.h"
#include "exec/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "workload/generators.h"

namespace boxagg {
namespace {

void ExpectIoInvariant(const IoStats& s) {
  EXPECT_EQ(s.logical_reads, s.buffer_hits + s.physical_reads)
      << "logical=" << s.logical_reads << " hits=" << s.buffer_hits
      << " physical=" << s.physical_reads;
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    exec::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 1000);
}

// 8 threads x 4000 random fetches against a pool much smaller than the page
// set: constant miss/evict churn on every shard. Page contents must always
// match what was written, and the I/O accounting identity must hold exactly
// once the pool quiesces.
TEST(ConcurrentStress, RandomFetchesKeepContentsAndAccountingExact) {
  constexpr int kPages = 512;
  constexpr int kThreads = 8;
  constexpr int kFetchesPerThread = 4000;

  MemPageFile file(512);
  BufferPool pool(&file, /*capacity=*/64, /*shards=*/8);
  EXPECT_EQ(pool.shard_count(), 8u);

  // Single-threaded setup: page i holds the value i at offset 0.
  for (int i = 0; i < kPages; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.New(&g).ok());
    g.page()->WriteAt<uint64_t>(0, static_cast<uint64_t>(g.id()));
    g.MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  IoStats before = pool.stats();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &failures, t] {
      std::mt19937 rng(900 + t);
      for (int i = 0; i < kFetchesPerThread; ++i) {
        PageId id = rng() % kPages;
        PageGuard g;
        if (!pool.Fetch(id, &g).ok() ||
            g.page()->ReadAt<uint64_t>(0) != id) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  IoStats d = pool.stats().Since(before);
  EXPECT_EQ(d.logical_reads,
            static_cast<uint64_t>(kThreads) * kFetchesPerThread);
  EXPECT_EQ(d.logical_reads, d.buffer_hits + d.physical_reads);
  EXPECT_EQ(d.physical_writes, 0u);  // read-only: nothing to write back
  ExpectIoInvariant(pool.stats());
}

class ParallelQueryTest : public ::testing::Test {
 protected:
  ParallelQueryTest()
      : file_(4096),
        // Capacity below the index footprint so parallel queries also
        // exercise concurrent eviction, not just hits.
        pool_(&file_, /*capacity=*/128, /*shards=*/4),
        index_(2, [this] { return PackedBaTree<double>(&pool_, 2); }) {
    workload::RectConfig rc;
    rc.n = 20000;
    rc.seed = 11;
    auto objects = workload::UniformRects(rc);
    EXPECT_TRUE(index_.BulkLoad(objects).ok());
    EXPECT_TRUE(pool_.FlushAll().ok());
    queries_ = workload::QueryBoxes(400, 0.001, 99);
    fn_ = exec::BoxSumBatchQueryFn(&index_);
    oracle_.resize(queries_.size());
    for (size_t i = 0; i < queries_.size(); ++i) {
      EXPECT_TRUE(index_.Query(queries_[i], &oracle_[i]).ok());
    }
  }

  MemPageFile file_;
  BufferPool pool_;
  BoxSumIndex<PackedBaTree<double>> index_;
  std::vector<Box> queries_;
  std::vector<double> oracle_;
  exec::BatchQueryFn fn_;
};

TEST_F(ParallelQueryTest, ResultsAreByteIdenticalToSequentialOracle) {
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    exec::ParallelQueryExecutor executor(threads);
    std::vector<double> results;
    exec::BatchExecStats stats;
    ASSERT_TRUE(executor
                    .RunBatchGrouped(fn_, queries_, /*morsel=*/1, &results,
                                     &stats)
                    .ok());
    ASSERT_EQ(results.size(), oracle_.size());
    EXPECT_EQ(std::memcmp(results.data(), oracle_.data(),
                          results.size() * sizeof(double)),
              0)
        << "parallel results diverge at " << threads << " threads";
    EXPECT_EQ(stats.threads, threads);
    EXPECT_EQ(stats.queries, queries_.size());
    EXPECT_GT(stats.queries_per_sec, 0.0);
    ExpectIoInvariant(pool_.stats());
  }
}

TEST_F(ParallelQueryTest, RepeatedBatchesStayDeterministic) {
  exec::ParallelQueryExecutor executor(8);
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<double> results;
    ASSERT_TRUE(
        executor.RunBatchGrouped(fn_, queries_, /*morsel=*/1, &results).ok());
    EXPECT_EQ(std::memcmp(results.data(), oracle_.data(),
                          results.size() * sizeof(double)),
              0)
        << "divergence on repetition " << rep;
  }
  ExpectIoInvariant(pool_.stats());
}

TEST(ParallelExecutorTest, PropagatesFirstQueryError) {
  exec::ParallelQueryExecutor executor(4);
  std::vector<Box> queries(64, Box::Universe(2));
  std::atomic<size_t> calls{0};
  exec::BatchQueryFn failing = [&calls](const Box*, size_t count,
                                        double* out) {
    EXPECT_EQ(count, 1u);
    size_t i = calls.fetch_add(1, std::memory_order_relaxed);
    *out = 1.0;
    if (i % 7 == 3) return Status::IoError("injected");
    return Status::OK();
  };
  std::vector<double> results;
  Status s = executor.RunBatchGrouped(failing, queries, /*morsel=*/1,
                                      &results);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIoError);
  EXPECT_EQ(calls.load(), queries.size());  // all queries still ran
}

TEST(ParallelExecutorTest, EmptyBatchIsOk) {
  exec::ParallelQueryExecutor executor(2);
  std::vector<double> results{1.0, 2.0};
  exec::BatchExecStats stats;
  exec::BatchQueryFn fn = [](const Box*, size_t count, double* out) {
    for (size_t i = 0; i < count; ++i) out[i] = 0;
    return Status::OK();
  };
  ASSERT_TRUE(
      executor.RunBatchGrouped(fn, {}, /*morsel=*/1, &results, &stats).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.queries, 0u);
}

}  // namespace
}  // namespace boxagg
