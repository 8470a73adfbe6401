// Unit and property tests for the aggregate B+-tree (1-d dominance-sum
// index): inserts, splits, coalescing, bulk loading, scans, destruction, and
// randomized cross-checks against a sorted-vector oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>

#include "bptree/agg_btree.h"
#include "poly/poly2.h"
#include "storage/buffer_pool.h"

namespace boxagg {
namespace {

class AggBTreeTest : public ::testing::Test {
 protected:
  // Small pages force deep trees and frequent splits.
  AggBTreeTest() : file_(256), pool_(&file_, 64) {}
  MemPageFile file_;
  BufferPool pool_;
};

TEST_F(AggBTreeTest, EmptyTreeSumsToZero) {
  AggBTree<double> t(&pool_);
  EXPECT_TRUE(t.empty());
  double s = -1;
  ASSERT_TRUE(t.DominanceSum(100, &s).ok());
  EXPECT_EQ(s, 0.0);
  ASSERT_TRUE(t.TotalSum(&s).ok());
  EXPECT_EQ(s, 0.0);
  uint64_t n = 99;
  ASSERT_TRUE(t.CountEntries(&n).ok());
  EXPECT_EQ(n, 0u);
}

TEST_F(AggBTreeTest, SingleInsertAndBoundaries) {
  AggBTree<double> t(&pool_);
  ASSERT_TRUE(t.Insert(5.0, 3.0).ok());
  double s;
  ASSERT_TRUE(t.DominanceSum(4.999, &s).ok());
  EXPECT_EQ(s, 0.0);
  ASSERT_TRUE(t.DominanceSum(5.0, &s).ok());  // non-strict dominance
  EXPECT_EQ(s, 3.0);
  ASSERT_TRUE(t.DominanceSum(1e18, &s).ok());
  EXPECT_EQ(s, 3.0);
}

TEST_F(AggBTreeTest, EqualKeysCoalesce) {
  AggBTree<double> t(&pool_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert(7.0, 1.5).ok());
  }
  uint64_t n;
  ASSERT_TRUE(t.CountEntries(&n).ok());
  EXPECT_EQ(n, 1u);
  double s;
  ASSERT_TRUE(t.DominanceSum(7.0, &s).ok());
  EXPECT_EQ(s, 15.0);
}

TEST_F(AggBTreeTest, NegativeValueActsAsDeletion) {
  AggBTree<double> t(&pool_);
  ASSERT_TRUE(t.Insert(1.0, 10.0).ok());
  ASSERT_TRUE(t.Insert(2.0, 20.0).ok());
  ASSERT_TRUE(t.Insert(1.0, -10.0).ok());  // delete the first point
  double s;
  ASSERT_TRUE(t.DominanceSum(1.5, &s).ok());
  EXPECT_EQ(s, 0.0);
  ASSERT_TRUE(t.DominanceSum(3.0, &s).ok());
  EXPECT_EQ(s, 20.0);
}

TEST_F(AggBTreeTest, ManyInsertsSplitAndStaySorted) {
  AggBTree<double> t(&pool_);
  const int kN = 2000;
  // Insert in shuffled order.
  std::vector<int> keys(kN);
  std::iota(keys.begin(), keys.end(), 0);
  std::shuffle(keys.begin(), keys.end(), std::mt19937(3));
  for (int k : keys) {
    ASSERT_TRUE(t.Insert(static_cast<double>(k), 1.0).ok());
  }
  uint64_t n;
  ASSERT_TRUE(t.CountEntries(&n).ok());
  EXPECT_EQ(n, static_cast<uint64_t>(kN));

  std::vector<AggBTree<double>::Entry> all;
  ASSERT_TRUE(t.ScanAll(&all).ok());
  ASSERT_EQ(all.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(all[static_cast<size_t>(i)].key, i);
  }
  // Dominance sums are exact counts.
  double s;
  ASSERT_TRUE(t.DominanceSum(499.5, &s).ok());
  EXPECT_EQ(s, 500.0);
  ASSERT_TRUE(t.DominanceSum(-1, &s).ok());
  EXPECT_EQ(s, 0.0);
  ASSERT_TRUE(t.DominanceSum(kN, &s).ok());
  EXPECT_EQ(s, kN);
  // Multiple pages must exist with 256-byte pages.
  uint64_t pages;
  ASSERT_TRUE(t.PageCount(&pages).ok());
  EXPECT_GT(pages, 100u);
}

TEST_F(AggBTreeTest, BulkLoadMatchesIncremental) {
  std::vector<AggBTree<double>::Entry> entries;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> uv(-5, 5);
  for (int i = 0; i < 1500; ++i) {
    entries.push_back({static_cast<double>(i) * 0.5, uv(rng)});
  }
  AggBTree<double> bulk(&pool_);
  ASSERT_TRUE(bulk.BulkLoad(entries).ok());
  AggBTree<double> inc(&pool_);
  for (const auto& e : entries) {
    ASSERT_TRUE(inc.Insert(e.key, e.value).ok());
  }
  for (double q : {-10.0, 0.0, 100.25, 700.0, 749.5, 1000.0}) {
    double a, b;
    ASSERT_TRUE(bulk.DominanceSum(q, &a).ok());
    ASSERT_TRUE(inc.DominanceSum(q, &b).ok());
    EXPECT_NEAR(a, b, 1e-9) << "q=" << q;
  }
  uint64_t na, nb;
  ASSERT_TRUE(bulk.CountEntries(&na).ok());
  ASSERT_TRUE(inc.CountEntries(&nb).ok());
  EXPECT_EQ(na, nb);
}

TEST_F(AggBTreeTest, BulkLoadEmptyAndSingle) {
  AggBTree<double> t(&pool_);
  ASSERT_TRUE(t.BulkLoad({}).ok());
  EXPECT_TRUE(t.empty());
  ASSERT_TRUE(t.BulkLoad({{3.0, 7.0}}).ok());
  double s;
  ASSERT_TRUE(t.DominanceSum(3.0, &s).ok());
  EXPECT_EQ(s, 7.0);
}

TEST_F(AggBTreeTest, BulkLoadIntoNonEmptyFails) {
  AggBTree<double> t(&pool_);
  ASSERT_TRUE(t.Insert(1, 1).ok());
  EXPECT_FALSE(t.BulkLoad({{2.0, 2.0}}).ok());
}

// Every page of `file` in page-id order, byte for byte.
std::string FileBytes(PageFile* file) {
  std::string out;
  Page p(file->page_size());
  for (PageId id = 0; id < file->page_count(); ++id) {
    EXPECT_TRUE(file->ReadPage(id, &p).ok());
    out.append(reinterpret_cast<const char*>(p.data()), file->page_size());
  }
  return out;
}

void HashBytes(const std::string& bytes, uint64_t* h) {
  for (unsigned char b : bytes) {
    *h ^= b;
    *h *= 0x100000001b3ull;  // FNV-1a
  }
}

// The streamed Loader writes exactly BulkLoad's pages at every size up to
// three full leaves plus a held-back tail, the sizes whose tail is split
// leaf_target - 1, 2 included. The hash of those pages was recorded from the
// loader that built from the whole vector at once.
TEST(AggBTreeLoader, MatchesBulkLoadPageForPage) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint32_t page_size : {256u, 1024u}) {
    const size_t cap = AggBTree<double>::LeafCapacity(page_size);
    for (size_t n = 0; n <= 3 * cap + 2; ++n) {
      SCOPED_TRACE("page_size=" + std::to_string(page_size) +
                   " n=" + std::to_string(n));
      std::vector<AggBTree<double>::Entry> entries;
      for (size_t i = 0; i < n; ++i) {
        entries.push_back({static_cast<double>(i) * 0.5 - 3.0,
                           static_cast<double>(i % 7) - 2.5});
      }
      MemPageFile bulk_file(page_size), stream_file(page_size);
      PageId bulk_root = kInvalidPageId, stream_root = kInvalidPageId;
      {
        BufferPool pool(&bulk_file, 64);
        AggBTree<double> t(&pool);
        ASSERT_TRUE(t.BulkLoad(entries).ok());
        bulk_root = t.root();
        ASSERT_TRUE(pool.FlushAll().ok());
      }
      {
        BufferPool pool(&stream_file, 64);
        AggBTree<double>::Loader loader(&pool);
        for (const auto& e : entries) {
          ASSERT_TRUE(loader.Add(e.key, e.value).ok());
        }
        ASSERT_TRUE(loader.Finish(&stream_root).ok());
        ASSERT_TRUE(pool.FlushAll().ok());
      }
      EXPECT_EQ(stream_root, bulk_root);
      const std::string bulk = FileBytes(&bulk_file);
      EXPECT_TRUE(FileBytes(&stream_file) == bulk);
      HashBytes(bulk, &hash);
    }
  }
  EXPECT_EQ(hash, 14818158197755980587ull);
}

TEST_F(AggBTreeTest, InsertAfterBulkLoad) {
  std::vector<AggBTree<double>::Entry> entries;
  for (int i = 0; i < 500; ++i) entries.push_back({i * 2.0, 1.0});
  AggBTree<double> t(&pool_);
  ASSERT_TRUE(t.BulkLoad(entries).ok());
  // Insert odd keys between the bulk-loaded even ones.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(t.Insert(i * 2.0 + 1.0, 1.0).ok());
  }
  double s;
  ASSERT_TRUE(t.DominanceSum(999.0, &s).ok());
  EXPECT_EQ(s, 1000.0);
  ASSERT_TRUE(t.DominanceSum(499.0, &s).ok());
  EXPECT_EQ(s, 500.0);
}

TEST_F(AggBTreeTest, DestroyFreesAllPages) {
  uint64_t live_before = file_.live_page_count();
  AggBTree<double> t(&pool_);
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(t.Insert(i, 1.0).ok());
  }
  EXPECT_GT(file_.live_page_count(), live_before);
  ASSERT_TRUE(t.Destroy().ok());
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(file_.live_page_count(), live_before);
}

TEST_F(AggBTreeTest, HandleSurvivesReconstruction) {
  // A border embedded in another page persists only root(); reconstructing a
  // handle from that id must expose the same tree.
  PageId root;
  {
    AggBTree<double> t(&pool_);
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(t.Insert(i, 2.0).ok());
    }
    root = t.root();
  }
  AggBTree<double> t2(&pool_, root);
  double s;
  ASSERT_TRUE(t2.DominanceSum(149.0, &s).ok());
  EXPECT_EQ(s, 300.0);
}

TEST_F(AggBTreeTest, PolynomialValues) {
  AggBTree<Poly2<1>> t(&pool_);
  Poly2<1> a, b;
  a.Set(1, 1, 4);
  a.Set(0, 0, 80);
  b.Set(1, 1, -4);
  b.Set(0, 0, 20);
  ASSERT_TRUE(t.Insert(2.0, a).ok());
  ASSERT_TRUE(t.Insert(15.0, b).ok());
  Poly2<1> s;
  ASSERT_TRUE(t.DominanceSum(10.0, &s).ok());
  EXPECT_TRUE(s.NearlyEquals(a, 1e-12));
  ASSERT_TRUE(t.DominanceSum(20.0, &s).ok());
  EXPECT_DOUBLE_EQ(s.At(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(s.At(0, 0), 100.0);
}

TEST_F(AggBTreeTest, RejectsUnviablePageSize) {
  // Poly2<3> entries (128-byte values) cannot fit 4-per-node in 256-byte
  // pages; the tree must refuse rather than corrupt memory.
  AggBTree<Poly2<3>> t(&pool_);
  Status s = t.Insert(1.0, Poly2<3>{});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST_F(AggBTreeTest, PolynomialValuesSurviveSplits) {
  MemPageFile file(1024);  // fits ~7 Poly2<3> entries per node
  BufferPool pool(&file, 64);
  AggBTree<Poly2<3>> t(&pool);
  const int kN = 400;
  Poly2<3> total;
  for (int i = 0; i < kN; ++i) {
    Poly2<3> v;
    v.Set(i % 4, (i / 4) % 4, static_cast<double>(i));
    ASSERT_TRUE(t.Insert(i, v).ok());
    total += v;
  }
  Poly2<3> s;
  ASSERT_TRUE(t.TotalSum(&s).ok());
  EXPECT_TRUE(s.NearlyEquals(total, 1e-9));
}

// ---------------------------------------------------------------------------
// Property sweep: random interleavings of inserts and queries, multiple page
// sizes, checked against a std::map oracle.

struct SweepParam {
  uint32_t page_size;
  int n_ops;
  uint32_t seed;
};

class AggBTreeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AggBTreeSweep, MatchesOracle) {
  const SweepParam p = GetParam();
  MemPageFile file(p.page_size);
  BufferPool pool(&file, 64);
  AggBTree<double> t(&pool);
  std::map<double, double> oracle;
  std::mt19937 rng(p.seed);
  std::uniform_real_distribution<double> uk(0, 1000);
  std::uniform_real_distribution<double> uv(-10, 10);
  for (int i = 0; i < p.n_ops; ++i) {
    double key = std::floor(uk(rng));  // frequent duplicates
    double val = uv(rng);
    ASSERT_TRUE(t.Insert(key, val).ok());
    oracle[key] += val;
    if (i % 37 == 0) {
      double q = uk(rng);
      double got, want = 0;
      ASSERT_TRUE(t.DominanceSum(q, &got).ok());
      for (const auto& [k, v] : oracle) {
        if (k <= q) want += v;
      }
      ASSERT_NEAR(got, want, 1e-7) << "op " << i << " q=" << q;
    }
  }
  // Final full validation.
  std::vector<AggBTree<double>::Entry> all;
  ASSERT_TRUE(t.ScanAll(&all).ok());
  ASSERT_EQ(all.size(), oracle.size());
  size_t idx = 0;
  for (const auto& [k, v] : oracle) {
    EXPECT_EQ(all[idx].key, k);
    EXPECT_NEAR(all[idx].value, v, 1e-7);
    ++idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PageSizesAndSeeds, AggBTreeSweep,
    ::testing::Values(SweepParam{256, 3000, 1}, SweepParam{256, 3000, 2},
                      SweepParam{512, 5000, 3}, SweepParam{1024, 5000, 4},
                      SweepParam{4096, 8000, 5}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "ps" + std::to_string(info.param.page_size) + "_ops" +
             std::to_string(info.param.n_ops) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace boxagg
