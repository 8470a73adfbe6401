// Tests for the two disk-based dynamic extensions of Bentley's ECDF-tree,
// the ECDF-Bu-tree and ECDF-Bq-tree (Sec. 4). Both are cross-checked
// against the naive linear-scan oracle across dimensions 1-3, bulk-loaded
// and incrementally built, with page sizes small enough to force deep trees
// and many splits.

#include <gtest/gtest.h>

#include <random>

#include "core/naive.h"
#include "ecdf/ecdf_btree.h"
#include "storage/buffer_pool.h"

namespace boxagg {
namespace {

std::vector<PointEntry<double>> RandomPoints(int n, int dims, uint32_t seed,
                                             double key_range = 100.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uc(0, key_range);
  std::uniform_real_distribution<double> uv(-5, 5);
  std::vector<PointEntry<double>> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    PointEntry<double> e;
    for (int d = 0; d < dims; ++d) {
      // Snap to a grid so duplicate coordinates (and full duplicate points)
      // occur regularly.
      e.pt[d] = std::floor(uc(rng));
    }
    e.value = uv(rng);
    out.push_back(e);
  }
  return out;
}

std::vector<Point> RandomQueries(int n, int dims, uint32_t seed,
                                 double key_range = 100.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uc(-5, key_range + 5);
  std::vector<Point> out;
  for (int i = 0; i < n; ++i) {
    Point p;
    for (int d = 0; d < dims; ++d) p[d] = uc(rng);
    out.push_back(p);
  }
  return out;
}

// ---------------------------------------------------------------------------
// EcdfBTree: parameterized over (dims, variant, bulk-vs-incremental).

struct EcdfParam {
  int dims;
  EcdfVariant variant;
  bool bulk;
  int n;
  uint32_t page_size;

  std::string Name() const {
    std::string s = "d";
    s += std::to_string(dims);
    s += variant == EcdfVariant::kUpdateOptimized ? "_Bu" : "_Bq";
    s += bulk ? "_bulk" : "_inc";
    s += "_n";
    s += std::to_string(n);
    s += "_ps";
    s += std::to_string(page_size);
    return s;
  }
};

class EcdfBTreeSweep : public ::testing::TestWithParam<EcdfParam> {};

TEST_P(EcdfBTreeSweep, MatchesNaiveOracle) {
  const EcdfParam p = GetParam();
  MemPageFile file(p.page_size);
  BufferPool pool(&file, 256);
  EcdfBTree<double> tree(&pool, p.dims, p.variant);
  NaiveDominanceSum<double> naive(p.dims);

  auto pts = RandomPoints(p.n, p.dims, 1000u + static_cast<uint32_t>(p.n));
  for (const auto& e : pts) naive.Insert(e.pt, e.value);
  if (p.bulk) {
    ASSERT_TRUE(tree.BulkLoad(pts).ok());
  } else {
    for (const auto& e : pts) {
      ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
    }
  }

  for (const Point& q : RandomQueries(150, p.dims, 5)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6) << q.ToString(p.dims);
  }
  double total;
  ASSERT_TRUE(tree.TotalSum(&total).ok());
  EXPECT_NEAR(total, naive.Total(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EcdfBTreeSweep,
    ::testing::Values(
        EcdfParam{1, EcdfVariant::kUpdateOptimized, false, 2000, 512},
        EcdfParam{1, EcdfVariant::kQueryOptimized, true, 2000, 512},
        EcdfParam{2, EcdfVariant::kUpdateOptimized, false, 1500, 512},
        EcdfParam{2, EcdfVariant::kUpdateOptimized, true, 3000, 512},
        EcdfParam{2, EcdfVariant::kQueryOptimized, false, 800, 512},
        EcdfParam{2, EcdfVariant::kQueryOptimized, true, 3000, 512},
        EcdfParam{2, EcdfVariant::kUpdateOptimized, false, 1500, 4096},
        EcdfParam{2, EcdfVariant::kQueryOptimized, true, 1500, 4096},
        EcdfParam{3, EcdfVariant::kUpdateOptimized, false, 600, 1024},
        EcdfParam{3, EcdfVariant::kUpdateOptimized, true, 1500, 1024},
        EcdfParam{3, EcdfVariant::kQueryOptimized, false, 300, 1024},
        EcdfParam{3, EcdfVariant::kQueryOptimized, true, 1200, 1024}),
    [](const ::testing::TestParamInfo<EcdfParam>& info) {
      return info.param.Name();
    });

// Mixed bulk + incremental: bulk-load half, insert the other half.
TEST(EcdfBTree, InsertAfterBulkLoadMatchesOracle) {
  for (EcdfVariant variant :
       {EcdfVariant::kUpdateOptimized, EcdfVariant::kQueryOptimized}) {
    MemPageFile file(512);
    BufferPool pool(&file, 256);
    EcdfBTree<double> tree(&pool, 2, variant);
    NaiveDominanceSum<double> naive(2);
    auto pts = RandomPoints(2000, 2, 77);
    std::vector<PointEntry<double>> first(pts.begin(), pts.begin() + 1000);
    ASSERT_TRUE(tree.BulkLoad(first).ok());
    for (const auto& e : first) naive.Insert(e.pt, e.value);
    for (size_t i = 1000; i < pts.size(); ++i) {
      ASSERT_TRUE(tree.Insert(pts[i].pt, pts[i].value).ok());
      naive.Insert(pts[i].pt, pts[i].value);
    }
    for (const Point& q : RandomQueries(100, 2, 6)) {
      double got;
      ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
      ASSERT_NEAR(got, naive.Query(q), 1e-6);
    }
  }
}

TEST(EcdfBTree, DeletionViaInverseValues) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  EcdfBTree<double> tree(&pool, 2, EcdfVariant::kUpdateOptimized);
  auto pts = RandomPoints(500, 2, 31);
  for (const auto& e : pts) {
    ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
  }
  // Remove every odd-indexed point by inserting its inverse.
  NaiveDominanceSum<double> naive(2);
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i % 2 == 1) {
      ASSERT_TRUE(tree.Insert(pts[i].pt, -pts[i].value).ok());
    } else {
      naive.Insert(pts[i].pt, pts[i].value);
    }
  }
  for (const Point& q : RandomQueries(100, 2, 8)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6);
  }
}

TEST(EcdfBTree, ScanAllReturnsSortedCoalescedPoints) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  EcdfBTree<double> tree(&pool, 2, EcdfVariant::kUpdateOptimized);
  ASSERT_TRUE(tree.Insert(Point(2, 2), 1.0).ok());
  ASSERT_TRUE(tree.Insert(Point(1, 5), 2.0).ok());
  ASSERT_TRUE(tree.Insert(Point(2, 1), 3.0).ok());
  ASSERT_TRUE(tree.Insert(Point(2, 2), 4.0).ok());  // coalesces
  std::vector<PointEntry<double>> all;
  ASSERT_TRUE(tree.ScanAll(&all).ok());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].pt, Point(1, 5));
  EXPECT_EQ(all[1].pt, Point(2, 1));
  EXPECT_EQ(all[2].pt, Point(2, 2));
  EXPECT_EQ(all[2].value, 5.0);
}

TEST(EcdfBTree, DestroyReleasesEveryPageIncludingBorders) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  uint64_t before = file.live_page_count();
  EcdfBTree<double> tree(&pool, 2, EcdfVariant::kQueryOptimized);
  ASSERT_TRUE(tree.BulkLoad(RandomPoints(2000, 2, 55)).ok());
  uint64_t pages = 0;
  ASSERT_TRUE(tree.PageCount(&pages).ok());
  EXPECT_GT(pages, 10u);
  EXPECT_EQ(file.live_page_count() - before, pages);
  ASSERT_TRUE(tree.Destroy().ok());
  EXPECT_EQ(file.live_page_count(), before);
}

TEST(EcdfBTree, BqUsesMoreSpaceThanBu) {
  // Table 1: Sq = O(n B^{d-2} log^{d-1} n) vs Su = O(n/B log^{d-1} n). At
  // equal n the Bq tree must occupy strictly more pages.
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  auto pts = RandomPoints(4000, 2, 5, 1e6);
  EcdfBTree<double> bu(&pool, 2, EcdfVariant::kUpdateOptimized);
  EcdfBTree<double> bq(&pool, 2, EcdfVariant::kQueryOptimized);
  ASSERT_TRUE(bu.BulkLoad(pts).ok());
  ASSERT_TRUE(bq.BulkLoad(pts).ok());
  uint64_t su = 0, sq = 0;
  ASSERT_TRUE(bu.PageCount(&su).ok());
  ASSERT_TRUE(bq.PageCount(&sq).ok());
  EXPECT_GT(sq, su);
}

TEST(EcdfBTree, EmptyTreeQueries) {
  MemPageFile file(512);
  BufferPool pool(&file, 64);
  for (int dims : {1, 2, 3}) {
    EcdfBTree<double> tree(&pool, dims, EcdfVariant::kUpdateOptimized);
    double s = -1;
    ASSERT_TRUE(tree.DominanceSum(Point::MaxPoint(dims), &s).ok());
    EXPECT_EQ(s, 0.0);
    std::vector<PointEntry<double>> all;
    ASSERT_TRUE(tree.ScanAll(&all).ok());
    EXPECT_EQ(all.size(), 0u);
    uint64_t pages = 9;
    ASSERT_TRUE(tree.PageCount(&pages).ok());
    EXPECT_EQ(pages, 0u);
  }
}

TEST(EcdfBTree, HandleSurvivesReconstruction) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  PageId root;
  {
    EcdfBTree<double> tree(&pool, 2, EcdfVariant::kUpdateOptimized);
    ASSERT_TRUE(tree.BulkLoad(RandomPoints(1000, 2, 3)).ok());
    root = tree.root();
  }
  EcdfBTree<double> tree2(&pool, 2, EcdfVariant::kUpdateOptimized, root);
  NaiveDominanceSum<double> naive(2);
  for (const auto& e : RandomPoints(1000, 2, 3)) naive.Insert(e.pt, e.value);
  double got;
  ASSERT_TRUE(tree2.DominanceSum(Point(50, 50), &got).ok());
  EXPECT_NEAR(got, naive.Query(Point(50, 50)), 1e-6);
}

}  // namespace
}  // namespace boxagg
