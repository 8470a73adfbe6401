// Tests for the BA-tree (Sec. 5) with the paper's border-packing remedy:
// dominance-sum correctness against the naive oracle across dimensions,
// bulk-loaded and incrementally built trees (with pages small enough to force
// leaf splits, index splits, k-d-B forced-split cascades, and border spills),
// split border maintenance, coalescing, and storage accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "batree/packed_ba_tree.h"
#include "core/box_sum_index.h"
#include "core/naive.h"
#include "poly/poly2.h"
#include "storage/buffer_pool.h"
#include "workload/generators.h"

namespace boxagg {
namespace {

std::vector<PointEntry<double>> RandomPoints(int n, int dims, uint32_t seed,
                                             double key_range = 100.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uc(0, key_range);
  std::uniform_real_distribution<double> uv(-5, 5);
  std::vector<PointEntry<double>> out;
  for (int i = 0; i < n; ++i) {
    PointEntry<double> e;
    for (int d = 0; d < dims; ++d) e.pt[d] = std::floor(uc(rng));
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

TEST(PackedBaTree, EmptyTree) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  PackedBaTree<double> tree(&pool, 2);
  double s = -1;
  ASSERT_TRUE(tree.DominanceSum(Point(10, 10), &s).ok());
  EXPECT_EQ(s, 0.0);
  uint64_t pages = 7;
  ASSERT_TRUE(tree.PageCount(&pages).ok());
  EXPECT_EQ(pages, 0u);
}

TEST(PackedBaTree, SingleLeafBasics) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  PackedBaTree<double> tree(&pool, 2);
  ASSERT_TRUE(tree.Insert(Point(5, 5), 3.0).ok());
  ASSERT_TRUE(tree.Insert(Point(2, 8), 4.0).ok());
  ASSERT_TRUE(tree.Insert(Point(5, 5), 1.0).ok());  // coalesces
  double s;
  ASSERT_TRUE(tree.DominanceSum(Point(5, 5), &s).ok());
  EXPECT_EQ(s, 4.0);
  ASSERT_TRUE(tree.DominanceSum(Point(4, 10), &s).ok());
  EXPECT_EQ(s, 4.0);
  ASSERT_TRUE(tree.DominanceSum(Point(10, 10), &s).ok());
  EXPECT_EQ(s, 8.0);
  ASSERT_TRUE(tree.DominanceSum(Point(1, 1), &s).ok());
  EXPECT_EQ(s, 0.0);
  std::vector<PointEntry<double>> all;
  ASSERT_TRUE(tree.ScanAll(&all).ok());
  EXPECT_EQ(all.size(), 2u);
}

struct PParam {
  int dims;
  bool bulk;
  int n;
  uint32_t page_size;
  std::string Name() const {
    std::string s = "d";
    s += std::to_string(dims);
    s += bulk ? "_bulk" : "_inc";
    s += "_n";
    s += std::to_string(n);
    s += "_ps";
    s += std::to_string(page_size);
    return s;
  }
};

void CheckSweep(const PParam& p, uint32_t seed) {
  MemPageFile file(p.page_size);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, p.dims);
  NaiveDominanceSum<double> naive(p.dims);
  auto pts = RandomPoints(p.n, p.dims, seed);
  for (const auto& e : pts) naive.Insert(e.pt, e.value);
  if (p.bulk) {
    ASSERT_TRUE(tree.BulkLoad(pts).ok());
  } else {
    for (const auto& e : pts) {
      ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
    }
  }
  for (const Point& q : RandomQueries(200, p.dims, 9)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6) << q.ToString(p.dims);
  }
  // Also probe exactly at data points (boundary semantics).
  for (int i = 0; i < 50; ++i) {
    const Point& q = pts[static_cast<size_t>(i * 7 % p.n)].pt;
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6) << q.ToString(p.dims);
  }
}

const PParam kSweepShapes[] = {
    {1, false, 2000, 512}, {2, false, 1200, 512},  {2, false, 4000, 1024},
    {2, true, 4000, 512},  {2, true, 8000, 1024},  {3, false, 900, 1024},
    {3, true, 3000, 1024}, {3, true, 2000, 4096},
};

std::string SweepName(const ::testing::TestParamInfo<PParam>& info) {
  return info.param.Name();
}

// Two independent data draws over the same shapes: BaTreeSweep seeds each
// shape with 300 + n, PackedBaTreeSweep with 700 + n.
class BaTreeSweep : public ::testing::TestWithParam<PParam> {};
class PackedBaTreeSweep : public ::testing::TestWithParam<PParam> {};

TEST_P(BaTreeSweep, MatchesNaiveOracle) {
  CheckSweep(GetParam(), 300u + static_cast<uint32_t>(GetParam().n));
}

TEST_P(PackedBaTreeSweep, MatchesNaiveOracle) {
  CheckSweep(GetParam(), 700u + static_cast<uint32_t>(GetParam().n));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BaTreeSweep, ::testing::ValuesIn(kSweepShapes),
                         SweepName);
INSTANTIATE_TEST_SUITE_P(Sweep, PackedBaTreeSweep,
                         ::testing::ValuesIn(kSweepShapes), SweepName);

// Integer coordinates and values: every sum is exact in any order, so bulk
// and incremental trees must match the oracle bit for bit.
std::vector<PointEntry<double>> IntegerPoints(int n, int dims, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> coord(0, 500);
  std::vector<PointEntry<double>> out;
  for (int i = 0; i < n; ++i) {
    PointEntry<double> e;
    for (int d = 0; d < dims; ++d) e.pt[d] = coord(rng);
    e.value = 1 + rng() % 9;
    out.push_back(e);
  }
  return out;
}

class BaTreeBulkLoad : public ::testing::TestWithParam<int> {};

// Bulk load vs one-at-a-time Insert: different trees are allowed, but both
// must pass the deep structural audit and agree with the exact oracle.
TEST_P(BaTreeBulkLoad, BulkAndIncrementalAgreeWithOracle) {
  const int dims = GetParam();
  auto entries = IntegerPoints(4000, dims, 41);
  MemPageFile file_a(1024), file_b(1024);
  BufferPool pool_a(&file_a, 8192), pool_b(&file_b, 8192);
  PackedBaTree<double> bulk(&pool_a, dims), incremental(&pool_b, dims);
  NaiveDominanceSum<double> naive(dims);
  ASSERT_TRUE(bulk.BulkLoad(entries).ok());
  for (const auto& e : entries) {
    ASSERT_TRUE(incremental.Insert(e.pt, e.value).ok());
    naive.Insert(e.pt, e.value);
  }
  EXPECT_TRUE(bulk.CheckConsistency().ok());
  EXPECT_TRUE(incremental.CheckConsistency().ok());

  std::mt19937 rng(42);
  std::uniform_int_distribution<int> coord(0, 500);
  for (int i = 0; i < 100; ++i) {
    Point q;
    for (int d = 0; d < dims; ++d) q[d] = coord(rng);
    double a = 0, b = 0;
    ASSERT_TRUE(bulk.DominanceSum(q, &a).ok());
    ASSERT_TRUE(incremental.DominanceSum(q, &b).ok());
    ASSERT_EQ(a, naive.Query(q)) << i;
    ASSERT_EQ(b, naive.Query(q)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BaTreeBulkLoad, ::testing::Values(1, 2, 3));

TEST(PackedBaTree, AgreesWithOracleOnLargeBulkLoad) {
  MemPageFile file(8192);
  BufferPool pool(&file, 2048);
  auto pts = RandomPoints(30000, 2, 5, 10000.0);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  for (const auto& e : pts) naive.Insert(e.pt, e.value);
  ASSERT_TRUE(tree.BulkLoad(pts).ok());
  for (const Point& q : RandomQueries(300, 2, 6, 10000.0)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6) << q.ToString(2);
  }
}

// Test IDs under the BaTree suite name predate the unpacked tree's deletion;
// they now run on PackedBaTree with their own data draws and page shapes.

void CheckInsertAfterBulkLoad(int dims, uint32_t seed) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, dims);
  NaiveDominanceSum<double> naive(dims);
  auto pts = RandomPoints(4000, dims, seed);
  std::vector<PointEntry<double>> first(pts.begin(), pts.begin() + 2000);
  ASSERT_TRUE(tree.BulkLoad(first).ok());
  for (const auto& e : first) naive.Insert(e.pt, e.value);
  for (size_t i = 2000; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i].pt, pts[i].value).ok());
    naive.Insert(pts[i].pt, pts[i].value);
  }
  for (const Point& q : RandomQueries(200, dims, 10)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6) << q.ToString(dims);
  }
}

TEST(PackedBaTree, InsertAfterBulkLoad) { CheckInsertAfterBulkLoad(2, 71); }

TEST(BaTree, InsertAfterBulkLoad) { CheckInsertAfterBulkLoad(3, 171); }

void CheckDeletionViaInverseValues(int n, uint32_t seed) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  auto pts = RandomPoints(n, 2, seed);
  for (const auto& e : pts) {
    ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
  }
  NaiveDominanceSum<double> naive(2);
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(tree.Insert(pts[i].pt, -pts[i].value).ok());
    } else {
      naive.Insert(pts[i].pt, pts[i].value);
    }
  }
  for (const Point& q : RandomQueries(150, 2, 12)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6);
  }
}

TEST(PackedBaTree, DeletionViaInverseValues) {
  CheckDeletionViaInverseValues(1500, 41);
}

TEST(BaTree, DeletionViaInverseValues) {
  CheckDeletionViaInverseValues(1000, 141);
}

TEST(PackedBaTree, SkewedInsertionOrderStressesSplits) {
  // Sorted insertion order drives repeated splits on the same boundary and
  // exercises the forced-split cascade.
  MemPageFile file(512);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  std::vector<PointEntry<double>> pts;
  for (int i = 0; i < 1500; ++i) {
    PointEntry<double> e{Point(i % 40, i / 40 + (i % 7) * 0.25), 1.0};
    pts.push_back(e);
  }
  std::sort(pts.begin(), pts.end(),
            [](const auto& a, const auto& b) { return LexLess(a.pt, b.pt, 2); });
  for (const auto& e : pts) {
    ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
    naive.Insert(e.pt, e.value);
  }
  for (const Point& q : RandomQueries(150, 2, 13, 45.0)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-6);
  }
}

TEST(PackedBaTree, ColumnsAndRowsOfDuplicateCoordinates) {
  MemPageFile file(512);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  // Dense grid columns: many identical x values, many identical y values.
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 80; ++y) {
      Point p(x, y);
      ASSERT_TRUE(tree.Insert(p, 1.0).ok());
      naive.Insert(p, 1.0);
    }
  }
  for (const Point& q :
       {Point(6, 40), Point(0, 0), Point(11, 79), Point(5.5, 200),
        Point(-1, 50), Point(200, 200)}) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-9) << q.ToString(2);
  }
}

void CheckDestroyReleasesEverything(uint32_t page_size, int n,
                                    uint64_t min_pages) {
  MemPageFile file(page_size);
  BufferPool pool(&file, 512);
  uint64_t before = file.live_page_count();
  PackedBaTree<double> tree(&pool, 2);
  ASSERT_TRUE(tree.BulkLoad(RandomPoints(n, 2, 21)).ok());
  uint64_t pages = 0;
  ASSERT_TRUE(tree.PageCount(&pages).ok());
  EXPECT_GT(pages, min_pages);
  EXPECT_EQ(file.live_page_count() - before, pages);
  ASSERT_TRUE(tree.Destroy().ok());
  EXPECT_EQ(file.live_page_count(), before);
}

TEST(PackedBaTree, DestroyReleasesEverything) {
  CheckDestroyReleasesEverything(1024, 5000, 10);
}

// 512-byte pages: the border heap spills, so Destroy must free spill pages.
TEST(BaTree, DestroyReleasesEverything) {
  CheckDestroyReleasesEverything(512, 3000, 20);
}

TEST(PackedBaTree, PolynomialValues) {
  MemPageFile file(4096);
  BufferPool pool(&file, 512);
  PackedBaTree<Poly2<1>> tree(&pool, 2);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> uc(0, 100);
  std::vector<PointEntry<Poly2<1>>> pts;
  for (int i = 0; i < 600; ++i) {
    PointEntry<Poly2<1>> e;
    e.pt = Point(std::floor(uc(rng)), std::floor(uc(rng)));
    e.value.Set(1, 1, uc(rng));
    e.value.Set(0, 0, uc(rng) - 50);
    pts.push_back(e);
    ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
  }
  NaiveDominanceSum<Poly2<1>> naive(2);
  for (const auto& e : pts) naive.Insert(e.pt, e.value);
  for (const Point& q : RandomQueries(60, 2, 14)) {
    Poly2<1> got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    EXPECT_TRUE(got.NearlyEquals(naive.Query(q), 1e-6)) << q.ToString(2);
  }
}

TEST(PackedBaTree, MassiveCoalescingKeepsOneEntry) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  PackedBaTree<double> tree(&pool, 2);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Insert(Point(3, 4), 1.0).ok());
  }
  std::vector<PointEntry<double>> all;
  ASSERT_TRUE(tree.ScanAll(&all).ok());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].value, 500.0);
  double s;
  ASSERT_TRUE(tree.DominanceSum(Point(3, 4), &s).ok());
  EXPECT_EQ(s, 500.0);
}

TEST(PackedBaTree, SpilledBordersStillCorrect) {
  // Adversarial shape: one very wide row of points under a tall column makes
  // some borders huge (forced spills) while others stay tiny (inline).
  MemPageFile file(512);  // tiny pages force spills early
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  std::mt19937 rng(8);
  std::uniform_real_distribution<double> u(0, 1000);
  for (int i = 0; i < 3000; ++i) {
    // 80% of mass on a thin horizontal band, 20% spread out.
    Point p = (i % 5 != 0) ? Point(u(rng), u(rng) / 100.0)
                           : Point(u(rng), u(rng));
    ASSERT_TRUE(tree.Insert(p, 1.0).ok());
    naive.Insert(p, 1.0);
  }
  for (const Point& q : RandomQueries(200, 2, 15, 1000.0)) {
    double got;
    ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
    ASSERT_NEAR(got, naive.Query(q), 1e-9) << q.ToString(2);
  }
}

TEST(PackedBaTree, WorksInsideBoxSumReduction) {
  MemPageFile file(2048);
  BufferPool pool(&file, 1024);
  workload::RectConfig cfg;
  cfg.n = 3000;
  cfg.avg_side = 0.03;
  auto objs = workload::UniformRects(cfg);
  NaiveBoxSum naive(2);
  for (const auto& o : objs) naive.Insert(o.box, o.value);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  ASSERT_TRUE(index.BulkLoad(objs).ok());
  for (double qbs : {0.0001, 0.01, 0.2}) {
    for (const Box& q : workload::QueryBoxes(25, qbs, 77)) {
      double got;
      ASSERT_TRUE(index.Query(q, &got).ok());
      ASSERT_NEAR(got, naive.Sum(q), 1e-6 + 1e-9 * std::abs(naive.Sum(q)));
    }
  }
}

// ---- bulk-load structure ----------------------------------------------------

// Points on a coarse integer grid (0..side-1 per dimension) with integer
// values: heavy coordinate ties and coalesced duplicates, every sum exact.
// `flat_dim` >= 0 pins that dimension to one value (zero spread).
std::vector<PointEntry<double>> GridPoints(int n, int dims, int side,
                                           uint32_t seed, int flat_dim = -1) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> coord(0, side - 1);
  std::vector<PointEntry<double>> out;
  for (int i = 0; i < n; ++i) {
    PointEntry<double> e;
    for (int d = 0; d < dims; ++d) e.pt[d] = d == flat_dim ? 3 : coord(rng);
    e.value = 1 + rng() % 9;
    out.push_back(e);
  }
  return out;
}

struct TieCase {
  int dims;
  int side;
  int flat_dim;
};

// The bulk split's tie rules: a median equal to the region minimum moves up
// to the next larger value, and a zero-spread dimension is never chosen.
TEST(PackedBaTree, TieHeavyBulkLoadsMatchOracleExactly) {
  for (const TieCase& tc : {TieCase{2, 64, -1}, TieCase{3, 16, -1},
                            TieCase{4, 8, -1}, TieCase{3, 64, 1}}) {
    SCOPED_TRACE("d=" + std::to_string(tc.dims) +
                 " flat=" + std::to_string(tc.flat_dim));
    auto pts = GridPoints(6000, tc.dims, tc.side, 51, tc.flat_dim);
    MemPageFile file(1024);
    BufferPool pool(&file, 4096);
    PackedBaTree<double> tree(&pool, tc.dims);
    NaiveDominanceSum<double> naive(tc.dims);
    for (const auto& e : pts) naive.Insert(e.pt, e.value);
    ASSERT_TRUE(tree.BulkLoad(pts).ok());
    ASSERT_TRUE(tree.CheckConsistency().ok());
    std::mt19937 rng(52);
    std::uniform_int_distribution<int> coord(-1, 2 * tc.side);
    for (int i = 0; i < 300; ++i) {
      Point q;
      for (int d = 0; d < tc.dims; ++d) q[d] = coord(rng) * 0.5;
      double got = 0;
      ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
      ASSERT_EQ(got, naive.Query(q)) << q.ToString(tc.dims);
    }
  }
}

// An inline-border scan stops at the first entry whose first coordinate
// passes the probe's. Here dimensions 0 and 1 take only 4 values while
// dimension 2 takes 200, so every 2-d inline border (whose first coordinate
// is dimension 0 or 1) repeats each first coordinate many times, and the
// integer probes land exactly on them: entries tied with the probe's first
// coordinate must still get the full dominance test on the second.
TEST(PackedBaTree, InlineBorderScanWithTiedFirstCoordinates) {
  std::mt19937 rng(61);
  std::vector<PointEntry<double>> pts;
  for (int i = 0; i < 6000; ++i) {
    PointEntry<double> e;
    e.pt = Point(rng() % 4, rng() % 4, rng() % 200);
    e.value = 1 + rng() % 9;
    pts.push_back(e);
  }
  NaiveDominanceSum<double> naive(3);
  for (const auto& e : pts) naive.Insert(e.pt, e.value);
  std::vector<Point> qs;
  for (int x = -1; x <= 4; ++x) {
    for (int y = -1; y <= 4; ++y) {
      for (int z = -10; z <= 210; z += 11) qs.push_back(Point(x, y, z));
    }
  }
  for (bool bulk : {true, false}) {
    SCOPED_TRACE(bulk ? "bulk load" : "inserts");
    MemPageFile file(1024);
    BufferPool pool(&file, 4096);
    PackedBaTree<double> tree(&pool, 3);
    if (bulk) {
      ASSERT_TRUE(tree.BulkLoad(pts).ok());
    } else {
      for (const auto& e : pts) ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
    }
    ASSERT_TRUE(tree.CheckConsistency().ok());
    std::vector<double> got(qs.size());
    ASSERT_TRUE(tree.DominanceSumBatch(qs.data(), qs.size(), got.data()).ok());
    for (size_t i = 0; i < qs.size(); ++i) {
      ASSERT_EQ(got[i], naive.Query(qs[i])) << qs[i].ToString(3);
      double one = 0;
      ASSERT_TRUE(tree.DominanceSum(qs[i], &one).ok());
      ASSERT_EQ(one, got[i]) << qs[i].ToString(3);
    }
  }
}

// The same distinct point set in three input orders builds byte-identical
// page files: leaf entries, border entries and every sum are in a canonical
// order.
TEST(PackedBaTree, BulkLoadIgnoresInputOrder) {
  for (int dims : {2, 3}) {
    SCOPED_TRACE("d=" + std::to_string(dims));
    auto pts = RandomPoints(5000, dims, 61);
    SortAndCoalesce(&pts, dims);
    std::mt19937 rng(62);
    std::uniform_real_distribution<double> uv(-5, 5);
    for (auto& e : pts) e.value = uv(rng);
    std::vector<std::vector<std::vector<uint8_t>>> images;
    for (int run = 0; run < 3; ++run) {
      std::shuffle(pts.begin(), pts.end(), rng);
      MemPageFile file(1024);
      BufferPool pool(&file, 4096);
      PackedBaTree<double> tree(&pool, dims);
      ASSERT_TRUE(tree.BulkLoad(pts).ok());
      ASSERT_TRUE(pool.FlushAll().ok());
      std::vector<std::vector<uint8_t>> image;
      Page page(file.page_size());
      for (PageId id = 0; id < file.page_count(); ++id) {
        ASSERT_TRUE(file.ReadPage(id, &page).ok());
        image.emplace_back(page.data(), page.data() + page.size());
      }
      images.push_back(std::move(image));
    }
    EXPECT_TRUE(images[0] == images[1]);
    EXPECT_TRUE(images[0] == images[2]);
  }
}

void HashBytes(const void* data, size_t n, uint64_t* h) {
  const auto* b = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= b[i];
    *h *= 0x100000001b3ull;  // FNV-1a
  }
}

void HashDouble(double v, uint64_t* h) { HashBytes(&v, sizeof(v), h); }

// Hashes every internal node's record boxes and the points (not values) of
// every border, inline or spilled, in page order, decoding the packed layout
// documented in batree/packed_ba_tree.h (V = double). Leaf pages and values
// are left out.
void HashStructure(BufferPool* pool, int dims, PageId pid, uint64_t* h) {
  std::vector<PageId> children;
  {
    PageGuard g;
    ASSERT_TRUE(pool->Fetch(pid, &g).ok());
    const Page* p = g.page();
    if (p->ReadAt<uint16_t>(0) != 10) return;  // leaf
    const uint32_t n = p->ReadAt<uint32_t>(4);
    const uint32_t rec_size =
        sizeof(Box) + 16 + 8 * static_cast<uint32_t>(dims);
    const uint32_t entry_size = 8 * static_cast<uint32_t>(dims);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t off = 16 + i * rec_size;
      const Box box = p->ReadAt<Box>(off);
      for (int d = 0; d < dims; ++d) {
        HashDouble(box.lo[d], h);
        HashDouble(box.hi[d], h);
      }
      children.push_back(p->ReadAt<uint64_t>(off + sizeof(Box)));
      for (int b = 0; b < dims; ++b) {
        const uint64_t ref = p->ReadAt<uint64_t>(
            off + sizeof(Box) + 16 + 8 * static_cast<uint32_t>(b));
        std::vector<Point> border;
        uint8_t kind = 0;
        if (ref == ~uint64_t{0}) {
          kind = 0;
        } else if ((ref >> 63) != 0) {
          kind = 1;
          const auto block = static_cast<uint32_t>(ref);
          const uint16_t cnt = p->ReadAt<uint16_t>(block);
          for (uint32_t k = 0; k < cnt; ++k) {
            Point q;
            for (int d = 0; d < dims - 1; ++d) {
              q[d] = p->ReadAt<double>(block + 4 + k * entry_size +
                                       8 * static_cast<uint32_t>(d));
            }
            border.push_back(q);
          }
        } else {
          kind = 2;
          PackedBaTree<double> sub(pool, dims - 1, static_cast<PageId>(ref));
          std::vector<PointEntry<double>> es;
          ASSERT_TRUE(sub.ScanAll(&es).ok());
          for (const auto& e : es) border.push_back(e.pt);
        }
        HashBytes(&kind, 1, h);
        for (const Point& q : border) {
          for (int d = 0; d < dims - 1; ++d) HashDouble(q[d], h);
        }
      }
    }
  }
  for (PageId c : children) HashStructure(pool, dims, c, h);
}

struct StructureGolden {
  int dims;
  uint32_t page_size;
  int n;
  uint64_t pages;
  uint64_t hash;
};

// Regions, border entry sets and spill decisions of fixed-seed bulk loads,
// recorded from the build that sorted every region at every split.
TEST(PackedBaTree, BulkLoadStructureGolden) {
  const StructureGolden kGolden[] = {
      {2, 2048, 6000, 200, 17704083864494823822ull},
      {3, 2048, 5000, 1047, 17762361187503331683ull},
      {4, 4096, 4000, 817, 11219665250272457466ull},
  };
  for (const StructureGolden& gd : kGolden) {
    SCOPED_TRACE("d=" + std::to_string(gd.dims));
    MemPageFile file(gd.page_size);
    BufferPool pool(&file, 4096);
    PackedBaTree<double> tree(&pool, gd.dims);
    ASSERT_TRUE(
        tree.BulkLoad(RandomPoints(gd.n, gd.dims, 80u + gd.dims)).ok());
    uint64_t pages = 0;
    ASSERT_TRUE(tree.PageCount(&pages).ok());
    uint64_t hash = 0xcbf29ce484222325ull;
    HashStructure(&pool, gd.dims, tree.root(), &hash);
    EXPECT_EQ(pages, gd.pages);
    EXPECT_EQ(hash, gd.hash);
  }
}

// Border sizes of a d = 2 tree, from the packed internal layout documented
// in batree/packed_ba_tree.h: the entry count of every inline block and of
// every spilled border, which at d = 2 is an AggBTree.
struct BorderSizes {
  std::vector<uint64_t> inline_sizes;
  std::vector<uint64_t> spilled_sizes;
};

template <class Pred>
bool Any(const std::vector<uint64_t>& sizes, Pred pred) {
  return std::any_of(sizes.begin(), sizes.end(), pred);
}

template <class V>
void CollectBorderSizes(BufferPool* pool, PageId pid, BorderSizes* out) {
  std::vector<PageId> children;
  std::vector<PageId> spilled;
  {
    PageGuard g;
    ASSERT_TRUE(pool->Fetch(pid, &g).ok());
    const Page* p = g.page();
    if (p->ReadAt<uint16_t>(0) != 10) return;  // leaf
    const uint32_t n = p->ReadAt<uint32_t>(4);
    const uint32_t rec_size = sizeof(Box) + 8 + sizeof(V) + 16;
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t off = 16 + i * rec_size;
      children.push_back(p->ReadAt<uint64_t>(off + sizeof(Box)));
      for (uint32_t b = 0; b < 2; ++b) {
        const uint64_t ref =
            p->ReadAt<uint64_t>(off + sizeof(Box) + 8 + sizeof(V) + 8 * b);
        if (ref == ~uint64_t{0}) continue;
        if ((ref >> 63) != 0) {
          out->inline_sizes.push_back(
              p->ReadAt<uint16_t>(static_cast<uint32_t>(ref)));
        } else {
          spilled.push_back(ref);
        }
      }
    }
  }
  for (PageId b : spilled) {
    uint64_t count = 0;
    ASSERT_TRUE(AggBTree<V>(pool, b).CountEntries(&count).ok());
    out->spilled_sizes.push_back(count);
  }
  for (PageId c : children) CollectBorderSizes<V>(pool, c, out);
}

// Bulk-loads grid points (RandomPoints' coordinates, `value` of its values)
// into a d = 2 tree, pins the page file byte for byte against a hash
// recorded from the build that held every border whole until StoreNode
// spilled it, and returns the tree's border sizes.
template <class V>
BorderSizes CheckBulkLoadPages(uint32_t page_size, int n, uint32_t seed,
                               V (*value)(double), uint64_t want_pages,
                               uint64_t want_hash) {
  std::vector<PointEntry<V>> pts;
  for (const auto& e : RandomPoints(n, 2, seed, 1000.0)) {
    pts.push_back(PointEntry<V>{e.pt, value(e.value)});
  }
  MemPageFile file(page_size);
  BufferPool pool(&file, 4096);
  PackedBaTree<V> tree(&pool, 2);
  BorderSizes sizes;
  EXPECT_TRUE(tree.BulkLoad(pts).ok());
  EXPECT_TRUE(pool.FlushAll().ok());
  CollectBorderSizes<V>(&pool, tree.root(), &sizes);
  uint64_t hash = 0xcbf29ce484222325ull;
  Page page(page_size);
  for (PageId id = 0; id < file.page_count(); ++id) {
    EXPECT_TRUE(file.ReadPage(id, &page).ok());
    HashBytes(page.data(), page.size(), &hash);
  }
  EXPECT_EQ(file.page_count(), want_pages);
  EXPECT_EQ(hash, want_hash);
  return sizes;
}

double DoubleValue(double v) { return v; }

Poly2<3> PolyValue(double v) {
  Poly2<3> p;
  for (size_t i = 0; i < p.c.size(); ++i) {
    p.c[i] = v * static_cast<double>(i + 1);
  }
  return p;
}

// The inputs cover the border-streaming boundaries: borders over the
// 192-entry inline cap, one of exactly 193 entries (streamed from its last
// entry on), one longer than two leaves whose tail is leaf_target + 1
// entries, and one of exactly 192 that stays in its node page.
TEST(PackedBaTree, BulkLoadPageImageGolden) {
  const uint64_t leaf = AggBTree<double>::LeafCapacity(1024);
  const BorderSizes spilled = CheckBulkLoadPages<double>(
      1024, 6000, 3, DoubleValue, 1131, 18252936063024948335ull);
  EXPECT_TRUE(Any(spilled.spilled_sizes, [](uint64_t s) { return s == 193; }));
  EXPECT_TRUE(Any(spilled.spilled_sizes, [leaf](uint64_t s) {
    return s > 2 * leaf && s % leaf == 1;
  }));
  const BorderSizes packed = CheckBulkLoadPages<double>(
      8192, 1050, 13, DoubleValue, 15, 15323280843339218045ull);
  EXPECT_TRUE(Any(packed.inline_sizes, [](uint64_t s) { return s == 192; }));
}

TEST(PackedBaTree, PolynomialBulkLoadPageImageGolden) {
  const uint64_t leaf = AggBTree<Poly2<3>>::LeafCapacity(2048);
  const BorderSizes sizes = CheckBulkLoadPages<Poly2<3>>(
      2048, 6000, 3, PolyValue, 3340, 9606972273644012132ull);
  EXPECT_TRUE(Any(sizes.spilled_sizes, [](uint64_t s) { return s == 193; }));
  EXPECT_TRUE(Any(sizes.spilled_sizes, [leaf](uint64_t s) {
    return s > 2 * leaf && s % leaf == 1;
  }));
}

}  // namespace
}  // namespace boxagg
