// Tests for the reduction layer: the 2^d corner-transform BoxSumIndex
// (Lemma 1 / Theorem 2), the Edelsbrunner-Overmars baseline reduction
// (Theorem 1), COUNT/AVG aggregation (in 1-d: temporal intervals), and
// cross-validation of every dominance-sum backend against the naive oracle
// and the aR-tree.

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "batree/packed_ba_tree.h"
#include "core/box_sum_index.h"
#include "core/naive.h"
#include "ecdf/ecdf_btree.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "workload/generators.h"

namespace boxagg {
namespace {

std::vector<BoxObject> World(int n, uint32_t seed, double avg_side = 0.03) {
  workload::RectConfig cfg;
  cfg.n = static_cast<size_t>(n);
  cfg.avg_side = avg_side;
  cfg.seed = seed;
  return workload::UniformRects(cfg);
}

TEST(ReductionCounts, TheoremOneVersusTheoremTwo) {
  // [13] needs 3^d - 1 dominance-sums; the corner transform needs 2^d.
  EXPECT_EQ(EoQueryCount(1), 2u);
  EXPECT_EQ(EoQueryCount(2), 8u);
  EXPECT_EQ(EoQueryCount(3), 26u);  // the paper: "26 queries while ours 8"
  EXPECT_EQ(EoQueryCount(4), 80u);
  EXPECT_EQ(CornerQueryCount(2), 4u);
  EXPECT_EQ(CornerQueryCount(3), 8u);
  for (int d = 1; d <= 8; ++d) {
    uint64_t three_pow = 1;
    for (int i = 0; i < d; ++i) three_pow *= 3;
    EXPECT_EQ(EoQueryCount(d), three_pow - 1) << d;
    // Equal at d = 1; the corner transform wins strictly for d >= 2.
    if (d == 1) {
      EXPECT_EQ(CornerQueryCount(d), EoQueryCount(d));
    } else {
      EXPECT_LT(CornerQueryCount(d), EoQueryCount(d)) << d;
    }
  }
}

TEST(StrictlyBelowTest, ExactStrictInequality) {
  double x = 0.37;
  EXPECT_LT(StrictlyBelow(x), x);
  // No double fits between StrictlyBelow(x) and x.
  EXPECT_EQ(std::nextafter(StrictlyBelow(x), 1e300), x);
}

TEST(CornerTransform, StorageAndQueryCorners) {
  Box b(Point(1, 2), Point(3, 4));
  EXPECT_EQ(StorageCorner(b, 0b00, 2), Point(1, 2));
  EXPECT_EQ(StorageCorner(b, 0b01, 2), Point(3, 2));
  EXPECT_EQ(StorageCorner(b, 0b10, 2), Point(1, 4));
  EXPECT_EQ(StorageCorner(b, 0b11, 2), Point(3, 4));
  Box q(Point(10, 20), Point(30, 40));
  Point q0 = QueryCorner(q, 0b00, 2);
  EXPECT_EQ(q0, Point(30, 40));  // (hi_x, hi_y)
  Point q3 = QueryCorner(q, 0b11, 2);
  EXPECT_LT(q3[0], 10.0);
  EXPECT_LT(q3[1], 20.0);
  EXPECT_EQ(MaskSign(0b00), 1.0);
  EXPECT_EQ(MaskSign(0b01), -1.0);
  EXPECT_EQ(MaskSign(0b11), 1.0);
}

// The worked example of Fig. 3a with simple box-sum semantics: query
// [5,20]x[3,15] intersects the value-4 and value-3 objects but not the
// value-6 one; the simple box-sum is 7.
TEST(BoxSumIndexTest, PaperFig3aSimpleAnswerIsSeven) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  ASSERT_TRUE(index.Insert(Box(Point(2, 10), Point(15, 26)), 4.0).ok());
  ASSERT_TRUE(index.Insert(Box(Point(18, 4), Point(30, 10)), 3.0).ok());
  ASSERT_TRUE(index.Insert(Box(Point(22, 18), Point(28, 26)), 6.0).ok());
  double s;
  ASSERT_TRUE(index.Query(Box(Point(5, 3), Point(20, 15)), &s).ok());
  EXPECT_DOUBLE_EQ(s, 7.0);
}

TEST(BoxSumIndexTest, TouchingBoxesCountAsIntersecting) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  ASSERT_TRUE(index.Insert(Box(Point(0, 0), Point(1, 1)), 5.0).ok());
  double s;
  // Query touching at the corner point (1,1).
  ASSERT_TRUE(index.Query(Box(Point(1, 1), Point(2, 2)), &s).ok());
  EXPECT_DOUBLE_EQ(s, 5.0);
  // Query strictly beyond.
  ASSERT_TRUE(
      index.Query(Box(Point(1.0000001, 1), Point(2, 2)), &s).ok());
  EXPECT_DOUBLE_EQ(s, 0.0);
  // Object strictly right of the query: the A^1 strictness matters.
  ASSERT_TRUE(index.Query(Box(Point(-1, -1), Point(0, 0)), &s).ok());
  EXPECT_DOUBLE_EQ(s, 5.0);  // touches at (0,0)
}

enum class Backend { kBu, kBq, kBat };

struct CrossParam {
  Backend backend;
  bool bulk;
  int n;
  std::string Name() const {
    std::string b = backend == Backend::kBu   ? "ECDFu"
                    : backend == Backend::kBq ? "ECDFq"
                                              : "BAT";
    return b + (bulk ? "_bulk" : "_inc") + "_n" + std::to_string(n);
  }
};

class BoxSumCross : public ::testing::TestWithParam<CrossParam> {};

// Every backend, bulk and incremental, must agree with the naive oracle and
// with an aR-tree over the same objects, across query sizes.
TEST_P(BoxSumCross, AgreesWithOracleAndArTree) {
  const CrossParam p = GetParam();
  MemPageFile file(2048);
  BufferPool pool(&file, 1024);
  auto objs = World(p.n, 500u + static_cast<uint32_t>(p.n));
  NaiveBoxSum naive(2);
  for (const auto& o : objs) naive.Insert(o.box, o.value);
  RStarTree<> artree(&pool, 2);
  {
    std::vector<RStarTree<>::Object> items;
    for (const auto& o : objs) items.push_back({o.box, o.value});
    ASSERT_TRUE(artree.BulkLoad(std::move(items)).ok());
  }

  auto run = [&](auto& index) {
    if (p.bulk) {
      ASSERT_TRUE(index.BulkLoad(objs).ok());
    } else {
      for (const auto& o : objs) {
        ASSERT_TRUE(index.Insert(o.box, o.value).ok());
      }
    }
    for (double qbs : {0.0001, 0.01, 0.25}) {
      for (const Box& q : workload::QueryBoxes(25, qbs, 77)) {
        double got, ar;
        ASSERT_TRUE(index.Query(q, &got).ok());
        ASSERT_TRUE(artree.AggregateQuery(q, true, &ar).ok());
        double want = naive.Sum(q);
        ASSERT_NEAR(got, want, 1e-6 + 1e-9 * std::abs(want)) << qbs;
        ASSERT_NEAR(ar, want, 1e-6 + 1e-9 * std::abs(want)) << qbs;
      }
    }
  };

  switch (p.backend) {
    case Backend::kBu: {
      BoxSumIndex<EcdfBTree<double>> index(2, [&] {
        return EcdfBTree<double>(&pool, 2, EcdfVariant::kUpdateOptimized);
      });
      run(index);
      break;
    }
    case Backend::kBq: {
      BoxSumIndex<EcdfBTree<double>> index(2, [&] {
        return EcdfBTree<double>(&pool, 2, EcdfVariant::kQueryOptimized);
      });
      run(index);
      break;
    }
    case Backend::kBat: {
      BoxSumIndex<PackedBaTree<double>> index(
          2, [&] { return PackedBaTree<double>(&pool, 2); });
      run(index);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BoxSumCross,
    ::testing::Values(CrossParam{Backend::kBu, false, 1200},
                      CrossParam{Backend::kBu, true, 4000},
                      CrossParam{Backend::kBq, false, 800},
                      CrossParam{Backend::kBq, true, 4000},
                      CrossParam{Backend::kBat, false, 1200},
                      CrossParam{Backend::kBat, true, 4000}),
    [](const ::testing::TestParamInfo<CrossParam>& info) {
      return info.param.Name();
    });

TEST(EoReduction, MatchesOracleAndCornerTransform) {
  MemPageFile file(2048);
  BufferPool pool(&file, 1024);
  auto objs = World(1500, 9);
  NaiveBoxSum naive(2);
  for (const auto& o : objs) naive.Insert(o.box, o.value);
  EoBoxSumIndex<EcdfBTree<double>> eo(2, [&](int dims) {
    return EcdfBTree<double>(&pool, dims, EcdfVariant::kUpdateOptimized);
  });
  EXPECT_EQ(eo.index_count(), 8u);  // 3^2 - 1
  BoxSumIndex<EcdfBTree<double>> corner(2, [&] {
    return EcdfBTree<double>(&pool, 2, EcdfVariant::kUpdateOptimized);
  });
  for (const auto& o : objs) {
    ASSERT_TRUE(eo.Insert(o.box, o.value).ok());
    ASSERT_TRUE(corner.Insert(o.box, o.value).ok());
  }
  for (double qbs : {0.0005, 0.05}) {
    for (const Box& q : workload::QueryBoxes(30, qbs, 13)) {
      double a, b;
      ASSERT_TRUE(eo.Query(q, &a).ok());
      ASSERT_TRUE(corner.Query(q, &b).ok());
      double want = naive.Sum(q);
      ASSERT_NEAR(a, want, 1e-6 + 1e-9 * std::abs(want));
      ASSERT_NEAR(b, want, 1e-6 + 1e-9 * std::abs(want));
    }
  }
}

TEST(EoReduction, BulkLoadMatchesIncremental) {
  MemPageFile file(2048);
  BufferPool pool(&file, 1024);
  auto objs = World(2000, 15);
  EoBoxSumIndex<EcdfBTree<double>> bulk(2, [&](int dims) {
    return EcdfBTree<double>(&pool, dims, EcdfVariant::kUpdateOptimized);
  });
  ASSERT_TRUE(bulk.BulkLoad(objs).ok());
  NaiveBoxSum naive(2);
  for (const auto& o : objs) naive.Insert(o.box, o.value);
  for (const Box& q : workload::QueryBoxes(40, 0.01, 3)) {
    double got;
    ASSERT_TRUE(bulk.Query(q, &got).ok());
    ASSERT_NEAR(got, naive.Sum(q), 1e-6 + 1e-9 * std::abs(naive.Sum(q)));
  }
}

TEST(BoxAggregatorTest, SumCountAvg) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  BoxAggregator<PackedBaTree<double>> agg(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  auto objs = World(500, 21);
  NaiveBoxSum naive(2);
  for (const auto& o : objs) {
    ASSERT_TRUE(agg.Insert(o.box, o.value).ok());
    naive.Insert(o.box, o.value);
  }
  for (const Box& q : workload::QueryBoxes(30, 0.02, 5)) {
    double s, c, a;
    ASSERT_TRUE(agg.Sum(q, &s).ok());
    ASSERT_TRUE(agg.Count(q, &c).ok());
    ASSERT_TRUE(agg.Avg(q, &a).ok());
    double want_sum = naive.Sum(q);
    uint64_t want_cnt = naive.Count(q);
    ASSERT_NEAR(s, want_sum, 1e-6 + 1e-9 * std::abs(want_sum));
    ASSERT_NEAR(c, static_cast<double>(want_cnt), 1e-6);
    if (want_cnt > 0) {
      ASSERT_NEAR(a, want_sum / static_cast<double>(want_cnt), 1e-6);
    } else {
      ASSERT_EQ(a, 0.0);
    }
  }
}

TEST(BoxSumIndexTest, EraseRemovesObjects) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  auto objs = World(400, 33);
  for (const auto& o : objs) {
    ASSERT_TRUE(index.Insert(o.box, o.value).ok());
  }
  NaiveBoxSum naive(2);
  for (size_t i = 0; i < objs.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(index.Erase(objs[i].box, objs[i].value).ok());
    } else {
      naive.Insert(objs[i].box, objs[i].value);
    }
  }
  for (const Box& q : workload::QueryBoxes(30, 0.05, 6)) {
    double got;
    ASSERT_TRUE(index.Query(q, &got).ok());
    ASSERT_NEAR(got, naive.Sum(q), 1e-6 + 1e-9 * std::abs(naive.Sum(q)));
  }
}

TEST(BoxSumIndexTest, ThreeDimensionalObjects) {
  // The pesticide example's shape: 2-d area x time interval = 3-d boxes.
  MemPageFile file(2048);
  BufferPool pool(&file, 1024);
  BoxSumIndex<PackedBaTree<double>> index(
      3, [&] { return PackedBaTree<double>(&pool, 3); });
  EXPECT_EQ(index.index_count(), 8u);  // 2^3 dominance indexes
  std::mt19937 rng(44);
  std::uniform_real_distribution<double> u(0, 1);
  NaiveBoxSum naive(3);
  for (int i = 0; i < 600; ++i) {
    Point lo(u(rng), u(rng), u(rng));
    Point hi(lo[0] + u(rng) * 0.2, lo[1] + u(rng) * 0.2, lo[2] + u(rng) * 0.2);
    Box b(lo, hi);
    double v = u(rng) * 10;
    ASSERT_TRUE(index.Insert(b, v).ok());
    naive.Insert(b, v);
  }
  for (int i = 0; i < 40; ++i) {
    Point lo(u(rng), u(rng), u(rng));
    Point hi(lo[0] + 0.3, lo[1] + 0.3, lo[2] + 0.3);
    Box q(lo, hi);
    double got;
    ASSERT_TRUE(index.Query(q, &got).ok());
    ASSERT_NEAR(got, naive.Sum(q), 1e-6 + 1e-9 * std::abs(naive.Sum(q)));
  }
}

// Malformed boxes: an inverted side (lo > hi) or a NaN coordinate is
// rejected at every entry point before any index is touched. Infinite and
// degenerate sides stay valid.
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

bool IsInvalidArgument(const Status& s) {
  return s.code() == Status::Code::kInvalidArgument;
}

TEST(BoxSumIndexTest, InsertAndEraseRejectMalformedBoxes) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  ASSERT_TRUE(index.Insert(Box(Point(2, 10), Point(15, 26)), 4.0).ok());
  EXPECT_TRUE(IsInvalidArgument(
      index.Insert(Box(Point(0.6, 0.6), Point(0.2, 0.2)), 1.0)));
  EXPECT_TRUE(IsInvalidArgument(
      index.Insert(Box(Point(kNaN, 0.2), Point(0.6, 0.6)), 1.0)));
  EXPECT_TRUE(IsInvalidArgument(
      index.Erase(Box(Point(15, 26), Point(2, 10)), 4.0)));
  // The rejected calls left the stored sum alone.
  double s;
  ASSERT_TRUE(index.Query(Box::Universe(2), &s).ok());
  EXPECT_DOUBLE_EQ(s, 4.0);
}

TEST(BoxSumIndexTest, QueryRejectsMalformedBoxes) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  ASSERT_TRUE(index.Insert(Box(Point(0.3, 0.3), Point(0.4, 0.4)), 1.0).ok());
  double s = 0;
  const Box inverted(Point(0.6, 0.6), Point(0.2, 0.2));
  const Box nan_lo(Point(kNaN, 0.2), Point(0.6, 0.6));
  const Box nan_hi(Point(0.2, 0.2), Point(0.6, kNaN));
  EXPECT_TRUE(IsInvalidArgument(index.Query(inverted, &s)));
  EXPECT_TRUE(IsInvalidArgument(index.Query(nan_lo, &s)));
  EXPECT_TRUE(IsInvalidArgument(index.Query(nan_hi, &s)));
  // Infinite and degenerate sides are well formed.
  const Box line(Point(-kInf, 0.35), Point(kInf, 0.35));
  ASSERT_TRUE(index.Query(line, &s).ok());
  EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(BoxSumIndexTest, QueryBatchChecksWholeBatchBeforeAnyProbe) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  ASSERT_TRUE(index.BulkLoad(World(300, 7)).ok());
  const std::vector<Box> batch = {Box(Point(0.1, 0.1), Point(0.5, 0.5)),
                                  Box(Point(0.2, 0.2), Point(0.3, 0.3)),
                                  Box(Point(0.9, 0.1), Point(0.8, 0.5))};
  std::vector<double> out;
  const uint64_t reads = pool.stats().logical_reads;
  EXPECT_TRUE(IsInvalidArgument(index.QueryBatch(batch, &out)));
  // The bad last box was found before the first box reached any index.
  EXPECT_EQ(pool.stats().logical_reads, reads);
}

TEST(BoxSumIndexTest, BulkLoadRejectsMalformedObjects) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  std::vector<BoxObject> objs = World(200, 9);
  objs[150].box.hi[1] = kNaN;
  EXPECT_TRUE(IsInvalidArgument(index.BulkLoad(objs)));
  objs[150].box = Box(Point(0.5, 0.5), Point(0.4, 0.6));
  EXPECT_TRUE(IsInvalidArgument(index.BulkLoad(objs)));
  // Nothing was loaded, so a valid bulk load still succeeds afterwards.
  objs[150].box = Box(Point(0.4, 0.5), Point(0.5, 0.6));
  ASSERT_TRUE(index.BulkLoad(objs).ok());
  double s;
  ASSERT_TRUE(index.Query(Box::Universe(2), &s).ok());
  double want = 0;
  for (const BoxObject& o : objs) want += o.value;
  EXPECT_NEAR(s, want, 1e-9 * std::abs(want));
}

// The [13] reduction keeps a running total next to its term indexes, so a
// NaN box that slipped in would be counted by every later query: no
// dominance test matches its NaN keys, so it never counts as disjoint.
TEST(BoxSumIndexTest, EoReductionRejectsMalformedBoxes) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  EoBoxSumIndex<PackedBaTree<double>> eo(
      2, [&](int dims) { return PackedBaTree<double>(&pool, dims); });
  ASSERT_TRUE(eo.Insert(Box(Point(0.3, 0.3), Point(0.4, 0.4)), 4.0).ok());
  const Box inverted(Point(0.6, 0.6), Point(0.2, 0.2));
  const Box nan_lo(Point(kNaN, 0.2), Point(0.6, 0.6));
  const Box nan_hi(Point(0.2, 0.2), Point(0.6, kNaN));
  EXPECT_TRUE(IsInvalidArgument(eo.Insert(inverted, 1.0)));
  EXPECT_TRUE(IsInvalidArgument(eo.Insert(nan_lo, 1.0)));
  EXPECT_TRUE(IsInvalidArgument(eo.Insert(nan_hi, 1.0)));
  double s = 0;
  EXPECT_TRUE(IsInvalidArgument(eo.Query(inverted, &s)));
  EXPECT_TRUE(IsInvalidArgument(eo.Query(nan_lo, &s)));
  std::vector<BoxObject> objs = World(50, 21);
  objs[30].box.lo[0] = kNaN;
  EXPECT_TRUE(IsInvalidArgument(eo.BulkLoad(objs)));
  // The rejected calls left the total and every term index alone: a query
  // disjoint from the one stored box sees nothing, the whole space sees it.
  ASSERT_TRUE(eo.Query(Box(Point(0.7, 0.7), Point(0.9, 0.9)), &s).ok());
  EXPECT_EQ(s, 0.0);
  ASSERT_TRUE(eo.Query(Box(Point(-kInf, -kInf), Point(kInf, kInf)), &s).ok());
  EXPECT_DOUBLE_EQ(s, 4.0);
}

// ---------------------------------------------------------------------------
// 1-d boxes are time intervals: cumulative temporal aggregation (Sec. 7),
// the total over records whose interval meets the query interval, is the
// 1-d box-sum, and the instantaneous variant (records alive at instant t)
// is the degenerate query box [t, t].

Box Interval(double start, double end) {
  return Box(Point(start), Point(end));
}

class OneDimBoxAggregator : public ::testing::Test {
 protected:
  OneDimBoxAggregator()
      : file_(1024),
        pool_(&file_, 512),
        agg_(1, [this] { return PackedBaTree<double>(&pool_, 1); }) {}

  MemPageFile file_;
  BufferPool pool_;
  BoxAggregator<PackedBaTree<double>> agg_;
};

TEST_F(OneDimBoxAggregator, TouchingIntervalsIntersect) {
  // Three meetings: [9,10], [9.5,12], [14,15], costs 1/2/4.
  ASSERT_TRUE(agg_.Insert(Interval(9, 10), 1).ok());
  ASSERT_TRUE(agg_.Insert(Interval(9.5, 12), 2).ok());
  ASSERT_TRUE(agg_.Insert(Interval(14, 15), 4).ok());
  double s;
  ASSERT_TRUE(agg_.Sum(Interval(9, 10), &s).ok());
  EXPECT_EQ(s, 3.0);  // first two intersect
  ASSERT_TRUE(agg_.Sum(Interval(12, 14), &s).ok());
  EXPECT_EQ(s, 6.0);  // touching counts (closed intervals)
  ASSERT_TRUE(agg_.Sum(Interval(13, 13.5), &s).ok());
  EXPECT_EQ(s, 0.0);
  ASSERT_TRUE(agg_.Sum(Interval(0, 24), &s).ok());
  EXPECT_EQ(s, 7.0);
}

TEST_F(OneDimBoxAggregator, DegenerateQueryBoxIsAnInstant) {
  ASSERT_TRUE(agg_.Insert(Interval(9, 10), 1).ok());
  ASSERT_TRUE(agg_.Insert(Interval(9.5, 12), 2).ok());
  double s, c;
  ASSERT_TRUE(agg_.Sum(Interval(9.75, 9.75), &s).ok());
  EXPECT_EQ(s, 3.0);
  ASSERT_TRUE(agg_.Sum(Interval(11, 11), &s).ok());
  EXPECT_EQ(s, 2.0);
  ASSERT_TRUE(agg_.Sum(Interval(10, 10), &s).ok());  // right end inclusive
  EXPECT_EQ(s, 3.0);
  ASSERT_TRUE(agg_.Count(Interval(9.75, 9.75), &c).ok());
  EXPECT_EQ(c, 2.0);
}

TEST_F(OneDimBoxAggregator, AvgAndErase) {
  ASSERT_TRUE(agg_.Insert(Interval(0, 10), 10).ok());
  ASSERT_TRUE(agg_.Insert(Interval(5, 15), 20).ok());
  double a;
  ASSERT_TRUE(agg_.Avg(Interval(7, 8), &a).ok());
  EXPECT_EQ(a, 15.0);
  ASSERT_TRUE(agg_.Erase(Interval(0, 10), 10).ok());
  ASSERT_TRUE(agg_.Avg(Interval(7, 8), &a).ok());
  EXPECT_EQ(a, 20.0);
  ASSERT_TRUE(agg_.Avg(Interval(100, 101), &a).ok());
  EXPECT_EQ(a, 0.0);
}

TEST_F(OneDimBoxAggregator, RejectsInvertedInterval) {
  EXPECT_TRUE(IsInvalidArgument(agg_.Insert(Interval(5, 3), 1.0)));
}

TEST_F(OneDimBoxAggregator, RandomizedAgainstOracle) {
  std::mt19937 rng(4);
  std::uniform_real_distribution<double> ut(0, 1000);
  std::uniform_real_distribution<double> ud(0, 50);
  std::uniform_real_distribution<double> uv(1, 9);
  NaiveBoxSum naive(1);
  for (int i = 0; i < 3000; ++i) {
    const double t = ut(rng);
    const Box iv = Interval(t, t + ud(rng));
    const double v = uv(rng);
    ASSERT_TRUE(agg_.Insert(iv, v).ok());
    naive.Insert(iv, v);
  }
  for (int i = 0; i < 300; ++i) {
    const double t = ut(rng);
    const Box q = Interval(t, t + ud(rng));
    double s, c;
    ASSERT_TRUE(agg_.Sum(q, &s).ok());
    ASSERT_TRUE(agg_.Count(q, &c).ok());
    ASSERT_NEAR(s, naive.Sum(q), 1e-7);
    ASSERT_EQ(static_cast<uint64_t>(c + 0.5), naive.Count(q));
  }
}

}  // namespace
}  // namespace boxagg
