// End-to-end tests for the functional box-sum index (Sec. 3): the paper's
// pesticide worked example through the full disk-index stack, cross-checks
// against the naive integrating oracle and the functional aR-tree, for both
// BA-tree and ECDF-B-tree backends and both degree-0 and degree-2 value
// functions.

#include <gtest/gtest.h>

#include <limits>

#include "batree/packed_ba_tree.h"
#include "core/functional_box_sum.h"
#include "core/naive.h"
#include "ecdf/ecdf_btree.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "workload/generators.h"

namespace boxagg {
namespace {

// Fig. 3a / Fig. 5b through the whole stack: two constant-valued objects,
// query [5,20]x[3,15], functional answer 236 (= 4*50 + 3*12).
TEST(FunctionalBoxSum, PaperPesticideExampleIs236) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  FunctionalBoxSumIndex<PackedBaTree<Poly2<1>>, 1> index(
      PackedBaTree<Poly2<1>>(&pool, 2));
  ASSERT_TRUE(
      index.Insert(Box(Point(2, 10), Point(15, 26)), {{4.0, 0, 0}}).ok());
  ASSERT_TRUE(
      index.Insert(Box(Point(18, 4), Point(30, 10)), {{3.0, 0, 0}}).ok());
  double got;
  ASSERT_TRUE(index.Query(Box(Point(5, 3), Point(20, 15)), &got).ok());
  EXPECT_DOUBLE_EQ(got, 236.0);
  // A query box covering both objects entirely yields the full integrals:
  // 4 * 13 * 16 + 3 * 12 * 6 = 832 + 216 = 1048.
  ASSERT_TRUE(index.Query(Box(Point(0, 0), Point(40, 40)), &got).ok());
  EXPECT_DOUBLE_EQ(got, 1048.0);
  // A disjoint query yields zero.
  ASSERT_TRUE(index.Query(Box(Point(31, 27), Point(40, 40)), &got).ok());
  EXPECT_DOUBLE_EQ(got, 0.0);
}

// Fig. 3b: non-constant value function f(x,y) = x - 2 on [5,20]x[3,15];
// query clipped to [15,20]x[7,11] contributes 310, and the left-shifted
// query of the same intersection size contributes 110 — proportionality to
// *where* the intersection lies, which the simple box-sum cannot express.
TEST(FunctionalBoxSum, PaperNonConstantFunctionExample) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  FunctionalBoxSumIndex<PackedBaTree<Poly2<2>>, 2> index(
      PackedBaTree<Poly2<2>>(&pool, 2));
  ASSERT_TRUE(index
                  .Insert(Box(Point(5, 3), Point(20, 15)),
                          {{1.0, 1, 0}, {-2.0, 0, 0}})
                  .ok());
  double got;
  ASSERT_TRUE(index.Query(Box(Point(15, 7), Point(30, 11)), &got).ok());
  EXPECT_NEAR(got, 310.0, 1e-9);
  ASSERT_TRUE(index.Query(Box(Point(0, 7), Point(10, 11)), &got).ok());
  EXPECT_NEAR(got, 110.0, 1e-9);
}

TEST(FunctionalBoxSum, EraseRemovesContribution) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  FunctionalBoxSumIndex<PackedBaTree<Poly2<1>>, 1> index(
      PackedBaTree<Poly2<1>>(&pool, 2));
  std::vector<Monomial2> f = {{4.0, 0, 0}};
  Box b(Point(2, 10), Point(15, 26));
  ASSERT_TRUE(index.Insert(b, f).ok());
  ASSERT_TRUE(index.Erase(b, f).ok());
  double got;
  ASSERT_TRUE(index.Query(Box(Point(0, 0), Point(40, 40)), &got).ok());
  EXPECT_NEAR(got, 0.0, 1e-9);
}

struct FParam {
  bool use_bat;  // else ECDF-Bq
  int degree;
  bool bulk;
  std::string Name() const {
    return std::string(use_bat ? "BAT" : "ECDFq") + "_deg" +
           std::to_string(degree) + (bulk ? "_bulk" : "_inc");
  }
};

class FunctionalSweep : public ::testing::TestWithParam<FParam> {};

TEST_P(FunctionalSweep, MatchesOracleAndFunctionalArTree) {
  const FParam p = GetParam();
  MemPageFile file(4096);
  BufferPool pool(&file, 1024);
  workload::RectConfig cfg;
  cfg.n = 1200;
  cfg.avg_side = 0.04;
  cfg.seed = 100u + static_cast<uint32_t>(p.degree);
  auto objs = workload::UniformRects(cfg);
  auto fobjs = workload::MakeFunctional(objs, p.degree, 7);

  NaiveFunctionalBoxSum naive;
  RStarTree<FunctionalObjectTraits> artree(&pool, 2);
  for (const auto& o : fobjs) {
    naive.Insert(o.box, o.f);
    Poly2<2> payload;
    for (const auto& m : o.f) payload.Add(m.p, m.q, m.a);
    ASSERT_TRUE(artree.Insert(o.box, payload).ok());
  }

  auto check = [&](auto& index) {
    if (p.bulk) {
      ASSERT_TRUE(index.BulkLoad(fobjs).ok());
    } else {
      for (const auto& o : fobjs) {
        ASSERT_TRUE(index.Insert(o.box, o.f).ok());
      }
    }
    for (double qbs : {0.001, 0.01, 0.1}) {
      for (const Box& q : workload::QueryBoxes(20, qbs, 19)) {
        double got, ar;
        ASSERT_TRUE(index.Query(q, &got).ok());
        ASSERT_TRUE(artree.AggregateQuery(q, true, &ar).ok());
        double want = naive.Sum(q);
        double tol = 1e-9 + 1e-6 * std::abs(want);
        ASSERT_NEAR(got, want, tol) << qbs;
        ASSERT_NEAR(ar, want, tol) << qbs;
      }
    }
  };

  if (p.use_bat) {
    FunctionalBoxSumIndex<PackedBaTree<Poly2<3>>, 3> index(
        PackedBaTree<Poly2<3>>(&pool, 2));
    check(index);
  } else {
    FunctionalBoxSumIndex<EcdfBTree<Poly2<3>>, 3> index(
        EcdfBTree<Poly2<3>>(&pool, 2, EcdfVariant::kQueryOptimized));
    check(index);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunctionalSweep,
    ::testing::Values(FParam{true, 0, false}, FParam{true, 0, true},
                      FParam{true, 2, false}, FParam{true, 2, true},
                      FParam{false, 0, true}, FParam{false, 2, false}),
    [](const ::testing::TestParamInfo<FParam>& info) {
      return info.param.Name();
    });

// Degree-0 functional semantics reduce to area-weighted sums; check the
// proportionality property explicitly: halving the intersection halves the
// contribution.
TEST(FunctionalBoxSum, ContributionProportionalToIntersection) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  FunctionalBoxSumIndex<PackedBaTree<Poly2<1>>, 1> index(
      PackedBaTree<Poly2<1>>(&pool, 2));
  ASSERT_TRUE(index.Insert(Box(Point(0, 0), Point(10, 10)), {{2.0, 0, 0}}).ok());
  double whole, half, quarter;
  ASSERT_TRUE(index.Query(Box(Point(0, 0), Point(10, 10)), &whole).ok());
  ASSERT_TRUE(index.Query(Box(Point(0, 0), Point(5, 10)), &half).ok());
  ASSERT_TRUE(index.Query(Box(Point(0, 0), Point(5, 5)), &quarter).ok());
  EXPECT_DOUBLE_EQ(whole, 200.0);
  EXPECT_DOUBLE_EQ(half, 100.0);
  EXPECT_DOUBLE_EQ(quarter, 50.0);
}

// The inherent distinction of Sec. 3's closing discussion: a functional
// index weights objects by intersection, so a sliver query over a large
// object reports a sliver-sized amount, while the simple box-sum reports the
// whole value.
TEST(FunctionalBoxSum, DiffersFromSimpleBoxSumByDesign) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  FunctionalBoxSumIndex<PackedBaTree<Poly2<1>>, 1> functional(
      PackedBaTree<Poly2<1>>(&pool, 2));
  ASSERT_TRUE(
      functional.Insert(Box(Point(0, 0), Point(100, 100)), {{1.0, 0, 0}}).ok());
  double got;
  Box sliver(Point(0, 0), Point(1, 100));
  ASSERT_TRUE(functional.Query(sliver, &got).ok());
  EXPECT_DOUBLE_EQ(got, 100.0);  // 1% of the 10,000 total
}

// Inverted or NaN boxes are rejected at every entry point of the functional
// index, before any corner update reaches the dominance index.
TEST(FunctionalBoxSum, RejectsMalformedBoxes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  FunctionalBoxSumIndex<PackedBaTree<Poly2<1>>, 1> index(
      PackedBaTree<Poly2<1>>(&pool, 2));
  const std::vector<Monomial2> f = {{4.0, 0, 0}};
  ASSERT_TRUE(index.Insert(Box(Point(2, 10), Point(15, 26)), f).ok());
  const Box inverted(Point(15, 26), Point(2, 10));
  const Box with_nan(Point(2, nan), Point(15, 26));
  auto invalid = [](const Status& s) {
    return s.code() == Status::Code::kInvalidArgument;
  };
  EXPECT_TRUE(invalid(index.Insert(inverted, f)));
  EXPECT_TRUE(invalid(index.Insert(with_nan, f)));
  EXPECT_TRUE(invalid(index.Erase(inverted, f)));
  double got = 0;
  EXPECT_TRUE(invalid(index.Query(inverted, &got)));
  EXPECT_TRUE(invalid(index.Query(with_nan, &got)));
  // The rejected updates left the stored integral alone: 4 * 13 * 16.
  ASSERT_TRUE(index.Query(Box(Point(0, 0), Point(40, 40)), &got).ok());
  EXPECT_DOUBLE_EQ(got, 832.0);

  FunctionalBoxSumIndex<PackedBaTree<Poly2<1>>, 1> fresh(
      PackedBaTree<Poly2<1>>(&pool, 2));
  EXPECT_TRUE(invalid(fresh.BulkLoad(
      {{Box(Point(0, 0), Point(1, 1)), f}, {inverted, f}})));
  EXPECT_TRUE(invalid(fresh.BulkLoad({{with_nan, f}})));
}

}  // namespace
}  // namespace boxagg
