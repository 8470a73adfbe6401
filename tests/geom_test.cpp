// Unit tests for points, boxes, dominance, and corner enumeration (Sec. 2
// definitions).

#include <gtest/gtest.h>

#include <limits>

#include "geom/box.h"
#include "geom/point.h"

namespace boxagg {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();

TEST(PointTest, DominanceIsNonStrictAndPerDimension) {
  Point p(3, 5);
  EXPECT_TRUE(p.Dominates(Point(3, 5), 2));   // equality dominates
  EXPECT_TRUE(p.Dominates(Point(2, 4), 2));
  EXPECT_FALSE(p.Dominates(Point(4, 1), 2));  // fails dim 0
  EXPECT_FALSE(p.Dominates(Point(1, 6), 2));  // fails dim 1
  // In 1 dimension only the first coordinate matters.
  EXPECT_TRUE(p.Dominates(Point(3, 100), 1));
  // -0.0 and +0.0 compare equal, so each dominates the other.
  EXPECT_TRUE(Point(-0.0, 1).Dominates(Point(0.0, 1), 2));
  EXPECT_TRUE(Point(0.0, 1).Dominates(Point(-0.0, 1), 2));
  // +inf dominates everything, itself included; nothing finite reaches it.
  EXPECT_TRUE(Point(kInf, kInf).Dominates(Point(kInf, kMax), 2));
  EXPECT_FALSE(Point(kMax, kMax).Dominates(Point(kInf, 0), 2));
  // -inf is dominated by everything and dominates only -inf.
  EXPECT_TRUE(Point(-kMax, 0).Dominates(Point(-kInf, 0), 2));
  EXPECT_TRUE(Point(-kInf, 0).Dominates(Point(-kInf, 0), 2));
  EXPECT_FALSE(Point(-kInf, 0).Dominates(Point(-kMax, 0), 2));
}

TEST(PointTest, MinMaxPoints) {
  Point lo = Point::MinPoint(3);
  Point hi = Point::MaxPoint(3);
  EXPECT_TRUE(hi.Dominates(lo, 3));
  EXPECT_TRUE(hi.Dominates(Point(1e300, -1e300, 0), 3));
  EXPECT_TRUE(Point(0, 0, 0).Dominates(lo, 3));
}

TEST(PointTest, DropDimShiftsCoordinates) {
  Point p(1, 2, 3);
  Point q = p.DropDim(0, 3);
  EXPECT_EQ(q[0], 2);
  EXPECT_EQ(q[1], 3);
  Point r = p.DropDim(1, 3);
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[1], 3);
  Point s = p.DropDim(2, 3);
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[1], 2);
}

TEST(PointTest, ToString) {
  EXPECT_EQ(Point(1.5, -2).ToString(2), "(1.5, -2)");
}

TEST(BoxTest, IntersectsClosedSemantics) {
  Box a(Point(0, 0), Point(10, 10));
  Box b(Point(10, 10), Point(20, 20));  // touches at one corner
  EXPECT_TRUE(a.Intersects(b, 2));
  Box c(Point(10.0001, 0), Point(20, 10));
  EXPECT_FALSE(a.Intersects(c, 2));
  Box d(Point(2, 3), Point(4, 5));  // fully inside
  EXPECT_TRUE(a.Intersects(d, 2));
  EXPECT_TRUE(d.Intersects(a, 2));
}

TEST(BoxTest, IntersectionIgnoresHigherDims) {
  Box a(Point(0, 0), Point(1, 1));
  Box b(Point(5, 0), Point(6, 1));
  EXPECT_FALSE(a.Intersects(b, 2));
  EXPECT_TRUE(a.Intersects(b, 0));  // 0-dim: everything intersects
}

TEST(BoxTest, ContainsAndContainsPoint) {
  Box a(Point(0, 0), Point(10, 10));
  EXPECT_TRUE(a.Contains(Box(Point(0, 0), Point(10, 10)), 2));
  EXPECT_TRUE(a.Contains(Box(Point(1, 1), Point(9, 9)), 2));
  EXPECT_FALSE(a.Contains(Box(Point(1, 1), Point(11, 9)), 2));
  EXPECT_TRUE(a.ContainsPoint(Point(10, 0), 2));
  EXPECT_FALSE(a.ContainsPoint(Point(10.5, 0), 2));
}

TEST(BoxTest, HalfOpenContainment) {
  Box a(Point(0, 0), Point(10, 10));
  EXPECT_TRUE(a.ContainsPointHalfOpen(Point(0, 0), 2));
  EXPECT_FALSE(a.ContainsPointHalfOpen(Point(10, 5), 2));
  EXPECT_FALSE(a.ContainsPointHalfOpen(Point(5, 10), 2));
  // Adjacent half-open boxes partition space: each point is in exactly one.
  Box left(Point(0, 0), Point(5, 10));
  Box right(Point(5, 0), Point(10, 10));
  Point boundary(5, 3);
  EXPECT_FALSE(left.ContainsPointHalfOpen(boundary, 2));
  EXPECT_TRUE(right.ContainsPointHalfOpen(boundary, 2));
  // -0.0 equals +0.0: it is on the closed low side and the open high side.
  EXPECT_TRUE(a.ContainsPointHalfOpen(Point(-0.0, 5), 2));
  EXPECT_FALSE(Box(Point(-1, 0), Point(0, 10))
                   .ContainsPointHalfOpen(Point(-0.0, 5), 2));
  // An infinite low side is closed, an infinite high side is open.
  Box unbounded(Point(-kInf, 0), Point(kInf, 10));
  EXPECT_TRUE(unbounded.ContainsPointHalfOpen(Point(-kInf, 5), 2));
  EXPECT_TRUE(unbounded.ContainsPointHalfOpen(Point(kMax, 5), 2));
  EXPECT_FALSE(unbounded.ContainsPointHalfOpen(Point(kInf, 5), 2));
}

TEST(BoxTest, IntersectionAndUnion) {
  Box a(Point(0, 0), Point(10, 8));
  Box b(Point(4, 2), Point(14, 12));
  Box i = a.Intersection(b, 2);
  EXPECT_EQ(i, Box(Point(4, 2), Point(10, 8)));
  Box u = a.Union(b, 2);
  EXPECT_EQ(u, Box(Point(0, 0), Point(14, 12)));
}

TEST(BoxTest, VolumeAndMargin) {
  Box a(Point(0, 0), Point(4, 5));
  EXPECT_DOUBLE_EQ(a.Volume(2), 20.0);
  EXPECT_DOUBLE_EQ(a.Margin(2), 9.0);
  Box b(Point(0, 0, 0), Point(2, 3, 4));
  EXPECT_DOUBLE_EQ(b.Volume(3), 24.0);
  EXPECT_DOUBLE_EQ(b.Margin(3), 9.0);
}

TEST(BoxTest, CornerEnumeration2D) {
  Box b(Point(1, 2), Point(3, 4));
  EXPECT_EQ(b.Corner(0b00, 2), Point(1, 2));  // low
  EXPECT_EQ(b.Corner(0b01, 2), Point(3, 2));  // hi in x
  EXPECT_EQ(b.Corner(0b10, 2), Point(1, 4));  // hi in y
  EXPECT_EQ(b.Corner(0b11, 2), Point(3, 4));  // high
}

TEST(BoxTest, CornerEnumeration3DCoversAllCorners) {
  Box b(Point(0, 0, 0), Point(1, 1, 1));
  // All 8 corners are distinct and dominated by the high point.
  for (uint32_t m = 0; m < 8; ++m) {
    Point c = b.Corner(m, 3);
    EXPECT_TRUE(b.hi.Dominates(c, 3));
    EXPECT_TRUE(c.Dominates(b.lo, 3));
    for (uint32_t m2 = 0; m2 < m; ++m2) {
      EXPECT_FALSE(c == b.Corner(m2, 3)) << m << " vs " << m2;
    }
  }
}

TEST(BoxTest, LowCornerDominatedHighCornerDominates) {
  // The paper's definition: the low point is dominated by all corner points;
  // the high point dominates all corner points.
  Box b(Point(-2, 5, 0), Point(4, 9, 1));
  for (uint32_t m = 0; m < 8; ++m) {
    Point c = b.Corner(m, 3);
    EXPECT_TRUE(c.Dominates(b.lo, 3));
    EXPECT_TRUE(b.hi.Dominates(c, 3));
  }
}

TEST(BoxTest, DropDim) {
  Box b(Point(1, 2, 3), Point(4, 5, 6));
  Box d = b.DropDim(1, 3);
  EXPECT_EQ(d.lo, Point(1, 3));
  EXPECT_EQ(d.hi, Point(4, 6));
}

TEST(BoxTest, UniverseContainsEverything) {
  Box u = Box::Universe(2);
  EXPECT_TRUE(u.ContainsPoint(Point(1e300, -1e300), 2));
  EXPECT_TRUE(u.Intersects(Box(Point(5, 5), Point(6, 6)), 2));
  // Half-open, the universe holds every finite point but not +inf: this is
  // why DominanceSum clamps a +inf query coordinate to DBL_MAX.
  EXPECT_TRUE(u.ContainsPointHalfOpen(Point(kMax, kMax), 2));
  EXPECT_TRUE(u.ContainsPointHalfOpen(Point(-kInf, -kMax), 2));
  EXPECT_FALSE(u.ContainsPointHalfOpen(Point(kInf, 0), 2));
  EXPECT_FALSE(u.ContainsPointHalfOpen(Point(0, kInf), 2));
}

// Intersection predicate equivalence used in the proof of Lemma 1: two boxes
// intersect iff in every dimension, lo_i <= other.hi_i and other.lo_i <= hi_i.
TEST(BoxTest, IntersectionConditionMatchesLemmaForm) {
  auto lemma_form = [](const Box& o, const Box& q, int dims) {
    for (int i = 0; i < dims; ++i) {
      bool a0 = o.lo[i] <= q.hi[i];   // A^0_i with closed semantics
      bool a1 = o.hi[i] < q.lo[i];    // A^1_i
      if (!(a0 && !a1)) return false;
    }
    return true;
  };
  Box q(Point(2, 2), Point(6, 6));
  Box candidates[] = {
      Box(Point(0, 0), Point(1, 1)),  Box(Point(0, 0), Point(2, 2)),
      Box(Point(3, 3), Point(4, 4)),  Box(Point(5, 0), Point(9, 3)),
      Box(Point(7, 7), Point(9, 9)),  Box(Point(0, 3), Point(9, 4)),
      Box(Point(6, 6), Point(8, 8)),  Box(Point(0, 6.5), Point(9, 7)),
  };
  for (const Box& o : candidates) {
    EXPECT_EQ(o.Intersects(q, 2), lemma_form(o, q, 2)) << o.ToString(2);
  }
}

}  // namespace
}  // namespace boxagg
