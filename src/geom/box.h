// Box: a d-dimensional axis-aligned rectangle described by its low and high
// corner points (Sec. 2).
//
// Data objects and queries are closed boxes [lo, hi]; two boxes intersect
// when their projections overlap in every dimension. Index-space partitioning
// (k-d-B regions) instead uses the half-open ContainsPointHalfOpen predicate
// so every point belongs to exactly one region.

#ifndef BOXAGG_GEOM_BOX_H_
#define BOXAGG_GEOM_BOX_H_

#include <algorithm>
#include <string>

#include "geom/point.h"

namespace boxagg {

/// \brief Axis-aligned d-dimensional box, trivially copyable.
struct Box {
  Point lo;  ///< dominated by every corner of the box
  Point hi;  ///< dominates every corner of the box

  Box() = default;
  Box(const Point& low, const Point& high) : lo(low), hi(high) {}

  bool operator==(const Box& o) const { return lo == o.lo && hi == o.hi; }

  /// True iff the first `dims` dimensions hold no NaN and lo[i] <= hi[i] in
  /// each. Infinite sides are valid (unbounded queries); a degenerate side
  /// (lo[i] == hi[i]) is a point extent and valid too.
  bool IsValid(int dims) const {
    for (int i = 0; i < dims; ++i) {
      if (!(lo[i] <= hi[i])) return false;  // also false if either is NaN
    }
    return true;
  }

  /// True iff this box and `o` intersect (closed semantics) in the first
  /// `dims` dimensions.
  bool Intersects(const Box& o, int dims) const {
    for (int i = 0; i < dims; ++i) {
      if (hi[i] < o.lo[i] || o.hi[i] < lo[i]) return false;
    }
    return true;
  }

  /// True iff `o` lies entirely within this box (closed semantics).
  bool Contains(const Box& o, int dims) const {
    for (int i = 0; i < dims; ++i) {
      if (o.lo[i] < lo[i] || o.hi[i] > hi[i]) return false;
    }
    return true;
  }

  /// True iff point `p` is inside the closed box.
  bool ContainsPoint(const Point& p, int dims) const {
    for (int i = 0; i < dims; ++i) {
      if (p[i] < lo[i] || p[i] > hi[i]) return false;
    }
    return true;
  }

  /// True iff point `p` is inside the half-open region [lo, hi). This is the
  /// partitioning predicate of k-d-B regions.
  bool ContainsPointHalfOpen(const Point& p, int dims) const {
    for (int i = 0; i < dims; ++i) {
      if (p[i] < lo[i] || p[i] >= hi[i]) return false;
    }
    return true;
  }

  /// Intersection of two boxes; valid only if Intersects().
  Box Intersection(const Box& o, int dims) const {
    Box r = *this;
    for (int i = 0; i < dims; ++i) {
      r.lo[i] = std::max(lo[i], o.lo[i]);
      r.hi[i] = std::min(hi[i], o.hi[i]);
    }
    return r;
  }

  /// Smallest box covering both this and `o`.
  Box Union(const Box& o, int dims) const {
    Box r = *this;
    for (int i = 0; i < dims; ++i) {
      r.lo[i] = std::min(lo[i], o.lo[i]);
      r.hi[i] = std::max(hi[i], o.hi[i]);
    }
    return r;
  }

  /// Product of side lengths over the first `dims` dimensions.
  double Volume(int dims) const {
    double v = 1.0;
    for (int i = 0; i < dims; ++i) v *= (hi[i] - lo[i]);
    return v;
  }

  /// Sum of side lengths (the R*-tree "margin" heuristic).
  double Margin(int dims) const {
    double m = 0.0;
    for (int i = 0; i < dims; ++i) m += (hi[i] - lo[i]);
    return m;
  }

  /// Corner `mask` of the box: bit i of `mask` selects hi (1) or lo (0) in
  /// dimension i. Used by the 2^d corner reductions of Secs. 2-3.
  Point Corner(uint32_t mask, int dims) const {
    Point p;
    for (int i = 0; i < dims; ++i) {
      p[i] = (mask >> i) & 1u ? hi[i] : lo[i];
    }
    return p;
  }

  /// Box with dimension `drop` removed in both corners.
  Box DropDim(int drop, int dims) const {
    return Box(lo.DropDim(drop, dims), hi.DropDim(drop, dims));
  }

  /// The whole space [-inf, +inf]^dims.
  static Box Universe(int dims) {
    return Box(Point::MinPoint(dims), Point::MaxPoint(dims));
  }

  std::string ToString(int dims) const {
    std::string s = "[";
    s += lo.ToString(dims);
    s += " .. ";
    s += hi.ToString(dims);
    s += "]";
    return s;
  }
};

static_assert(std::is_trivially_copyable_v<Box>);

}  // namespace boxagg

#endif  // BOXAGG_GEOM_BOX_H_
