// BoxSumIndex: the paper's corner-transform reduction (Sec. 2, Lemma 1 /
// Theorem 2) from d-dimensional box-sum queries to exactly 2^d dominance-sum
// queries, layered over any dominance-sum index (ECDF-B-trees, BA-tree, ...).
//
// One dominance index is kept per sign vector s in {0,1}^d. Index s stores
// each object at the point whose i-th coordinate is o.lo_i when s_i = 0 and
// o.hi_i when s_i = 1. A query box q is answered as
//
//   boxsum(q) = sum_s (-1)^{|s|} . index_s.DominanceSum(Q_s(q))
//
// where Q_s(q) takes q.hi_i when s_i = 0 (condition o.lo_i <= q.hi_i) and
// the largest double strictly below q.lo_i when s_i = 1 (condition
// o.hi_i < q.lo_i — the strict inequality of the lemma is realized exactly
// in floating point by nextafter).
//
// Closed-box intersection semantics (touching boxes intersect) match
// geom::Box::Intersects and the naive oracle.

#ifndef BOXAGG_CORE_BOX_SUM_INDEX_H_
#define BOXAGG_CORE_BOX_SUM_INDEX_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/arena.h"
#include "core/naive.h"
#include "core/point_entry.h"
#include "geom/box.h"
#include "obs/query_obs.h"
#include "simd/simd.h"
#include "storage/status.h"

namespace boxagg {

/// Largest double strictly below x: key <= StrictlyBelow(x) iff key < x.
inline double StrictlyBelow(double x) {
  return std::nextafter(x, -std::numeric_limits<double>::infinity());
}

/// The corner point stored in index `mask` for object box `b`: bit i of
/// `mask` selects hi (1, the A^1 condition) or lo (0, the A^0 condition).
inline Point StorageCorner(const Box& b, uint32_t mask, int dims) {
  Point p;
  for (int i = 0; i < dims; ++i) {
    p[i] = (mask >> i) & 1u ? b.hi[i] : b.lo[i];
  }
  return p;
}

/// The query point probed in index `mask` for query box `q`.
inline Point QueryCorner(const Box& q, uint32_t mask, int dims) {
  Point p;
  for (int i = 0; i < dims; ++i) {
    p[i] = (mask >> i) & 1u ? StrictlyBelow(q.lo[i]) : q.hi[i];
  }
  return p;
}

/// InvalidArgument unless `b` is valid in `dims` dimensions (Box::IsValid).
/// Every index entry point checks its boxes before touching any index, so an
/// inverted or NaN box can neither corrupt stored sums nor yield an answer.
inline Status CheckBox(const Box& b, int dims) {
  if (b.IsValid(dims)) return Status::OK();
  return Status::InvalidArgument("malformed box " + b.ToString(dims) +
                                 ": needs lo <= hi and no NaN");
}

/// Parity sign (-1)^{popcount(mask)}.
inline double MaskSign(uint32_t mask) {
  return __builtin_popcount(mask) % 2 == 0 ? 1.0 : -1.0;
}

/// \brief Simple box-sum index over 2^d dominance-sum indexes.
///
/// `Index` must provide Insert(Point, double), DominanceSum(Point, double*),
/// BulkLoad(vector<PointEntry<double>>), PageCount(uint64_t*), Destroy(),
/// all returning Status. Construct with a factory so the caller controls the
/// underlying structure (variant, buffer pool, dimensionality).
template <class Index>
class BoxSumIndex {
 public:
  /// \param dims    number of extensional dimensions (d <= kMaxDims)
  /// \param factory callable returning a fresh empty d-dimensional Index
  template <class Factory>
  BoxSumIndex(int dims, Factory&& factory) : dims_(dims) {
    const uint32_t n = 1u << dims;
    indexes_.reserve(n);
    for (uint32_t s = 0; s < n; ++s) indexes_.push_back(factory());
  }

  int dims() const { return dims_; }
  uint32_t index_count() const {
    return static_cast<uint32_t>(indexes_.size());
  }
  Index& index(uint32_t s) { return indexes_[s]; }

  /// Registers one weighted box object: one point insert per index.
  Status Insert(const Box& box, double value) {
    BOXAGG_RETURN_NOT_OK(CheckBox(box, dims_));
    for (uint32_t s = 0; s < indexes_.size(); ++s) {
      BOXAGG_RETURN_NOT_OK(
          indexes_[s].Insert(StorageCorner(box, s, dims_), value));
    }
    return Status::OK();
  }

  /// Total value of all objects whose box intersects `q` (closed semantics):
  /// exactly 2^d dominance-sum queries combined with inclusion-exclusion.
  /// Routed through the batched path with count == 1 so the single-query and
  /// batch code paths cannot drift; the I/O sequence is identical to calling
  /// DominanceSum per sign index directly.
  Status Query(const Box& q, double* out) const {
    return QueryBatch(&q, 1, out);
  }

  // LINT:hot-path — descent: no heap allocation past warm-up (lint.sh)
  /// Batched box sums: out[i] = Query(qs[i]), bit-identical to `count`
  /// independent Query calls. All queries are expanded into (sign index,
  /// corner point) probes, grouped per sign index, and identical corner
  /// points within a sign index are deduplicated — DominanceSum is a pure
  /// function of (index, point), so each distinct probe is answered once and
  /// its value reused (degenerate boxes and repeated queries collide often).
  /// Each index then answers its probes with one DominanceSumBatch descent.
  /// Accumulation per query stays in ascending sign-index order, exactly as
  /// the sequential loop.
  Status QueryBatch(const Box* qs, size_t count, double* out) const {
    for (size_t i = 0; i < count; ++i) out[i] = 0;
    if (count == 0) return Status::OK();
    // The whole batch is checked before any corner is expanded.
    for (size_t i = 0; i < count; ++i) {
      BOXAGG_RETURN_NOT_OK(CheckBox(qs[i], dims_));
    }
    // All per-batch scratch lives in the thread-local arena: after warm-up a
    // QueryBatch performs zero heap allocations of its own (the descent's
    // nested scopes rewind to this scope's mark on exit).
    core::ArenaScope scope(core::ScratchArena());
    core::ArenaVector<Point> corners(count);
    core::ArenaVector<uint32_t> order(count);
    core::ArenaVector<uint32_t> probe_of(count);
    core::ArenaVector<Point> distinct;
    core::ArenaVector<double> parts;
    for (uint32_t s = 0; s < indexes_.size(); ++s) {
      for (size_t i = 0; i < count; ++i) {
        corners[i] = QueryCorner(qs[i], s, dims_);
        order[i] = static_cast<uint32_t>(i);
      }
      std::sort(order.begin(), order.end(),
                [this, &corners](uint32_t a, uint32_t b) {
                  if (LexLess(corners[a], corners[b], dims_)) return true;
                  if (LexLess(corners[b], corners[a], dims_)) return false;
                  return a < b;
                });
      distinct.clear();
      for (size_t j = 0; j < count; ++j) {
        const Point& c = corners[order[j]];
        if (distinct.empty() || !LexEqual(distinct.back(), c, dims_)) {
          distinct.push_back(c);
        }
        probe_of[order[j]] = static_cast<uint32_t>(distinct.size() - 1);
      }
      parts.resize(distinct.size());
      obs::NoteCornerProbes(distinct.size(), count - distinct.size());
      BOXAGG_RETURN_NOT_OK(indexes_[s].DominanceSumBatch(
          distinct.data(), distinct.size(), parts.data()));
      // Per-lane multiply-then-add: identical rounding to the scalar loop,
      // and per-query accumulation stays in ascending sign-index order.
      simd::AccumulateSigned(out, parts.data(), probe_of.data(), MaskSign(s),
                             count);
    }
    return Status::OK();
  }

  // LINT:hot-path-end
  /// Vector convenience overload; resizes `out` to match.
  Status QueryBatch(const std::vector<Box>& qs,
                    std::vector<double>* out) const {
    out->resize(qs.size());
    return QueryBatch(qs.data(), qs.size(), out->data());
  }

  /// Bulk-loads all 2^d indexes from an object collection.
  Status BulkLoad(const std::vector<BoxObject>& objects) {
    for (const BoxObject& o : objects) {
      BOXAGG_RETURN_NOT_OK(CheckBox(o.box, dims_));
    }
    for (uint32_t s = 0; s < indexes_.size(); ++s) {
      std::vector<PointEntry<double>> pts;
      pts.reserve(objects.size());
      for (const BoxObject& o : objects) {
        pts.push_back({StorageCorner(o.box, s, dims_), o.value});
      }
      BOXAGG_RETURN_NOT_OK(indexes_[s].BulkLoad(std::move(pts)));
    }
    return Status::OK();
  }

  /// Removes a previously inserted object (group inverse).
  Status Erase(const Box& box, double value) { return Insert(box, -value); }

  /// Total pages across all 2^d indexes (the Fig. 9a size metric).
  Status PageCount(uint64_t* out) const {
    *out = 0;
    for (const Index& idx : indexes_) {
      uint64_t n = 0;
      BOXAGG_RETURN_NOT_OK(idx.PageCount(&n));
      *out += n;
    }
    return Status::OK();
  }

  Status Destroy() {
    for (Index& idx : indexes_) {
      BOXAGG_RETURN_NOT_OK(idx.Destroy());
    }
    return Status::OK();
  }

 private:
  int dims_;
  mutable std::vector<Index> indexes_;
};

/// \brief Box-count and box-average on top of two BoxSumIndexes (values and
/// unit weights). COUNT is SUM with value 1; AVG = SUM / COUNT (Sec. 2).
template <class Index>
class BoxAggregator {
 public:
  template <class Factory>
  BoxAggregator(int dims, Factory&& factory)
      : sums_(dims, factory), counts_(dims, factory) {}

  Status Insert(const Box& box, double value) {
    BOXAGG_RETURN_NOT_OK(sums_.Insert(box, value));
    return counts_.Insert(box, 1.0);
  }

  Status Erase(const Box& box, double value) {
    BOXAGG_RETURN_NOT_OK(sums_.Erase(box, value));
    return counts_.Erase(box, 1.0);
  }

  Status Sum(const Box& q, double* out) const { return sums_.Query(q, out); }

  Status Count(const Box& q, double* out) const {
    return counts_.Query(q, out);
  }

  /// Average value of intersecting objects; 0 when none intersect.
  Status Avg(const Box& q, double* out) const {
    double s, c;
    BOXAGG_RETURN_NOT_OK(sums_.Query(q, &s));
    BOXAGG_RETURN_NOT_OK(counts_.Query(q, &c));
    *out = std::fabs(c) < 0.5 ? 0.0 : s / c;
    return Status::OK();
  }

  /// Total pages of both indexes.
  Status PageCount(uint64_t* out) const {
    uint64_t a = 0, b = 0;
    BOXAGG_RETURN_NOT_OK(sums_.PageCount(&a));
    BOXAGG_RETURN_NOT_OK(counts_.PageCount(&b));
    *out = a + b;
    return Status::OK();
  }

  BoxSumIndex<Index>& sums() { return sums_; }
  BoxSumIndex<Index>& counts() { return counts_; }

 private:
  BoxSumIndex<Index> sums_;
  BoxSumIndex<Index> counts_;
};

// ---------------------------------------------------------------------------
// The Edelsbrunner-Overmars reduction of [13] (Sec. 2, Theorem 1): the
// pre-existing technique the paper improves upon. The sum of objects NOT
// intersecting q is expanded by inclusion-exclusion over per-dimension
// "outside" conditions (o.hi_i < q.lo_i or o.lo_i > q.hi_i; at most one can
// hold per dimension), costing sum_{k=1..d} 2^k C(d,k) = 3^d - 1
// dominance-sum queries against 3^d - 1 separate indexes.

/// Number of dominance-sum queries the [13] reduction needs in d dimensions.
inline uint64_t EoQueryCount(int d) {
  uint64_t total = 0;
  uint64_t choose = 1;  // C(d, k)
  for (int k = 1; k <= d; ++k) {
    choose = choose * static_cast<uint64_t>(d - k + 1) /
             static_cast<uint64_t>(k);
    total += (uint64_t{1} << k) * choose;
  }
  return total;
}

/// Number of dominance-sum queries the paper's corner transform needs.
inline uint64_t CornerQueryCount(int d) { return uint64_t{1} << d; }

/// \brief Box-sum via the [13] reduction, for comparison benchmarks.
///
/// One `Index` is kept per (subset T of dimensions, side assignment
/// sigma: T -> {low, high}); its dimensionality is |T|. The "low" condition
/// for dimension t stores key o.hi_t (queried strictly below q.lo_t); the
/// "high" condition stores -o.lo_t (queried strictly below -q.hi_t).
template <class Index>
class EoBoxSumIndex {
 public:
  /// \param factory callable Index(int dims) for a fresh empty index of the
  ///        given dimensionality.
  template <class Factory>
  EoBoxSumIndex(int dims, Factory&& factory) : dims_(dims) {
    // Enumerate terms: for each non-empty subset mask and each side
    // assignment over the subset's bits.
    for (uint32_t subset = 1; subset < (1u << dims); ++subset) {
      int k = __builtin_popcount(subset);
      for (uint32_t sides = 0; sides < (1u << k); ++sides) {
        terms_.push_back(Term{subset, sides, factory(k)});
      }
    }
  }

  int dims() const { return dims_; }
  size_t index_count() const { return terms_.size(); }

  Status Insert(const Box& box, double value) {
    BOXAGG_RETURN_NOT_OK(CheckBox(box, dims_));
    total_ += value;
    for (Term& t : terms_) {
      BOXAGG_RETURN_NOT_OK(t.index.Insert(StoragePoint(box, t), value));
    }
    return Status::OK();
  }

  Status Query(const Box& q, double* out) const {
    *out = 0;
    BOXAGG_RETURN_NOT_OK(CheckBox(q, dims_));
    // boxsum = total - sum_not_intersecting;
    // sum_not = sum over terms of (-1)^{|T|+1} . term.
    double not_sum = 0;
    for (const Term& t : terms_) {
      double part;
      BOXAGG_RETURN_NOT_OK(t.index.DominanceSum(QueryPoint(q, t), &part));
      int k = __builtin_popcount(t.subset);
      not_sum += (k % 2 == 1 ? 1.0 : -1.0) * part;
    }
    *out = total_ - not_sum;
    return Status::OK();
  }

  Status BulkLoad(const std::vector<BoxObject>& objects) {
    for (const BoxObject& o : objects) {
      BOXAGG_RETURN_NOT_OK(CheckBox(o.box, dims_));
    }
    for (Term& t : terms_) {
      std::vector<PointEntry<double>> pts;
      pts.reserve(objects.size());
      for (const BoxObject& o : objects) {
        pts.push_back({StoragePoint(o.box, t), o.value});
        // total accumulated once, below
      }
      BOXAGG_RETURN_NOT_OK(t.index.BulkLoad(std::move(pts)));
    }
    for (const BoxObject& o : objects) total_ += o.value;
    return Status::OK();
  }

  Status PageCount(uint64_t* out) const {
    *out = 0;
    for (const Term& t : terms_) {
      uint64_t n = 0;
      BOXAGG_RETURN_NOT_OK(t.index.PageCount(&n));
      *out += n;
    }
    return Status::OK();
  }

  Status Destroy() {
    for (Term& t : terms_) {
      BOXAGG_RETURN_NOT_OK(t.index.Destroy());
    }
    return Status::OK();
  }

 private:
  struct Term {
    uint32_t subset;  // which dimensions carry an outside condition
    uint32_t sides;   // bit b: side of the b-th set dimension (0=low, 1=high)
    Index index;      // |subset|-dimensional dominance index
  };

  Point StoragePoint(const Box& box, const Term& t) const {
    Point p;
    int slot = 0;
    for (int i = 0; i < dims_; ++i) {
      if (!((t.subset >> i) & 1u)) continue;
      bool high = (t.sides >> slot) & 1u;
      p[slot] = high ? -box.lo[i] : box.hi[i];
      ++slot;
    }
    return p;
  }

  Point QueryPoint(const Box& q, const Term& t) const {
    Point p;
    int slot = 0;
    for (int i = 0; i < dims_; ++i) {
      if (!((t.subset >> i) & 1u)) continue;
      bool high = (t.sides >> slot) & 1u;
      p[slot] = StrictlyBelow(high ? -q.hi[i] : q.lo[i]);
      ++slot;
    }
    return p;
  }

  int dims_;
  double total_ = 0;
  mutable std::vector<Term> terms_;
};

}  // namespace boxagg

#endif  // BOXAGG_CORE_BOX_SUM_INDEX_H_
