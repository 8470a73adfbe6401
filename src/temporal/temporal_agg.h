// Temporal aggregation (Sec. 7 "Temporal Aggregation and Objects with
// Extent"): the cumulative temporal aggregation query — the aggregate over
// all records whose time interval intersects a query interval — is exactly
// the 1-dimensional box-sum problem, and the instantaneous variant (records
// whose interval contains a time instant) is its degenerate case. This
// module gives both a domain-shaped API over the corner-transform reduction
// (2 dominance indexes in 1-d, as the JSB-tree of [37] effectively
// maintains).

#ifndef BOXAGG_TEMPORAL_TEMPORAL_AGG_H_
#define BOXAGG_TEMPORAL_TEMPORAL_AGG_H_

#include "core/box_sum_index.h"

namespace boxagg {

/// \brief A time interval [start, end] (closed, like all boxes here).
struct Interval {
  double start = 0;
  double end = 0;

  [[nodiscard]] Box ToBox() const { return Box(Point(start), Point(end)); }
};

/// \brief Cumulative (and instantaneous) temporal SUM/COUNT/AVG over
/// interval records.
///
/// `Index` is any 1-d dominance-sum index (AggBTree wrapped by
/// PackedBaTree / EcdfBTree with dims = 1).
template <class Index>
class TemporalAggregator {
 public:
  /// \param factory callable returning a fresh empty 1-d Index.
  template <class Factory>
  explicit TemporalAggregator(Factory&& factory)
      : sums_(1, factory), counts_(1, factory) {}

  /// Registers a record valid over `iv` with value `v`.
  Status Insert(const Interval& iv, double v) {
    if (iv.end < iv.start) {
      return Status::InvalidArgument("interval end before start");
    }
    BOXAGG_RETURN_NOT_OK(sums_.Insert(iv.ToBox(), v));
    return counts_.Insert(iv.ToBox(), 1.0);
  }

  /// Removes a previously inserted record.
  Status Erase(const Interval& iv, double v) {
    BOXAGG_RETURN_NOT_OK(sums_.Erase(iv.ToBox(), v));
    return counts_.Erase(iv.ToBox(), 1.0);
  }

  /// Cumulative SUM: total value of records intersecting [q.start, q.end].
  Status Sum(const Interval& q, double* out) const {
    return sums_.Query(q.ToBox(), out);
  }

  /// Cumulative COUNT over the query interval.
  Status Count(const Interval& q, double* out) const {
    return counts_.Query(q.ToBox(), out);
  }

  /// Cumulative AVG (0 when no record intersects).
  Status Avg(const Interval& q, double* out) const {
    double s, c;
    BOXAGG_RETURN_NOT_OK(sums_.Query(q.ToBox(), &s));
    BOXAGG_RETURN_NOT_OK(counts_.Query(q.ToBox(), &c));
    *out = c < 0.5 ? 0.0 : s / c;
    return Status::OK();
  }

  /// Instantaneous SUM at time `t`: records whose interval contains t.
  Status SumAt(double t, double* out) const {
    return Sum(Interval{t, t}, out);
  }

  /// Instantaneous COUNT at time `t`.
  Status CountAt(double t, double* out) const {
    return Count(Interval{t, t}, out);
  }

  Status PageCount(uint64_t* out) const {
    uint64_t a = 0, b = 0;
    BOXAGG_RETURN_NOT_OK(sums_.PageCount(&a));
    BOXAGG_RETURN_NOT_OK(counts_.PageCount(&b));
    *out = a + b;
    return Status::OK();
  }

 private:
  BoxSumIndex<Index> sums_;
  BoxSumIndex<Index> counts_;
};

}  // namespace boxagg

#endif  // BOXAGG_TEMPORAL_TEMPORAL_AGG_H_
