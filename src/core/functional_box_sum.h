// FunctionalBoxSumIndex: the functional box-sum problem of Sec. 3, reduced
// to dominance-sums over polynomial coefficient tuples (Theorem 3).
//
// Unlike the simple problem — 2^d scalar indexes, one insert each — the
// functional problem keeps ONE index whose values are polynomials, receives
// 2^d corner-update inserts per object, and answers a query with 2^d OIFBS
// evaluations (aggregate the dominated coefficient tuples, evaluate at the
// query corner, combine with prefix-sum signs). This mirrors the
// "Discussion" contrast at the end of Sec. 3.
//
// 2-dimensional, like the paper's functional experiments; DEG bounds the
// per-variable degree of the stored value functions (object functions of
// total degree k need DEG >= k + 1).

#ifndef BOXAGG_CORE_FUNCTIONAL_BOX_SUM_H_
#define BOXAGG_CORE_FUNCTIONAL_BOX_SUM_H_

#include <cmath>
#include <string>
#include <vector>

#include "core/box_sum_index.h"
#include "core/point_entry.h"
#include "geom/box.h"
#include "poly/corner_updates.h"
#include "storage/status.h"

namespace boxagg {

/// \brief Functional box-sum over one polynomial-valued dominance index.
///
/// `Index` must provide Insert(Point, Poly2<DEG>),
/// DominanceSum(Point, Poly2<DEG>*), BulkLoad(vector<PointEntry<Poly2<DEG>>>),
/// PageCount, Destroy.
template <class Index, int DEG>
class FunctionalBoxSumIndex {
 public:
  explicit FunctionalBoxSumIndex(Index index) : index_(std::move(index)) {}

  Index& index() { return index_; }

  /// Registers an object with box `box` and value function `f` (a monomial
  /// list, see CheckFunction): 2^d = 4 point insertions of coefficient
  /// tuples.
  Status Insert(const Box& box, const std::vector<Monomial2>& f) {
    BOXAGG_RETURN_NOT_OK(CheckBox(box, /*dims=*/2));
    BOXAGG_RETURN_NOT_OK(CheckFunction(f));
    auto updates = MakeCornerUpdates<DEG>(box, f);
    for (const auto& u : updates) {
      BOXAGG_RETURN_NOT_OK(index_.Insert(u.point, u.value));
    }
    return Status::OK();
  }

  /// Removes a previously inserted object (group inverse of its updates).
  Status Erase(const Box& box, std::vector<Monomial2> f) {
    for (Monomial2& m : f) m.a = -m.a;
    return Insert(box, f);
  }

  /// Integral-weighted sum over objects intersecting `q`: the OIFBS at each
  /// of q's corners, combined with prefix-sum inclusion-exclusion signs.
  Status Query(const Box& q, double* out) const {
    *out = 0;
    BOXAGG_RETURN_NOT_OK(CheckBox(q, /*dims=*/2));
    for (uint32_t mask = 0; mask < 4; ++mask) {
      Point corner = q.Corner(mask, /*dims=*/2);
      Poly2<DEG> agg;
      BOXAGG_RETURN_NOT_OK(index_.DominanceSum(corner, &agg));
      double sign = ((2 - __builtin_popcount(mask)) % 2 == 0) ? 1.0 : -1.0;
      *out += sign * agg.Evaluate(corner[0], corner[1]);
    }
    return Status::OK();
  }

  /// Bulk-loads from a collection of functional objects (4n corner tuples).
  Status BulkLoad(const std::vector<FunctionalObject>& objects) {
    for (const FunctionalObject& o : objects) {
      BOXAGG_RETURN_NOT_OK(CheckBox(o.box, /*dims=*/2));
      BOXAGG_RETURN_NOT_OK(CheckFunction(o.f));
    }
    std::vector<PointEntry<Poly2<DEG>>> pts;
    pts.reserve(objects.size() * 4);
    for (const FunctionalObject& o : objects) {
      auto updates = MakeCornerUpdates<DEG>(o.box, o.f);
      for (const auto& u : updates) {
        pts.push_back({u.point, u.value});
      }
    }
    return index_.BulkLoad(std::move(pts));
  }

  Status PageCount(uint64_t* out) const { return index_.PageCount(out); }

  Status Destroy() { return index_.Destroy(); }

  /// InvalidArgument unless every monomial a * x^p * y^q of `f` has
  /// 0 <= p, q <= DEG - 1 (its partial integrals, of degree p + 1 and
  /// q + 1, must fit a Poly2<DEG>) and a finite coefficient a.
  static Status CheckFunction(const std::vector<Monomial2>& f) {
    for (const Monomial2& m : f) {
      if (m.p < 0 || m.p > DEG - 1 || m.q < 0 || m.q > DEG - 1 ||
          !std::isfinite(m.a)) {
        return Status::InvalidArgument(
            "malformed monomial: needs exponents in [0, " +
            std::to_string(DEG - 1) + "] and a finite coefficient");
      }
    }
    return Status::OK();
  }

 private:
  mutable Index index_;
};

}  // namespace boxagg

#endif  // BOXAGG_CORE_FUNCTIONAL_BOX_SUM_H_
