// PointEntry: a weighted point, the unit of data every dominance-sum index
// stores.

#ifndef BOXAGG_CORE_POINT_ENTRY_H_
#define BOXAGG_CORE_POINT_ENTRY_H_

#include <algorithm>
#include <vector>

#include "geom/point.h"

namespace boxagg {

/// \brief A d-dimensional point carrying an aggregate value.
template <class V>
struct PointEntry {
  Point pt;
  V value{};
};

/// Lexicographic comparison of points over the first `dims` coordinates;
/// used to canonicalize bulk-load input.
inline bool LexLess(const Point& a, const Point& b, int dims) {
  for (int i = 0; i < dims; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

inline bool LexEqual(const Point& a, const Point& b, int dims) {
  for (int i = 0; i < dims; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Sorts entries lexicographically and coalesces identical points by summing
/// their values. Input that is already strictly sorted (a border image, a
/// projected sub-load) returns after one O(n) check.
template <class V>
void SortAndCoalesce(std::vector<PointEntry<V>>* entries, int dims) {
  if (std::adjacent_find(entries->begin(), entries->end(),
                         [dims](const PointEntry<V>& a,
                                const PointEntry<V>& b) {
                           return !LexLess(a.pt, b.pt, dims);
                         }) == entries->end()) {
    return;
  }
  std::sort(entries->begin(), entries->end(),
            [dims](const PointEntry<V>& a, const PointEntry<V>& b) {
              return LexLess(a.pt, b.pt, dims);
            });
  size_t out = 0;
  for (size_t i = 0; i < entries->size(); ++i) {
    if (out > 0 && LexEqual((*entries)[out - 1].pt, (*entries)[i].pt, dims)) {
      (*entries)[out - 1].value += (*entries)[i].value;
    } else {
      if (out != i) (*entries)[out] = (*entries)[i];
      ++out;
    }
  }
  entries->resize(out);
}

}  // namespace boxagg

#endif  // BOXAGG_CORE_POINT_ENTRY_H_
