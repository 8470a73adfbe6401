// StaticEcdfTree: Bentley's main-memory ECDF-tree ([5]; Sec. 4 of the paper).
//
// A d-dimensional ECDF-tree is a balanced binary tree over the points sorted
// by their first coordinate; every internal node stores a *border* — a
// (d-1)-dimensional ECDF-tree over the left subtree's points projected onto
// the remaining dimensions. A dominance-sum query at p walks one root-to-leaf
// path: whenever it goes right, it adds the border's (d-1)-dim dominance-sum
// at the projection of p.
//
// The structure is static (built once from a point set) and in-memory; the
// ECDF-B-trees and the BA-tree are the paper's disk-based, dynamic answers to
// its limitations. It is kept as the paper's reference structure; only its
// own tests (ecdf_test.cpp, against the naive oracle) use it.

#ifndef BOXAGG_ECDF_STATIC_ECDF_TREE_H_
#define BOXAGG_ECDF_STATIC_ECDF_TREE_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "core/point_entry.h"

namespace boxagg {

/// \brief Static multi-level ECDF-tree answering dominance-sum queries in
/// O(log^d n) comparisons.
template <class V>
class StaticEcdfTree {
 public:
  /// Builds the tree from `entries` (copied; order irrelevant).
  StaticEcdfTree(int dims, std::vector<PointEntry<V>> entries) : dims_(dims) {
    SortAndCoalesce(&entries, dims_);
    if (dims_ == 1) {
      base_keys_.reserve(entries.size());
      base_prefix_.reserve(entries.size());
      V run{};
      for (const auto& e : entries) {
        base_keys_.push_back(e.pt[0]);
        run += e.value;
        base_prefix_.push_back(run);
      }
    } else if (!entries.empty()) {
      root_ = Build(entries, 0, entries.size());
    }
    size_ = entries.size();
  }

  [[nodiscard]] int dims() const { return dims_; }
  [[nodiscard]] size_t size() const { return size_; }

  /// Total value of all points dominated by `q`.
  V Query(const Point& q) const {
    if (dims_ == 1) {
      // Last key <= q[0].
      auto it = std::upper_bound(base_keys_.begin(), base_keys_.end(), q[0]);
      if (it == base_keys_.begin()) return V{};
      return base_prefix_[static_cast<size_t>(it - base_keys_.begin()) - 1];
    }
    V acc{};
    const Node* n = root_.get();
    while (n != nullptr) {
      if (n->IsLeaf()) {
        for (const auto& e : n->bucket) {
          if (q.Dominates(e.pt, dims_)) acc += e.value;
        }
        break;
      }
      if (q[0] < n->split) {
        n = n->left.get();
      } else {
        // Entire left subtree is dominated in dim 0; its contribution is a
        // (d-1)-dim dominance-sum on the border.
        acc += n->border->Query(q.DropDim(0, dims_));
        n = n->right.get();
      }
    }
    return acc;
  }

 private:
  struct Node {
    double split = 0.0;  // max dim-0 coordinate in the left subtree
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
    std::unique_ptr<StaticEcdfTree> border;  // left subtree, dims-1
    std::vector<PointEntry<V>> bucket;       // leaf payload

    bool IsLeaf() const { return border == nullptr; }
  };

  static constexpr size_t kLeafBucket = 8;

  std::unique_ptr<Node> Build(const std::vector<PointEntry<V>>& pts,
                              size_t lo, size_t hi) {
    auto n = std::make_unique<Node>();
    if (hi - lo <= kLeafBucket) {
      n->bucket.assign(pts.begin() + static_cast<ptrdiff_t>(lo),
                       pts.begin() + static_cast<ptrdiff_t>(hi));
      return n;
    }
    size_t mid = (lo + hi) / 2;
    // split = first right-subtree coordinate: q[0] >= split implies q[0] is
    // at least the left-subtree maximum, so going right may add the whole
    // left border (non-strict dominance handles equal coordinates).
    n->split = pts[mid].pt[0];
    n->left = Build(pts, lo, mid);
    n->right = Build(pts, mid, hi);
    std::vector<PointEntry<V>> projected;
    projected.reserve(mid - lo);
    for (size_t i = lo; i < mid; ++i) {
      projected.push_back({pts[i].pt.DropDim(0, dims_), pts[i].value});
    }
    n->border = std::make_unique<StaticEcdfTree>(dims_ - 1,
                                                 std::move(projected));
    return n;
  }

  int dims_;
  size_t size_ = 0;
  std::unique_ptr<Node> root_;       // dims >= 2
  std::vector<double> base_keys_;    // dims == 1: sorted keys
  std::vector<V> base_prefix_;       // dims == 1: prefix sums
};

}  // namespace boxagg

#endif  // BOXAGG_ECDF_STATIC_ECDF_TREE_H_
