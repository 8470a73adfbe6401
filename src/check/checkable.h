// CheckContext and the shared helpers of the repo-wide structural-
// verification layer.
//
// Every disk index and the storage engine itself expose
// CheckConsistency(CheckContext*), a deep structural audit that re-derives
// each structure's invariants from its raw pages and reports the first
// violation as Status::Corruption with page-level diagnostics. The paper's
// structures are only as trustworthy as their invariants — the aggregate
// B+-tree's subtree-sum identity, the ECDF-B-tree border/projection
// consistency (Sec. 4), the BA-tree border augmentation (Sec. 5), the
// aR-tree MBR/aggregate identities — and an aggregate index with a drifted
// invariant returns plausible-but-wrong sums that no query-level test can
// distinguish from correct ones.
//
// The CheckContext threads a page-visit set through every structure checked
// against the same file, so page-graph corruption (two structures sharing a
// page, a cycle, a dangling child pointer re-entering an already-owned
// subtree) is detected across structure boundaries — this is what
// boxagg_fsck runs over a whole index file.

#ifndef BOXAGG_CHECK_CHECKABLE_H_
#define BOXAGG_CHECK_CHECKABLE_H_

#include <cmath>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "storage/page.h"
#include "storage/status.h"

namespace boxagg {

/// Builds a Status::Corruption carrying the page id where the invariant
/// broke, so fsck output and test failures point at the offending page.
inline Status CorruptionAt(PageId pid, const std::string& what) {
  return Status::Corruption("page " + std::to_string(pid) + ": " + what);
}

/// \brief Shared state for one verification pass.
///
/// A single context may be threaded through many structures that live in the
/// same PageFile; the visited set then catches pages claimed by two owners.
struct CheckContext {
  /// Every page visited so far; a revisit within one pass is corruption
  /// (cycle or a page owned by two structures).
  std::unordered_set<PageId> visited;

  /// Run the (slower) self-oracle query sampling where a structure offers
  /// one. Structure-only passes (e.g. fsck over huge files) may disable it.
  bool check_oracle = true;

  /// When set, BufferPool::CheckConsistency treats any pinned frame as
  /// corruption. Quiescent points (end of a batch, fsck, pool teardown) own
  /// no PageGuards, so a surviving pin there is a leaked guard.
  bool expect_unpinned = false;

  /// Marks `pid` visited; Corruption if it was already seen in this pass.
  Status Visit(PageId pid, const char* structure) {
    if (!visited.insert(pid).second) {
      return CorruptionAt(pid, std::string(structure) +
                                   ": page reached twice (cycle or shared "
                                   "ownership)");
    }
    return Status::OK();
  }
};

/// Absolute drift between two aggregate values: |a - b| summed over
/// components. Aggregates are rebuilt in a different addition order than the
/// stored ones, so checks compare with a tolerance instead of bit equality.
template <class V>
double AggDrift(const V& a, const V& b) {
  V d = a;
  d -= b;
  if constexpr (std::is_same_v<V, double>) {
    return std::abs(d);
  } else {
    double s = 0;
    for (double c : d.c) s += std::abs(c);
    return s;
  }
}

/// Tolerance for subtree-sum identities; generous relative to the unit-scale
/// values the tests and benches insert, tight enough to catch any real
/// drift (a lost or double-counted entry shifts sums by >= one value).
inline constexpr double kAggDriftTolerance = 1e-6;

/// Sampled naive-oracle check of a dominance-sum index against the points
/// it holds. About 400 of `pts` (all of them when there are at most 400)
/// are probed twice, at the point itself and shifted by 0.25 in every
/// dimension; `index.DominanceSum(q, &got)` must match the naive sum over
/// `pts` within kAggDriftTolerance, or the check returns Corruption(`what`).
template <class Index, class Entry>
Status SampledSelfOracle(const Index& index, int dims,
                         const std::vector<Entry>& pts, const char* what) {
  using V = std::decay_t<decltype(Entry::value)>;
  const size_t step = pts.size() <= 400 ? 1 : pts.size() / 400;
  for (size_t k = 0; k < pts.size(); k += step) {
    for (double jitter : {0.0, 0.25}) {
      auto q = pts[k].pt;
      for (int d = 0; d < dims; ++d) q[d] += jitter;
      V got;
      BOXAGG_RETURN_NOT_OK(index.DominanceSum(q, &got));
      V want{};
      for (const Entry& e : pts) {
        if (q.Dominates(e.pt, dims)) want += e.value;
      }
      if (AggDrift(want, got) > kAggDriftTolerance) {
        return Status::Corruption(what);
      }
    }
  }
  return Status::OK();
}

}  // namespace boxagg

#endif  // BOXAGG_CHECK_CHECKABLE_H_
