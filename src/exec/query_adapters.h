// QueryFn adapters: bridge every read-only index in the library to the
// ParallelQueryExecutor's uniform `Status(const Box&, double*)` shape.
//
// All adapters capture a raw pointer to the index; the caller keeps the
// index (and its storage) alive for the lifetime of the returned QueryFn.
// The adapted calls are const-qualified reads — safe to invoke from many
// executor workers at once over a sharded BufferPool.

#ifndef BOXAGG_EXEC_QUERY_ADAPTERS_H_
#define BOXAGG_EXEC_QUERY_ADAPTERS_H_

#include "core/box_sum_index.h"
#include "exec/parallel_executor.h"
#include "geom/box.h"
#include "rtree/rstar_tree.h"

namespace boxagg {
namespace exec {

/// Box-sum over a corner-transform reduction (BA-tree, packed BA-tree,
/// ECDF-B-tree, aggregate B+-tree — anything a BoxSumIndex wraps).
template <class Index>
QueryFn BoxSumQueryFn(const BoxSumIndex<Index>* index) {
  return [index](const Box& q, double* out) { return index->Query(q, out); };
}

/// Batched box-sum over a corner-transform reduction: one QueryBatch call
/// answers the whole span with corner dedup and sorted multi-probe descents.
/// Results are bit-identical to per-query BoxSumQueryFn calls. Pair with
/// ParallelQueryExecutor::RunBatchGrouped.
template <class Index>
BatchQueryFn BoxSumBatchQueryFn(const BoxSumIndex<Index>* index) {
  return [index](const Box* qs, size_t count, double* out) {
    return index->QueryBatch(qs, count, out);
  };
}

/// Aggregate box query over an aR-tree (or plain R*-tree range scan with
/// use_aggregates = false).
template <class Traits>
QueryFn RTreeAggregateQueryFn(const RStarTree<Traits>* tree,
                              bool use_aggregates) {
  return [tree, use_aggregates](const Box& q, double* out) {
    return tree->AggregateQuery(q, use_aggregates, out);
  };
}

/// Dominance-sum probe at the query box's high corner, for any index with
/// `Status DominanceSum(const Point&, double*) const` (PackedBaTree,
/// EcdfBTree). The box's low corner is ignored — dominance queries are
/// anchored at a single point.
template <class Tree>
QueryFn DominanceSumQueryFn(const Tree* tree) {
  return [tree](const Box& q, double* out) {
    return tree->DominanceSum(q.hi, out);
  };
}

}  // namespace exec
}  // namespace boxagg

#endif  // BOXAGG_EXEC_QUERY_ADAPTERS_H_
