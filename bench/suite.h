// SimpleSuite: builds the four competing simple box-sum approaches of
// Sec. 6 over one object workload, each in its own storage, so benches can
// report per-index sizes and query costs:
//   aR     — R*-tree with aggregate-augmented entries (STR bulk load)
//   ECDFu  — four ECDF-Bu-trees under the corner-transform reduction
//   ECDFq  — four ECDF-Bq-trees
//   BAT    — four BA-trees with the paper's border-packing remedy

#ifndef BOXAGG_BENCH_SUITE_H_
#define BOXAGG_BENCH_SUITE_H_

#include <optional>

#include "batree/packed_ba_tree.h"
#include "bench/common.h"
#include "core/box_sum_index.h"
#include "ecdf/ecdf_btree.h"
#include "rtree/rstar_tree.h"

namespace boxagg {
namespace bench {

inline void DieIf(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

class SimpleSuite {
 public:
  struct Options {
    bool build_ar = true;
    bool build_ecdfu = true;
    bool build_ecdfq = true;
    bool build_bat = true;
  };

  SimpleSuite(const Config& cfg, const std::vector<BoxObject>& objects)
      : SimpleSuite(cfg, objects, Options{}) {}

  SimpleSuite(const Config& cfg, const std::vector<BoxObject>& objects,
              Options opt)
      : cfg_(cfg) {
    if (opt.build_ar) {
      ar_storage_ = std::make_unique<Storage>(cfg, "ar");
      artree_.emplace(ar_storage_->pool(), 2);
      std::vector<RStarTree<>::Object> items;
      items.reserve(objects.size());
      for (const auto& o : objects) items.push_back({o.box, o.value});
      DieIf(artree_->BulkLoad(std::move(items)), "aR bulk load");
    }
    if (opt.build_ecdfu) {
      ecdfu_storage_ = std::make_unique<Storage>(cfg, "ecdfu");
      ecdfu_.emplace(2, [&] {
        return EcdfBTree<double>(ecdfu_storage_->pool(), 2,
                                 EcdfVariant::kUpdateOptimized);
      });
      DieIf(ecdfu_->BulkLoad(objects), "ECDFu bulk load");
    }
    if (opt.build_ecdfq) {
      ecdfq_storage_ = std::make_unique<Storage>(cfg, "ecdfq");
      ecdfq_.emplace(2, [&] {
        return EcdfBTree<double>(ecdfq_storage_->pool(), 2,
                                 EcdfVariant::kQueryOptimized);
      });
      DieIf(ecdfq_->BulkLoad(objects), "ECDFq bulk load");
    }
    if (opt.build_bat) {
      bat_storage_ = std::make_unique<Storage>(cfg, "bat");
      bat_.emplace(2,
                   [&] { return PackedBaTree<double>(bat_storage_->pool(), 2); });
      DieIf(bat_->BulkLoad(objects), "BAT bulk load");
    }
  }

  Storage& ar_storage() { return *ar_storage_; }
  Storage& ecdfu_storage() { return *ecdfu_storage_; }
  Storage& ecdfq_storage() { return *ecdfq_storage_; }
  Storage& bat_storage() { return *bat_storage_; }

  RStarTree<>& artree() { return *artree_; }
  BoxSumIndex<EcdfBTree<double>>& ecdfu() { return *ecdfu_; }
  BoxSumIndex<EcdfBTree<double>>& ecdfq() { return *ecdfq_; }
  BoxSumIndex<PackedBaTree<double>>& bat() { return *bat_; }

  BatchCost MeasureAr(const std::vector<Box>& queries, bool use_aggregates) {
    return MeasureQueries(ar_storage_->pool(), queries,
                          [&](const Box& q, double* r) {
                            DieIf(artree_->AggregateQuery(q, use_aggregates, r),
                                  "aR query");
                          });
  }
  BatchCost MeasureEcdfu(const std::vector<Box>& queries) {
    return MeasureQueries(
        ecdfu_storage_->pool(), queries,
        [&](const Box& q, double* r) { DieIf(ecdfu_->Query(q, r), "ECDFu"); });
  }
  BatchCost MeasureEcdfq(const std::vector<Box>& queries) {
    return MeasureQueries(
        ecdfq_storage_->pool(), queries,
        [&](const Box& q, double* r) { DieIf(ecdfq_->Query(q, r), "ECDFq"); });
  }
  BatchCost MeasureBat(const std::vector<Box>& queries) {
    return MeasureQueries(
        bat_storage_->pool(), queries,
        [&](const Box& q, double* r) { DieIf(bat_->Query(q, r), "BAT"); });
  }

 private:
  Config cfg_;
  std::unique_ptr<Storage> ar_storage_, ecdfu_storage_, ecdfq_storage_,
      bat_storage_;
  std::optional<RStarTree<>> artree_;
  std::optional<BoxSumIndex<EcdfBTree<double>>> ecdfu_;
  std::optional<BoxSumIndex<EcdfBTree<double>>> ecdfq_;
  std::optional<BoxSumIndex<PackedBaTree<double>>> bat_;
};

}  // namespace bench
}  // namespace boxagg

#endif  // BOXAGG_BENCH_SUITE_H_
