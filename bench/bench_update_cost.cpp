// Ablation A3: incremental update cost across approaches — average I/Os and
// CPU per inserted object (one object = 4 corner-point inserts for the
// dominance-sum approaches, 1 object insert for the aR-tree).
//
// Expected shape (Table 1 + Sec. 5): ECDFu and BAT update cheaply (ECDFu one
// border per level, BAT ~sqrt(B) borders per node); ECDFq is by far the most
// expensive (every border right of the path plus prefix-border rebuilds on
// splits); the aR-tree is cheapest (object index, no aggregate fan-out).

#include "batree/packed_ba_tree.h"
#include "bench/suite.h"
#include "core/box_sum_index.h"
#include "ecdf/ecdf_btree.h"
#include "rtree/rstar_tree.h"

using namespace boxagg;
using namespace boxagg::bench;

namespace {

struct Row {
  double ios_per_insert;
  double cpu_us_per_insert;
};

template <class InsertFn>
Row MeasureInserts(Storage* storage, const std::vector<BoxObject>& objs,
                   InsertFn&& insert) {
  DieIf(storage->pool()->Reset(), "reset");
  IoStats before = storage->pool()->stats();
  double cpu0 = CpuMillis();
  for (const auto& o : objs) insert(o);
  double cpu = CpuMillis() - cpu0;
  uint64_t ios = storage->pool()->stats().Since(before).TotalIos();
  return Row{static_cast<double>(ios) / static_cast<double>(objs.size()),
             cpu * 1000.0 / static_cast<double>(objs.size())};
}

}  // namespace

int main() {
  Config cfg = Config::FromEnv();
  // Keep the base load moderate: ECDFq incremental updates are the point of
  // this bench and they are expensive by design.
  size_t base_n = std::min<size_t>(cfg.n, 50000);
  size_t updates = std::min<size_t>(cfg.queries * 10, 2000);
  cfg.Log("Ablation A3: per-insert update cost");
  obs::LogInfo("base load %zu objects, then %zu incremental inserts", base_n,
               updates);

  workload::RectConfig rc;
  rc.n = base_n + updates;
  rc.seed = cfg.seed;
  auto all = workload::UniformRects(rc);
  std::vector<BoxObject> base(all.begin(),
                              all.begin() + static_cast<ptrdiff_t>(base_n));
  std::vector<BoxObject> extra(all.begin() + static_cast<ptrdiff_t>(base_n),
                               all.end());

  obs::LogInfo("  %-8s %14s %16s", "index", "I/Os/insert", "CPU us/insert");

  {
    Storage s(cfg, "upar");
    RStarTree<> tree(s.pool(), 2);
    std::vector<RStarTree<>::Object> items;
    for (const auto& o : base) items.push_back({o.box, o.value});
    DieIf(tree.BulkLoad(std::move(items)), "aR bulk");
    Row r = MeasureInserts(&s, extra, [&](const BoxObject& o) {
      DieIf(tree.Insert(o.box, o.value), "aR insert");
    });
    obs::LogInfo("  %-8s %14.2f %16.1f", "aR", r.ios_per_insert,
                 r.cpu_us_per_insert);
  }
  {
    Storage s(cfg, "upbu");
    BoxSumIndex<EcdfBTree<double>> index(2, [&] {
      return EcdfBTree<double>(s.pool(), 2, EcdfVariant::kUpdateOptimized);
    });
    DieIf(index.BulkLoad(base), "ECDFu bulk");
    Row r = MeasureInserts(&s, extra, [&](const BoxObject& o) {
      DieIf(index.Insert(o.box, o.value), "ECDFu insert");
    });
    obs::LogInfo("  %-8s %14.2f %16.1f", "ECDFu", r.ios_per_insert,
                 r.cpu_us_per_insert);
  }
  double bq_ios = 0;
  {
    Storage s(cfg, "upbq");
    BoxSumIndex<EcdfBTree<double>> index(2, [&] {
      return EcdfBTree<double>(s.pool(), 2, EcdfVariant::kQueryOptimized);
    });
    DieIf(index.BulkLoad(base), "ECDFq bulk");
    Row r = MeasureInserts(&s, extra, [&](const BoxObject& o) {
      DieIf(index.Insert(o.box, o.value), "ECDFq insert");
    });
    bq_ios = r.ios_per_insert;
    obs::LogInfo("  %-8s %14.2f %16.1f", "ECDFq", r.ios_per_insert,
                 r.cpu_us_per_insert);
  }
  double bat_ios = 0;
  {
    Storage s(cfg, "upbat");
    BoxSumIndex<PackedBaTree<double>> index(
        2, [&] { return PackedBaTree<double>(s.pool(), 2); });
    DieIf(index.BulkLoad(base), "BAT bulk");
    Row r = MeasureInserts(&s, extra, [&](const BoxObject& o) {
      DieIf(index.Insert(o.box, o.value), "BAT insert");
    });
    bat_ios = r.ios_per_insert;
    obs::LogInfo("  %-8s %14.2f %16.1f", "BAT", r.ios_per_insert,
                 r.cpu_us_per_insert);
  }
  obs::LogInfo(
      "paper shape check: ECDFq update much costlier than BAT: x%.1f",
      bq_ios / std::max(0.01, bat_ios));
  return 0;
}
