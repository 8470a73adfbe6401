// Spatio-temporal fleet telemetry: each record is the bounding box of a
// vehicle's trip segment over a time window, weighted by fuel burned.
// Dispatchers ask "how much fuel was burned by trips touching this district
// during this hour?" — a 3-d box-sum — continuously, while new segments
// stream in and corrections retract old ones.
//
// The example also measures both the BA-tree's and the aR-tree's I/O on the
// same dashboard workload. Note the scale caveat: at this toy size the
// whole aR-tree fits in the 10MB buffer, so the object index looks cheap;
// the regime the paper evaluates (indexes far larger than the buffer, where
// the BA-tree wins by an order of magnitude) is reproduced by
// bench/bench_fig9b_query_cost at full N.

#include <cstdio>
#include <cstdlib>
#include <random>

#include "batree/packed_ba_tree.h"
#include "core/box_sum_index.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

using namespace boxagg;

namespace {

struct Segment {
  Box box;  // x, y in city km; z = time in minutes since midnight
  double fuel_l;
};

// A failed call here would leave the dashboard numbers below as garbage, so
// every Status is checked; die loudly rather than print a wrong answer.
void OrDie(const Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "fatal: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

std::vector<Segment> SimulateDay(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> upos(0, 50);
  std::uniform_real_distribution<double> ulen(0.2, 3.0);
  std::uniform_real_distribution<double> ustart(0, 1380);
  std::uniform_real_distribution<double> udur(5, 60);
  std::uniform_real_distribution<double> ufuel(0.2, 6.0);
  std::vector<Segment> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double x = upos(rng), y = upos(rng), t = ustart(rng);
    out.push_back({Box(Point(x, y, t),
                       Point(x + ulen(rng), y + ulen(rng), t + udur(rng))),
                   ufuel(rng)});
  }
  return out;
}

}  // namespace

int main() {
  MemPageFile ba_file(kDefaultPageSize);
  BufferPool ba_pool(&ba_file,
                     BufferPool::CapacityForMegabytes(10, kDefaultPageSize));
  MemPageFile ar_file(kDefaultPageSize);
  BufferPool ar_pool(&ar_file,
                     BufferPool::CapacityForMegabytes(10, kDefaultPageSize));

  BoxAggregator<PackedBaTree<double>> fuel(
      /*dims=*/3, [&] { return PackedBaTree<double>(&ba_pool, 3); });
  RStarTree<> artree(&ar_pool, 3);

  auto segments = SimulateDay(30000, 11);
  for (const Segment& s : segments) {
    if (!fuel.Insert(s.box, s.fuel_l).ok() ||
        !artree.Insert(s.box, s.fuel_l).ok()) {
      std::fprintf(stderr, "insert failed\n");
      return 1;
    }
  }
  std::printf("ingested %zu trip segments\n", segments.size());

  // A correction arrives: the first 100 segments were duplicates.
  for (size_t i = 0; i < 100; ++i) {
    OrDie(fuel.Erase(segments[i].box, segments[i].fuel_l));
  }
  std::printf("retracted 100 duplicate segments from the aggregate index\n");

  // District dashboard: downtown (10..20 km square), rush hour 17:00-18:00.
  Box downtown_rush(Point(10, 10, 1020), Point(20, 20, 1080));
  double litres = 0, trips = 0, avg = 0;
  OrDie(fuel.Sum(downtown_rush, &litres));
  OrDie(fuel.Count(downtown_rush, &trips));
  OrDie(fuel.Avg(downtown_rush, &avg));
  std::printf("downtown 17:00-18:00: %.1f L over %.0f trips (avg %.2f L)\n",
              litres, trips, avg);

  // Live I/O comparison on a dashboard refresh cycle: 100 district queries.
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> upos(0, 40);
  std::uniform_real_distribution<double> ut(0, 1320);
  std::vector<Box> dashboards;
  for (int i = 0; i < 100; ++i) {
    double x = upos(rng), y = upos(rng), t = ut(rng);
    dashboards.push_back(
        Box(Point(x, y, t), Point(x + 10, y + 10, t + 60)));
  }
  OrDie(ba_pool.Reset());
  OrDie(ar_pool.Reset());
  IoStats ba0 = ba_pool.stats(), ar0 = ar_pool.stats();
  double ba_sum = 0, ar_sum = 0;
  for (const Box& q : dashboards) {
    double r;
    OrDie(fuel.Sum(q, &r));
    ba_sum += r;
    OrDie(artree.AggregateQuery(q, true, &r));
    ar_sum += r;
  }
  std::printf("dashboard refresh (100 box-sums):\n");
  std::printf("  BA-tree:  %llu physical I/Os\n",
              static_cast<unsigned long long>(
                  ba_pool.stats().Since(ba0).TotalIos()));
  std::printf("  aR-tree:  %llu physical I/Os\n",
              static_cast<unsigned long long>(
                  ar_pool.stats().Since(ar0).TotalIos()));
  // The aR-tree still has the 100 duplicate segments (object indexes need
  // explicit deletion support); account for that in the cross-check.
  double dup = 0;
  for (size_t i = 0; i < 100; ++i) {
    for (const Box& q : dashboards) {
      if (segments[i].box.Intersects(q, 3)) dup += segments[i].fuel_l;
    }
  }
  std::printf("cross-check: |BA - (aR - retracted)| = %.6f\n",
              std::abs(ba_sum - (ar_sum - dup)));
  return 0;
}
