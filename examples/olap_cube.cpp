// OLAP range-sum: the paper notes (Sec. 1) that its solution also computes
// range-sums over data cubes — the range-sum problem is the box-sum special
// case where every object is a point (Sec. 2), and the BA-tree partitions by
// data distribution rather than a uniform grid (contrast with the dynamic
// data cube of [14]).
//
// This example models a sales cube over (product_id, day) cells, answers
// range-sum queries ("revenue of products 100..200 during Q2"), applies
// late-arriving updates, and shows the dominance-sum ("running total up to
// (p, d)") that the structure natively maintains.

#include <cstdio>
#include <cstdlib>
#include <random>

#include "batree/packed_ba_tree.h"
#include "storage/buffer_pool.h"

using namespace boxagg;

namespace {

// A failed call here would leave the printed answers below as garbage, so
// every Status is checked; die loudly rather than print a wrong answer.
void OrDie(const Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "fatal: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  MemPageFile file(kDefaultPageSize);
  BufferPool pool(&file,
                  BufferPool::CapacityForMegabytes(10, kDefaultPageSize));

  // For point objects a single BA-tree suffices: a range-sum over
  // [lo, hi] is the 4-corner inclusion-exclusion on one dominance index.
  PackedBaTree<double> cube(&pool, 2);

  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int> uproduct(0, 999);
  std::uniform_int_distribution<int> uday(0, 364);
  std::uniform_real_distribution<double> urev(1, 500);

  // Ingest 200k sales facts into the cube (cells accumulate).
  double q2_products_100_200 = 0;
  for (int i = 0; i < 200000; ++i) {
    int p = uproduct(rng), d = uday(rng);
    double revenue = urev(rng);
    if (!cube.Insert(Point(p, d), revenue).ok()) {
      std::fprintf(stderr, "insert failed\n");
      return 1;
    }
    if (p >= 100 && p <= 200 && d >= 91 && d <= 181) {
      q2_products_100_200 += revenue;
    }
  }

  // Range-sum via the 4-corner prefix trick: sum over [plo,phi]x[dlo,dhi].
  auto range_sum = [&](double plo, double phi, double dlo, double dhi) {
    auto prefix = [&](double p, double d) {
      double s = 0;
      OrDie(cube.DominanceSum(Point(p, d), &s));
      return s;
    };
    return prefix(phi, dhi) - prefix(plo - 1, dhi) - prefix(phi, dlo - 1) +
           prefix(plo - 1, dlo - 1);
  };

  double got = range_sum(100, 200, 91, 181);
  std::printf("revenue, products 100..200, Q2: %.2f (direct check %.2f)\n",
              got, q2_products_100_200);

  // Late-arriving correction: product 150 returns 10,000 of revenue on day
  // 120 — a negative update, O(log^2) I/Os, no cube rebuild.
  OrDie(cube.Insert(Point(150, 120), -10000.0));
  std::printf("after a -10000 correction: %.2f\n",
              range_sum(100, 200, 91, 181));

  // Dominance-sum = cumulative "running total up to (product, day)".
  double running;
  OrDie(cube.DominanceSum(Point(499, 181), &running));
  std::printf("running total through product 499, day 181: %.2f\n", running);

  std::printf("cube pages: ");
  uint64_t pages = 0;
  OrDie(cube.PageCount(&pages));
  std::printf("%llu (%.1f MB)\n", static_cast<unsigned long long>(pages),
              static_cast<double>(pages) * kDefaultPageSize / (1024.0 * 1024));
  return 0;
}
