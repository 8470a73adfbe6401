// The paper's motivating application (Sec. 1 & 3): an agricultural agency
// tracks pesticide treatments. Each record is a 3-d box — a 2-d field area
// times a time interval — with the sprayed volume; box-sum queries answer
// "total volume sprayed in <region> during <period>".
//
// The second part demonstrates the *functional* box-sum: the value is a
// rate (grams per square yard) that may vary across the field as a
// polynomial, and a query integrates the rate over the intersection with
// the query region — the paper's Fig. 3 scenario, including the uneven
// f(x,y) = x - 2 spray.

#include <cstdio>
#include <cstdlib>
#include <random>

#include "batree/packed_ba_tree.h"
#include "core/box_sum_index.h"
#include "core/functional_box_sum.h"
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

// Synthetic county layout: space is a 100x100 mile region; months are day
// numbers from the start of 1999.
Box Treatment(double x, double y, double w, double h, double day_from,
              double day_to) {
  return Box(Point(x, y, day_from), Point(x + w, y + h, day_to));
}

}  // namespace

int main() {
  MemPageFile file(kDefaultPageSize);
  BufferPool pool(&file,
                  BufferPool::CapacityForMegabytes(10, kDefaultPageSize));

  // ---- Part 1: 3-d simple box-sum (area x time) --------------------------
  BoxSumIndex<PackedBaTree<double>> volumes(
      /*dims=*/3, [&] { return PackedBaTree<double>(&pool, 3); });

  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> upos(0, 95);
  std::uniform_real_distribution<double> usize(0.5, 4.0);
  std::uniform_real_distribution<double> uday(0, 330);
  std::uniform_real_distribution<double> uvol(50, 500);
  double march_total = 0;
  const Box orange_county_march(Point(20, 20, 59), Point(45, 40, 90));
  for (int i = 0; i < 20000; ++i) {
    double day = std::floor(uday(rng));
    Box treat = Treatment(upos(rng), upos(rng), usize(rng), usize(rng), day,
                          day + std::floor(usize(rng)));
    double vol = uvol(rng);
    if (Status s = volumes.Insert(treat, vol); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    if (treat.Intersects(orange_county_march, 3)) march_total += vol;
  }

  double total;
  OrDie(volumes.Query(orange_county_march, &total));
  std::printf(
      "Q: total volume of pesticide sprayed in Orange County in March 1999\n");
  std::printf("   index answer: %.1f gallons (direct check: %.1f)\n", total,
              march_total);

  // ---- Part 2: functional box-sum over spray-rate functions --------------
  FunctionalBoxSumIndex<PackedBaTree<Poly2<2>>, 2> rates(
      PackedBaTree<Poly2<2>>(&pool, 2));

  // The paper's uneven spray: field x in [5,20], y in [3,15], rate
  // f(x,y) = x - 2 grams per square yard (3 g at the left edge, 18 g at the
  // right).
  OrDie(rates.Insert(Box(Point(5, 3), Point(20, 15)),
                            {{1.0, 1, 0}, {-2.0, 0, 0}}));
  // A second, uniformly sprayed field: 2 g per square yard.
  OrDie(rates.Insert(Box(Point(30, 30), Point(40, 42)), {{2.0, 0, 0}}));

  double grams;
  OrDie(rates.Query(Box(Point(15, 7), Point(30, 11)), &grams));
  std::printf(
      "Q: grams sprayed inside [15,30]x[7,11] (clips the uneven field)\n");
  std::printf("   functional answer: %.1f g (paper's Fig. 3b: 310)\n", grams);

  OrDie(rates.Query(Box(Point(0, 7), Point(10, 11)), &grams));
  std::printf(
      "   same intersection size at the field's left border: %.1f g "
      "(paper: 110)\n",
      grams);

  OrDie(rates.Query(Box(Point(0, 0), Point(50, 50)), &grams));
  // Full integrals: int_5^20 (x-2) dx * 12 = 157.5 * 12 = 1890; plus
  // 2 g * 10 * 12 = 240.
  std::printf("   whole region: %.1f g (1890 + 240 = 2130 expected)\n",
              grams);
  return 0;
}
