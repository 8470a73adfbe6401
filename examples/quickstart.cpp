// Quickstart: index weighted rectangles and answer box-sum / box-count /
// box-avg queries with the BA-tree through the corner-transform reduction.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "batree/packed_ba_tree.h"
#include "core/box_sum_index.h"
#include "storage/buffer_pool.h"

using namespace boxagg;

int main() {
  // 1. Storage: a page file (in-memory here; FilePageFile for disk) plus an
  //    LRU buffer pool. All index I/O flows through the pool.
  MemPageFile file(kDefaultPageSize);
  BufferPool pool(&file, BufferPool::CapacityForMegabytes(10, kDefaultPageSize));

  // 2. A 2-d aggregator: SUM + COUNT (and AVG) over objects with extent,
  //    maintained as 2^d = 4 BA-trees per aggregate.
  BoxAggregator<PackedBaTree<double>> agg(
      /*dims=*/2, [&] { return PackedBaTree<double>(&pool, 2); });

  // 3. Insert a few weighted rectangles (low corner, high corner, value).
  struct Row {
    Box box;
    double value;
  };
  const Row rows[] = {
      {Box(Point(2, 10), Point(15, 26)), 4.0},
      {Box(Point(18, 4), Point(30, 10)), 3.0},
      {Box(Point(22, 18), Point(28, 26)), 6.0},
  };
  for (const Row& r : rows) {
    if (Status s = agg.Insert(r.box, r.value); !s.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // 4. Query: total/count/average value of objects intersecting a box.
  Box q(Point(5, 3), Point(20, 15));
  double sum = 0, count = 0, avg = 0;
  if (!agg.Sum(q, &sum).ok() || !agg.Count(q, &count).ok() ||
      !agg.Avg(q, &avg).ok()) {
    std::fprintf(stderr, "query failed\n");
    return 1;
  }
  std::printf("query box %s\n", q.ToString(2).c_str());
  std::printf("  SUM   = %.1f  (objects 4 and 3 intersect; 6 does not)\n",
              sum);
  std::printf("  COUNT = %.0f\n", count);
  std::printf("  AVG   = %.1f\n", avg);

  // 5. Deletion = inserting the inverse (aggregate indexes store sums).
  if (!agg.Erase(rows[0].box, rows[0].value).ok()) return 1;
  if (!agg.Sum(q, &sum).ok()) return 1;
  std::printf("after deleting the value-4 object: SUM = %.1f\n", sum);

  // 6. The buffer pool tracked every physical page transfer.
  std::printf("physical I/Os so far: %llu (reads %llu, writes %llu)\n",
              static_cast<unsigned long long>(pool.stats().TotalIos()),
              static_cast<unsigned long long>(pool.stats().physical_reads),
              static_cast<unsigned long long>(pool.stats().physical_writes));
  return 0;
}
