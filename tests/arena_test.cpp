// Arena scratch allocator tests (src/core/arena.h), including the property
// the whole subsystem exists for: a warmed-up BoxSumIndex::QueryBatch makes
// ZERO heap allocations. The test links the counting operator new/delete of
// alloc_count.cpp, so the steady-state assertion observes every allocation
// in the process, not just the arena's.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "alloc_count.h"
#include "batree/packed_ba_tree.h"
#include "core/arena.h"
#include "core/box_sum_index.h"
#include "storage/buffer_pool.h"

namespace boxagg {
namespace {

TEST(ArenaTest, BumpAllocatesAndRewinds) {
  core::Arena arena(256);
  auto* a = static_cast<uint8_t*>(arena.Allocate(100, 8));
  auto* b = static_cast<uint8_t*>(arena.Allocate(100, 8));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  core::Arena::Mark m = arena.Position();
  auto* c = static_cast<uint8_t*>(arena.Allocate(40, 8));
  arena.Rewind(m);
  auto* d = static_cast<uint8_t*>(arena.Allocate(40, 8));
  EXPECT_EQ(c, d);  // rewound memory is reused in place
}

TEST(ArenaTest, AlignmentIsHonored) {
  core::Arena arena;
  for (size_t align : {1u, 2u, 8u, 16u, 32u, 64u}) {
    void* p = arena.Allocate(3, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << align;
  }
}

TEST(ArenaTest, BlocksAreRetainedAcrossScopes) {
  core::Arena arena(128);
  {
    core::ArenaScope scope(arena);
    for (int i = 0; i < 100; ++i) arena.Allocate(64, 8);
  }
  const uint64_t blocks = arena.BlocksAllocated();
  const size_t reserved = arena.TotalReserved();
  for (int round = 0; round < 10; ++round) {
    core::ArenaScope scope(arena);
    for (int i = 0; i < 100; ++i) arena.Allocate(64, 8);
  }
  EXPECT_EQ(arena.BlocksAllocated(), blocks);  // fully warmed: no growth
  EXPECT_EQ(arena.TotalReserved(), reserved);
}

TEST(ArenaTest, NestedScopesAreStackLike) {
  core::Arena arena(256);
  core::ArenaScope outer(arena);
  auto* a = static_cast<int*>(arena.Allocate(sizeof(int), alignof(int)));
  *a = 7;
  {
    core::ArenaScope inner(arena);
    auto* b = static_cast<int*>(arena.Allocate(sizeof(int), alignof(int)));
    *b = 9;
    EXPECT_EQ(*a, 7);  // outer allocation untouched by inner scope
  }
  auto* c = static_cast<int*>(arena.Allocate(sizeof(int), alignof(int)));
  EXPECT_EQ(*a, 7);
  (void)c;
}

TEST(ArenaTest, ArenaVectorUsesThreadLocalArena) {
  core::Arena& arena = core::ScratchArena();
  core::ArenaScope scope(arena);
  core::ArenaVector<int> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[i], i);
  core::ArenaVector<int> w(v);  // copies also land in the arena
  EXPECT_EQ(w.back(), 999);
}

// The tentpole property: after warm-up, QueryBatch on a real index performs
// zero heap allocations — corners, sort order, probe groups, batch descents
// and border sub-batches all live in the thread-local arena.
TEST(ArenaTest, WarmQueryBatchMakesZeroHeapAllocations) {
  MemPageFile file(1024);
  BufferPool pool(&file, 4096);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> uc(0, 100), uw(0, 6), uv(0.1, 5);
  std::vector<BoxObject> objects;
  for (int i = 0; i < 4000; ++i) {
    Point lo(uc(rng), uc(rng));
    objects.push_back({Box(lo, Point(lo[0] + uw(rng), lo[1] + uw(rng))),
                       uv(rng)});
  }
  ASSERT_TRUE(index.BulkLoad(objects).ok());
  std::vector<Box> queries;
  for (int i = 0; i < 64; ++i) {
    Point lo(uc(rng), uc(rng));
    queries.push_back(Box(lo, Point(lo[0] + uw(rng), lo[1] + uw(rng))));
  }
  std::vector<double> out(queries.size());
  // Warm-up: grows the arena to the batch's high-water mark and faults every
  // page the queries touch into the buffer pool.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        index.QueryBatch(queries.data(), queries.size(), out.data()).ok());
  }
  const std::vector<double> expected = out;
  // Measured region: nothing but the queries themselves (even a passing
  // gtest assertion is kept outside it).
  const uint64_t before = testutil::HeapAllocations();
  bool all_ok = true;
  for (int round = 0; round < 5; ++round) {
    all_ok &=
        index.QueryBatch(queries.data(), queries.size(), out.data()).ok();
  }
  const uint64_t after = testutil::HeapAllocations();
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(after - before, 0u) << "heap allocations on warm QueryBatch";
  EXPECT_EQ(out, expected);  // and the answers did not drift
}

}  // namespace
}  // namespace boxagg
