// CheckConsistency tests: every index and the storage engine pass a deep
// structural audit when healthy, and the audit provably detects an injected
// violation of each invariant class — tampered subtree aggregates, stale
// MBRs, mangled page types, packed-heap layout damage, buffer-pool pin
// leaks, and page-file double frees.

#include <gtest/gtest.h>

#include <random>

#include "batree/packed_ba_tree.h"
#include "bptree/agg_btree.h"
#include "check/checkable.h"
#include "ecdf/ecdf_btree.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace boxagg {
namespace {

std::vector<PointEntry<double>> RandomPoints(int n, int dims, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uc(0, 100);
  std::uniform_real_distribution<double> uv(0.1, 5);
  std::vector<PointEntry<double>> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    PointEntry<double> e;
    for (int d = 0; d < dims; ++d) e.pt[d] = uc(rng);
    e.value = uv(rng);
    out.push_back(e);
  }
  return out;
}

// Applies `fn` to page `pid` and marks it dirty — the corruption-injection
// primitive. The pool is the sole reader, so the damage is visible at once.
template <class F>
void TamperPage(BufferPool* pool, PageId pid, F&& fn) {
  PageGuard g;
  ASSERT_TRUE(pool->Fetch(pid, &g).ok());
  fn(g.page());
  g.MarkDirty();
}

void ExpectCorruption(const Status& st) {
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
}

// ---------------------------------------------------------------------------
// AggBTree

TEST(AggBTreeCheck, HealthyTreePasses) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  AggBTree<double> t(&pool);
  EXPECT_TRUE(t.CheckConsistency().ok());  // empty tree is consistent
  for (const auto& e : RandomPoints(2000, 1, 7)) {
    ASSERT_TRUE(t.Insert(e.pt[0], e.value).ok());
  }
  EXPECT_TRUE(t.CheckConsistency().ok());
}

TEST(AggBTreeCheck, DetectsTamperedSubtreeSum) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  AggBTree<double> t(&pool);
  for (const auto& e : RandomPoints(2000, 1, 8)) {
    ASSERT_TRUE(t.Insert(e.pt[0], e.value).ok());
  }
  // Root must be internal at this size; entry 0's subtree sum lives in the
  // record strip at the tree's published layout offset.
  TamperPage(&pool, t.root(), [](Page* p) {
    ASSERT_EQ(p->ReadAt<uint16_t>(0), 2);  // internal
    p->WriteAt<double>(AggBTree<double>::InternalSumOffset(512, 0), 1e18);
  });
  ExpectCorruption(t.CheckConsistency());
}

TEST(AggBTreeCheck, DetectsMangledPageType) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  AggBTree<double> t(&pool);
  for (const auto& e : RandomPoints(500, 1, 9)) {
    ASSERT_TRUE(t.Insert(e.pt[0], e.value).ok());
  }
  TamperPage(&pool, t.root(),
             [](Page* p) { p->WriteAt<uint16_t>(0, 99); });
  ExpectCorruption(t.CheckConsistency());
}

TEST(CheckContextTest, SharedContextDetectsDoubleOwnership) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  AggBTree<double> t(&pool);
  for (const auto& e : RandomPoints(200, 1, 10)) {
    ASSERT_TRUE(t.Insert(e.pt[0], e.value).ok());
  }
  CheckContext ctx;
  EXPECT_TRUE(t.CheckConsistency(&ctx).ok());
  // A second structure claiming the same pages shows up as a revisit.
  ExpectCorruption(t.CheckConsistency(&ctx));
}

// ---------------------------------------------------------------------------
// EcdfBTree (both variants)

class EcdfCheck : public ::testing::TestWithParam<EcdfVariant> {};

TEST_P(EcdfCheck, HealthyTreePasses) {
  MemPageFile file(512);
  BufferPool pool(&file, 512);
  EcdfBTree<double> tree(&pool, 2, GetParam());
  ASSERT_TRUE(tree.BulkLoad(RandomPoints(1500, 2, 21)).ok());
  EXPECT_TRUE(tree.CheckConsistency().ok());
}

TEST_P(EcdfCheck, DetectsTamperedRecordSum) {
  MemPageFile file(512);
  BufferPool pool(&file, 512);
  EcdfBTree<double> tree(&pool, 2, GetParam());
  ASSERT_TRUE(tree.BulkLoad(RandomPoints(1500, 2, 22)).ok());
  // Internal record 0's aggregate sits in the {child, border, sum} record
  // strip at the tree's published layout offset.
  TamperPage(&pool, tree.root(), [](Page* p) {
    ASSERT_EQ(p->ReadAt<uint16_t>(0), 4);  // ecdf internal
    p->WriteAt<double>(EcdfBTree<double>::InternalSumOffset(512, 0), 1e18);
  });
  ExpectCorruption(tree.CheckConsistency());
}

INSTANTIATE_TEST_SUITE_P(Variants, EcdfCheck,
                         ::testing::Values(EcdfVariant::kUpdateOptimized,
                                           EcdfVariant::kQueryOptimized));

// ---------------------------------------------------------------------------
// RStarTree / aR-tree

TEST(RStarTreeCheck, HealthyTreePasses) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  RStarTree<> tree(&pool, 2);
  EXPECT_TRUE(tree.CheckConsistency().ok());  // empty
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> u(0, 100);
  for (int i = 0; i < 500; ++i) {
    double x = u(rng), y = u(rng);
    ASSERT_TRUE(
        tree.Insert(Box(Point(x, y), Point(x + 1, y + 1)), u(rng)).ok());
  }
  EXPECT_TRUE(tree.CheckConsistency().ok());
}

TEST(RStarTreeCheck, DetectsStaleMbr) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  RStarTree<> tree(&pool, 2);
  std::mt19937 rng(32);
  std::uniform_real_distribution<double> u(0, 100);
  for (int i = 0; i < 500; ++i) {
    double x = u(rng), y = u(rng);
    ASSERT_TRUE(
        tree.Insert(Box(Point(x, y), Point(x + 1, y + 1)), u(rng)).ok());
  }
  // Entry 0's stored MBR starts right after the 8-byte header; drag its
  // lo[0] away from the child's true union.
  TamperPage(&pool, tree.root(), [](Page* p) {
    ASSERT_EQ(p->ReadAt<uint16_t>(0), 8);  // rstar internal
    p->WriteAt<double>(8, 1e18);
  });
  ExpectCorruption(tree.CheckConsistency());
}

// ---------------------------------------------------------------------------
// PackedBaTree

void ExpectHealthyPackedBaTree(int dims, int n, uint32_t seed) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, dims);
  ASSERT_TRUE(tree.BulkLoad(RandomPoints(n, dims, seed)).ok());
  EXPECT_TRUE(tree.CheckConsistency().ok());
}

TEST(PackedBaTreeCheck, HealthyTreePasses) {
  ExpectHealthyPackedBaTree(2, 3000, 51);
}

// The BaTreeCheck ID predates the unpacked tree's deletion; it audits a 3-d
// PackedBaTree, whose borders are themselves 2-d trees.
TEST(BaTreeCheck, HealthyTreePasses) { ExpectHealthyPackedBaTree(3, 2000, 41); }

TEST(PackedBaTreeCheck, DetectsMangledPageType) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  ASSERT_TRUE(tree.BulkLoad(RandomPoints(2000, 2, 42)).ok());
  TamperPage(&pool, tree.root(),
             [](Page* p) { p->WriteAt<uint16_t>(0, 99); });
  ExpectCorruption(tree.CheckConsistency());
}

TEST(PackedBaTreeCheck, DetectsHeapLayoutDamage) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  ASSERT_TRUE(tree.BulkLoad(RandomPoints(3000, 2, 52)).ok());
  // Pull heap_start (u32 at offset 8 of a packed internal node) down into
  // the record array: records and border heap now overlap.
  TamperPage(&pool, tree.root(), [](Page* p) {
    ASSERT_EQ(p->ReadAt<uint16_t>(0), 10);  // packed internal
    p->WriteAt<uint32_t>(8, 20);
  });
  ExpectCorruption(tree.CheckConsistency());
}

// ---------------------------------------------------------------------------
// BufferPool accounting

TEST(BufferPoolCheck, HealthyPoolPasses) {
  MemPageFile file(512);
  BufferPool pool(&file, 64, /*shards=*/4);
  AggBTree<double> t(&pool);
  for (const auto& e : RandomPoints(1000, 1, 61)) {
    ASSERT_TRUE(t.Insert(e.pt[0], e.value).ok());
  }
  EXPECT_TRUE(pool.CheckConsistency().ok());
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  // A live pin is fine by default...
  PageGuard g;
  ASSERT_TRUE(pool.Fetch(t.root(), &g).ok());
  EXPECT_TRUE(pool.CheckConsistency().ok());
  EXPECT_EQ(pool.PinnedFrames(), 1u);
}

TEST(BufferPoolCheck, DetectsPinLeakAtQuiescentPoint) {
  MemPageFile file(512);
  BufferPool pool(&file, 16);
  PageGuard g;
  ASSERT_TRUE(pool.New(&g).ok());
  // ...but at a declared-quiescent point the same pin is a leaked guard.
  CheckContext ctx;
  ctx.expect_unpinned = true;
  ExpectCorruption(pool.CheckConsistency(&ctx));
  g.Release();
  CheckContext ctx2;
  ctx2.expect_unpinned = true;
  EXPECT_TRUE(pool.CheckConsistency(&ctx2).ok());
}

TEST(BufferPoolCheck, DestructorAssertsOnLeakedGuard) {
#ifdef NDEBUG
  GTEST_SKIP() << "assertions disabled in this build type";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MemPageFile file(512);
        auto* pool = new BufferPool(&file, 16);
        PageGuard g;
        // why: the death assertion below is the point; if New failed the
        // guard holds no pin and the test fails by not dying.
        IgnoreStatus(pool->New(&g));
        delete pool;  // guard still holds a pin
      },
      "PageGuard leaked");
#endif
}

// ---------------------------------------------------------------------------
// PageFile allocation state

TEST(PageFileCheck, HealthyFreeListPasses) {
  MemPageFile file(512);
  PageId a, b, c;
  ASSERT_TRUE(file.Allocate(&a).ok());
  ASSERT_TRUE(file.Allocate(&b).ok());
  ASSERT_TRUE(file.Allocate(&c).ok());
  ASSERT_TRUE(file.Free(b).ok());
  EXPECT_TRUE(file.CheckConsistency().ok());
}

TEST(PageFileCheck, DetectsDoubleFree) {
  MemPageFile file(512);
  PageId a, b;
  ASSERT_TRUE(file.Allocate(&a).ok());
  ASSERT_TRUE(file.Allocate(&b).ok());
  ASSERT_TRUE(file.Free(b).ok());
  ASSERT_TRUE(file.Free(b).ok());  // the bug under test
  ExpectCorruption(file.CheckConsistency());
}

}  // namespace
}  // namespace boxagg
