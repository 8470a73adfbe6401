// Structural-audit tests: PackedBaTree::CheckConsistency checks record
// containment and tiling, packed-page layout and border trees, plus a
// self-oracle query sample; these tests run the audit after
// every kind of structural stress (bulk loads, incremental splits,
// forced-split cascades, deletions) and also prove the audit actually detects
// corruption when a page is tampered with.

#include <gtest/gtest.h>

#include <random>

#include "batree/packed_ba_tree.h"
#include "core/naive.h"
#include "storage/buffer_pool.h"
#include "workload/generators.h"

namespace boxagg {
namespace {

std::vector<PointEntry<double>> RandomPoints(int n, int dims, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uc(0, 100);
  std::uniform_real_distribution<double> uv(0.1, 5);  // positive: no
                                                      // cancellation
  std::vector<PointEntry<double>> out;
  for (int i = 0; i < n; ++i) {
    PointEntry<double> e;
    for (int d = 0; d < dims; ++d) e.pt[d] = std::floor(uc(rng));
    e.value = uv(rng);
    out.push_back(e);
  }
  return out;
}

// Data seeds are seed_base + 1 .. seed_base + 4, one per scenario.
void RunAuditScenarios(uint32_t page_size, uint32_t seed_base) {
  MemPageFile file(page_size);
  BufferPool pool(&file, 512);
  // Bulk-loaded.
  {
    PackedBaTree<double> tree(&pool, 2);
    ASSERT_TRUE(tree.BulkLoad(RandomPoints(5000, 2, seed_base + 1)).ok());
    ASSERT_TRUE(tree.CheckConsistency().ok());
    ASSERT_TRUE(tree.Destroy().ok());
  }
  // Incremental (many leaf/index splits and forced splits).
  {
    PackedBaTree<double> tree(&pool, 2);
    for (const auto& e : RandomPoints(3000, 2, seed_base + 2)) {
      ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
    }
    ASSERT_TRUE(tree.CheckConsistency().ok());
    ASSERT_TRUE(tree.Destroy().ok());
  }
  // Mixed bulk + inserts + deletions.
  {
    PackedBaTree<double> tree(&pool, 2);
    auto pts = RandomPoints(4000, 2, seed_base + 3);
    std::vector<PointEntry<double>> first(pts.begin(), pts.begin() + 2000);
    ASSERT_TRUE(tree.BulkLoad(first).ok());
    for (size_t i = 2000; i < pts.size(); ++i) {
      ASSERT_TRUE(tree.Insert(pts[i].pt, pts[i].value).ok());
    }
    for (size_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(tree.Insert(pts[i].pt, -pts[i].value).ok());
    }
    ASSERT_TRUE(tree.CheckConsistency().ok());
    ASSERT_TRUE(tree.Destroy().ok());
  }
  // 3-d (recursive borders are 2-d trees with their own audits implied).
  {
    PackedBaTree<double> tree(&pool, 3);
    for (const auto& e : RandomPoints(1500, 3, seed_base + 4)) {
      ASSERT_TRUE(tree.Insert(e.pt, e.value).ok());
    }
    ASSERT_TRUE(tree.CheckConsistency().ok());
    ASSERT_TRUE(tree.Destroy().ok());
  }
}

TEST(ValidateAudit, PackedBaTreeAllScenarios) {
  RunAuditScenarios(512, 0);
}

TEST(ValidateAudit, PackedBaTreeLargePages) {
  RunAuditScenarios(4096, 0);
}

// The BaTree test IDs predate the unpacked tree's deletion; they run the
// same scenarios on PackedBaTree over a second, independent data draw.
TEST(ValidateAudit, BaTreeAllScenarios) { RunAuditScenarios(512, 10); }

TEST(ValidateAudit, BaTreeLargePages) { RunAuditScenarios(4096, 10); }

TEST(ValidateAudit, DetectsTamperedSubtotal) {
  MemPageFile file(1024);
  BufferPool pool(&file, 512);
  PackedBaTree<double> tree(&pool, 2);
  ASSERT_TRUE(tree.BulkLoad(RandomPoints(3000, 2, 5)).ok());
  ASSERT_TRUE(tree.CheckConsistency().ok());
  // Corrupt the root page: flip bytes in the middle of the first record's
  // subtotal region.
  {
    PageGuard g;
    ASSERT_TRUE(pool.Fetch(tree.root(), &g).ok());
    ASSERT_EQ(g.page()->ReadAt<uint16_t>(0), 10);  // packed internal
    // Record 0 follows the 16-byte header: Box + child(8) + subtotal + ...
    uint32_t off = 16 + sizeof(Box) + 8;
    double v = g.page()->ReadAt<double>(off);
    g.page()->WriteAt<double>(off, v + 1234.5);
    g.MarkDirty();
  }
  Status s = tree.CheckConsistency();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
}

// Incremental mutation checked against the oracle along the way, then the
// audit on the final tree.
TEST(ValidateAudit, AgreesWithOracleUnderIncrementalMutation) {
  MemPageFile file(1024);
  BufferPool pool(&file, 1024);
  PackedBaTree<double> tree(&pool, 2);
  NaiveDominanceSum<double> naive(2);
  auto pts = RandomPoints(5000, 2, 7);
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> uc(-5, 105);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i].pt, pts[i].value).ok());
    naive.Insert(pts[i].pt, pts[i].value);
    if (i % 97 == 0) {
      Point q(uc(rng), uc(rng));
      double got;
      ASSERT_TRUE(tree.DominanceSum(q, &got).ok());
      ASSERT_NEAR(got, naive.Query(q), 1e-7) << "at step " << i;
    }
  }
  ASSERT_TRUE(tree.CheckConsistency().ok());
}

}  // namespace
}  // namespace boxagg
