// BagFile generations: Commit frees the superseded pages at once and in
// the protocol's order, a replica rebuilt and published after a commit, and
// fsck's one-generation contract (only the committed generation is
// checked).

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "check/fsck.h"
#include "core/bag_file.h"
#include "core/bag_format.h"
#include "replica/compact_replica.h"
#include "replica/replica_builder.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"

namespace boxagg {
namespace {

constexpr uint32_t kPageSize = 512;

Page TaggedPage(uint64_t tag) {
  Page p(kPageSize);
  for (uint32_t off = 0; off + 8 <= kPageSize; off += 8) {
    p.WriteAt<uint64_t>(off, tag + off);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Reclamation: once a commit is durable, the pages only the previous
// generation referenced go straight to the inner file's free list — its map
// chain first, then the page images superseded this epoch — so the store
// recycles them instead of growing.
// ---------------------------------------------------------------------------
TEST(Generation, CommitReclaimsSupersededPagesImmediately) {
  MemPageFile phys(kPageSize);
  std::unique_ptr<BagFile> bag;
  ASSERT_TRUE(BagFile::Create(&phys, 1, 1, &bag).ok());
  PageId a = kInvalidPageId;
  ASSERT_TRUE(bag->Allocate(&a).ok());
  ASSERT_TRUE(bag->WritePage(a, TaggedPage(0)).ok());
  ASSERT_TRUE(bag->Commit({a}).ok());
  // Generation 1 holds two superblock slots, one image and one map page.
  const uint64_t steady_pages = phys.page_count() + 2;
  for (int round = 1; round <= 4; ++round) {
    std::vector<PageId> superseded = bag->map_page_ids();
    superseded.push_back(bag->MapEntry(a).physical);
    ASSERT_TRUE(bag->WritePage(a, TaggedPage(100 * round)).ok());
    ASSERT_TRUE(bag->Commit({a}).ok());
    EXPECT_EQ(phys.free_list(), superseded) << "round " << round;
    // One round's CoW image and map page reuse the previous round's frees.
    EXPECT_EQ(phys.page_count(), steady_pages) << "round " << round;
  }
  Page live(kPageSize);
  ASSERT_TRUE(bag->ReadPage(a, &live).ok());
  EXPECT_EQ(live.ReadAt<uint64_t>(0), 400u);
}

// ---------------------------------------------------------------------------
// Replica rebuild after a commit: the writer builds a compact replica from
// the tree Commit just published, and the next commit publishes its root.
// ---------------------------------------------------------------------------
TEST(Generation, ReplicaRebuiltAfterCommit) {
  MemPageFile phys(kPageSize);
  std::unique_ptr<BagFile> bag;
  // Root 0: live PackedBaTree; root 1: replica of the previous publish.
  ASSERT_TRUE(BagFile::Create(&phys, /*dims=*/2, /*num_roots=*/2, &bag).ok());
  BufferPool pool(bag.get(), 512);

  PackedBaTree<double> tree(&pool, 2);
  double total = 0;
  for (int k = 0; k < 120; ++k) {
    const Point p(static_cast<double>(k % 30), static_cast<double>(k / 30));
    ASSERT_TRUE(tree.Insert(p, 1.0).ok());
    total += 1.0;
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(bag->Commit({tree.root(), kInvalidPageId}).ok());
  ASSERT_EQ(bag->generation(), 1u);

  // Once Commit returns, the writer rebuilds the replica from the tree it
  // just published.
  ReplicaBuilder<double> builder(&pool);
  PageId replica_root = kInvalidPageId;
  ASSERT_TRUE(builder.Build(tree, &replica_root).ok());
  ASSERT_NE(replica_root, kInvalidPageId);

  // Publish the rebuilt replica alongside the tree.
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(bag->Commit({tree.root(), replica_root}).ok());
  ASSERT_EQ(bag->generation(), 2u);

  // The replica answers exactly like its source.
  CompactReplica<double> replica(&pool, 2, replica_root);
  ASSERT_TRUE(replica.Open().ok());
  const double inf = std::numeric_limits<double>::infinity();
  double via_replica = 0, via_tree = 0;
  ASSERT_TRUE(replica.DominanceSum(Point(inf, inf), &via_replica).ok());
  ASSERT_TRUE(tree.DominanceSum(Point(inf, inf), &via_tree).ok());
  EXPECT_EQ(via_replica, total);
  EXPECT_EQ(via_tree, total);
  for (double qx : {3.0, 11.0, 29.0}) {
    for (double qy : {0.0, 2.0, 4.0}) {
      ASSERT_TRUE(replica.DominanceSum(Point(qx, qy), &via_replica).ok());
      ASSERT_TRUE(tree.DominanceSum(Point(qx, qy), &via_tree).ok());
      EXPECT_EQ(via_replica, via_tree) << qx << "," << qy;
    }
  }

  // End-to-end: the published store verifies clean (the default checker
  // sniffs root 1 as a replica).
  FsckReport report;
  Status st = FsckBag(&phys, FsckOptions{}, &report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.generation, 2u);
}

// ---------------------------------------------------------------------------
// fsck checks only the committed generation: a store at rest holds one
// generation, so every page the committed generation does not reference is
// free and damage there is a note.
// ---------------------------------------------------------------------------

// Two published generations of a PackedBaTree store (the default checker's
// layout). `gen1_map_pages` receives generation 1's map-chain ids.
void BuildTwoGenerations(PageFile* phys, std::vector<PageId>* gen1_map_pages) {
  std::unique_ptr<BagFile> bag;
  ASSERT_TRUE(BagFile::Create(phys, 2, 1, &bag).ok());
  BufferPool pool(bag.get(), 512);
  PackedBaTree<double> tree(&pool, 2);
  for (int k = 0; k < 80; ++k) {
    ASSERT_TRUE(
        tree.Insert(Point(static_cast<double>(k % 10),
                          static_cast<double>(k / 10)),
                    1.0)
            .ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(bag->Commit({tree.root()}).ok());
  *gen1_map_pages = bag->map_page_ids();
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(
        tree.Insert(Point(100.0 + k, 100.0 - k), 2.0).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(bag->Commit({tree.root()}).ok());
}

TEST(GenerationFsck, ChecksOnlyTheCommittedGeneration) {
  FaultInjectingPageFile phys(kPageSize, /*seed=*/3);
  std::vector<PageId> gen1_map_pages;
  BuildTwoGenerations(&phys, &gen1_map_pages);
  ASSERT_FALSE(gen1_map_pages.empty());

  FsckOptions strict;
  strict.strict_orphans = true;
  strict.strict_stale = true;
  for (const FsckOptions& opts : {FsckOptions{}, strict}) {
    FsckReport report;
    Status st = FsckBag(&phys, opts, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(report.generation, 2u);
    EXPECT_EQ(report.checksum_failures_free, 0u);
  }

  // The pages generation 2 references: its map chain and mapped images.
  std::vector<bool> referenced(phys.page_count(), false);
  referenced[0] = referenced[1] = true;  // superblock slots
  PageId mapped_victim = kInvalidPageId;
  {
    std::unique_ptr<BagFile> bag;
    ASSERT_TRUE(BagFile::Open(&phys, &bag).ok());
    ASSERT_EQ(bag->generation(), 2u);
    for (PageId id : bag->map_page_ids()) referenced[id] = true;
    for (PageId l = 0; l < bag->page_count(); ++l) {
      const BagMapEntry e = bag->MapEntry(l);
      if (!e.mapped()) continue;
      referenced[e.physical] = true;
      mapped_victim = e.physical;
    }
  }
  ASSERT_NE(mapped_victim, kInvalidPageId);
  for (PageId id : gen1_map_pages) {
    EXPECT_FALSE(referenced[id]) << "generation 1 map page " << id;
  }

  // Damage every page generation 2 does not reference, generation 1's map
  // chain included: still clean, each page counted as a free failure.
  const uint64_t payload_bit = (kPageHeaderSize + 8) * 8;
  uint64_t damaged = 0;
  for (PageId id = 0; id < referenced.size(); ++id) {
    if (referenced[id]) continue;
    phys.FlipBit(id, payload_bit);
    ++damaged;
  }
  ASSERT_GE(damaged, gen1_map_pages.size());
  for (const FsckOptions& opts : {FsckOptions{}, strict}) {
    FsckReport report;
    Status st = FsckBag(&phys, opts, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(report.generation, 2u);
    EXPECT_EQ(report.checksum_failures_free, damaged);
    EXPECT_EQ(report.checksum_failures_live, 0u);
  }

  // One flipped bit in a page generation 2 maps is corruption.
  phys.FlipBit(mapped_victim, payload_bit);
  FsckReport report;
  Status st = FsckBag(&phys, FsckOptions{}, &report);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  EXPECT_EQ(report.checksum_failures_live, 1u);
}

}  // namespace
}  // namespace boxagg
