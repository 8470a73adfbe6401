// Multi-generation MVCC: generation pins, snapshot-bound reads, epoch-based
// retire/reclaim ordering, executor pin handoff, eviction pressure against
// reclamation guards, a reader/writer/reclaimer stress (TSan target), the
// post-commit replica-rebuild hook, and generation-aware fsck
// (--generation/--all-generations, retired-vs-orphan classification,
// cross-generation aliasing detection).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bptree/agg_btree.h"
#include "batree/packed_ba_tree.h"
#include "check/fsck.h"
#include "core/bag_file.h"
#include "core/bag_format.h"
#include "core/sync.h"
#include "exec/parallel_executor.h"
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
// Pin basics: a pinned reader keeps seeing the pinned generation's bytes
// while the writer CoWs and publishes newer generations over the same
// logical pages, and retired pages are reclaimed only after the pin drops.
// ---------------------------------------------------------------------------
TEST(Generation, PinnedReadsAreByteIdenticalAcrossCommits) {
  MemPageFile phys(kPageSize);
  std::unique_ptr<BagFile> bag;
  ASSERT_TRUE(BagFile::Create(&phys, /*dims=*/1, /*num_roots=*/1, &bag).ok());

  PageId a = kInvalidPageId, b = kInvalidPageId;
  ASSERT_TRUE(bag->Allocate(&a).ok());
  ASSERT_TRUE(bag->Allocate(&b).ok());
  ASSERT_TRUE(bag->WritePage(a, TaggedPage(1000)).ok());
  ASSERT_TRUE(bag->WritePage(b, TaggedPage(2000)).ok());
  ASSERT_TRUE(bag->Commit({a}).ok());
  ASSERT_EQ(bag->generation(), 1u);

  GenerationPin pin;
  ASSERT_TRUE(bag->PinCurrent(&pin).ok());
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.generation(), 1u);
  EXPECT_EQ(bag->live_pins(), 1u);
  ASSERT_EQ(pin.roots().size(), 1u);
  EXPECT_EQ(pin.roots()[0], a);

  // Overwrite both pages and publish generation 2 while the pin is live.
  ASSERT_TRUE(bag->WritePage(a, TaggedPage(7000)).ok());
  ASSERT_TRUE(bag->WritePage(b, TaggedPage(8000)).ok());
  ASSERT_TRUE(bag->Commit({a}).ok());
  ASSERT_EQ(bag->generation(), 2u);
  EXPECT_EQ(bag->min_pinned_generation(), 1u);
  // The pinned generation's page images cannot be recycled yet.
  EXPECT_GT(bag->retired_pages(), 0u);

  BufferPool pool(bag.get(), 64);
  const uint64_t expect[2] = {1000, 2000};
  const PageId pages[2] = {a, b};
  for (int i = 0; i < 2; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.FetchSnapshot(pin, pages[i], &g).ok());
    for (uint32_t off = 0; off + 8 <= kPageSize; off += 8) {
      ASSERT_EQ(g.page()->ReadAt<uint64_t>(off), expect[i] + off)
          << "snapshot page " << pages[i];
    }
  }
  // The live view sees generation 2.
  Page live(kPageSize);
  ASSERT_TRUE(bag->ReadPage(a, &live).ok());
  EXPECT_EQ(live.ReadAt<uint64_t>(0), 7000u);

  // Nothing can be reclaimed while the pin holds generation 1.
  size_t reclaimed = 99;
  ASSERT_TRUE(bag->ReclaimRetired(&reclaimed).ok());
  EXPECT_EQ(reclaimed, 0u);

  // Dropping the last pin reclaims eagerly: the retire list drains inside
  // Release, so an explicit ReclaimRetired afterwards finds nothing.
  pin.Release();
  EXPECT_EQ(bag->live_pins(), 0u);
  EXPECT_EQ(bag->retired_pages(), 0u);
  ASSERT_TRUE(bag->ReclaimRetired(&reclaimed).ok());
  EXPECT_EQ(reclaimed, 0u);
}

TEST(Generation, CommitWithoutPinsReclaimsImmediately) {
  MemPageFile phys(kPageSize);
  std::unique_ptr<BagFile> bag;
  ASSERT_TRUE(BagFile::Create(&phys, 1, 1, &bag).ok());
  PageId a = kInvalidPageId;
  ASSERT_TRUE(bag->Allocate(&a).ok());
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(bag->WritePage(a, TaggedPage(100 * round)).ok());
    ASSERT_TRUE(bag->Commit({a}).ok());
    // With no pins, Commit itself drains the retire list (the pins == 0
    // fast path that keeps the free-list order identical to the
    // pre-MVCC ping-pong protocol).
    EXPECT_EQ(bag->retired_pages(), 0u) << "round " << round;
  }
}

// A pin holds a pointer into the BagFile; outliving it is a use-after-free
// that debug builds turn into an abort.
#ifndef NDEBUG
TEST(GenerationDeathTest, PinOutlivingBagFileAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MemPageFile phys(kPageSize);
        GenerationPin leaked;
        {
          std::unique_ptr<BagFile> bag;
          Status s = BagFile::Create(&phys, 1, 1, &bag);
          if (s.ok()) s = bag->PinCurrent(&leaked);
        }  // ~BagFile with a live pin: abort
      },
      "");
}
#endif

// ---------------------------------------------------------------------------
// Executor pin handoff: one pin is acquired per batch and shared by every
// worker and morsel; a commit published mid-batch must not leak into any
// query of the batch.
// ---------------------------------------------------------------------------
TEST(Generation, ExecutorSharesOnePinAcrossMorsels) {
  MemPageFile phys(kPageSize);
  std::unique_ptr<BagFile> bag;
  ASSERT_TRUE(BagFile::Create(&phys, 1, 1, &bag).ok());
  BufferPool pool(bag.get(), 256);

  AggBTree<double> tree(&pool);
  for (int k = 1; k <= 200; ++k) {
    ASSERT_TRUE(tree.Insert(static_cast<double>(k), 1.0).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(bag->Commit({tree.root()}).ok());  // generation 1: sum == 200

  exec::ParallelQueryExecutor executor(4);
  const std::vector<Box> queries(64, Box::Universe(1));
  std::vector<double> results;
  std::atomic<bool> mutated{false};
  {
    // The caller holds one pin across the whole batch: RunBatchGrouped
    // returns only after every morsel has finished.
    GenerationPin pin;
    ASSERT_TRUE(bag->PinCurrent(&pin).ok());
    Status st = executor.RunBatchGrouped(
        [&](const Box* qs, size_t count, double* outs) -> Status {
          // First morsel to arrive publishes generation 2 (another 100
          // entries). Every morsel — before or after — answers from the
          // pinned generation 1.
          if (!mutated.exchange(true)) {
            for (int k = 1; k <= 100; ++k) {
              EXPECT_TRUE(tree.Insert(1000.0 + k, 1.0).ok());
            }
            EXPECT_TRUE(pool.FlushAll().ok());
            EXPECT_TRUE(bag->Commit({tree.root()}).ok());
          }
          EXPECT_EQ(pin.generation(), 1u);
          AggBTree<double> snap(&pool, pin.roots()[0], &pin);
          for (size_t i = 0; i < count; ++i) {
            BOXAGG_RETURN_NOT_OK(snap.DominanceSum(qs[i].hi[0], &outs[i]));
          }
          return Status::OK();
        },
        queries, /*morsel=*/4, &results);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_GE(bag->live_pins(), 1u);
  }
  for (double r : results) EXPECT_EQ(r, 200.0);
  // The batch pin dropped with its scope; retired generation-1 pages are
  // now reclaimable.
  EXPECT_EQ(bag->live_pins(), 0u);
  size_t reclaimed = 0;
  ASSERT_TRUE(bag->ReclaimRetired(&reclaimed).ok());
  EXPECT_EQ(bag->retired_pages(), 0u);

  // The live tree sees generation 2.
  double live_sum = 0;
  ASSERT_TRUE(tree.DominanceSum(1e300, &live_sum).ok());
  EXPECT_EQ(live_sum, 300.0);
}

// Mutation through a snapshot-bound handle is rejected, not applied.
TEST(Generation, SnapshotBoundHandleRefusesMutation) {
  MemPageFile phys(kPageSize);
  std::unique_ptr<BagFile> bag;
  ASSERT_TRUE(BagFile::Create(&phys, 1, 1, &bag).ok());
  BufferPool pool(bag.get(), 64);
  AggBTree<double> tree(&pool);
  ASSERT_TRUE(tree.Insert(1.0, 1.0).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(bag->Commit({tree.root()}).ok());

  GenerationPin pin;
  ASSERT_TRUE(bag->PinCurrent(&pin).ok());
  AggBTree<double> snap(&pool, pin.roots()[0], &pin);
  Status st = snap.Insert(2.0, 1.0);
  EXPECT_FALSE(st.ok());
  double sum = 0;
  ASSERT_TRUE(snap.DominanceSum(1e300, &sum).ok());
  EXPECT_EQ(sum, 1.0);
}

// ---------------------------------------------------------------------------
// Reclamation under eviction pressure: a tiny pool forces constant eviction
// while generations churn over a guarded pinned footprint. Any write or
// free against the pinned generation's physical pages trips the store's
// reclamation-ordering guards.
// ---------------------------------------------------------------------------
TEST(Generation, ReclamationRespectsGuardedPinUnderEvictionPressure) {
  FaultInjectingPageFile phys(kPageSize, /*seed=*/42);
  std::unique_ptr<BagFile> bag;
  ASSERT_TRUE(BagFile::Create(&phys, 1, 1, &bag).ok());
  // 16 frames: every batch overflows the pool and evicts.
  BufferPool pool(bag.get(), 16);

  AggBTree<double> tree(&pool);
  for (int k = 0; k < 300; ++k) {
    ASSERT_TRUE(tree.Insert(static_cast<double>(k), 1.0).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(bag->Commit({tree.root()}).ok());

  GenerationPin pin;
  ASSERT_TRUE(bag->PinCurrent(&pin).ok());
  std::vector<PageId> guarded;
  for (PageId mp : pin.map_pages()) {
    phys.GuardPage(mp);
    guarded.push_back(mp);
  }
  for (PageId l = 0; l < pin.logical_pages(); ++l) {
    const BagMapEntry e = pin.map_entry(l);
    if (e.mapped()) {
      phys.GuardPage(e.physical);
      guarded.push_back(e.physical);
    }
  }

  // Churn several generations over the pinned one; eviction flushes CoW
  // pages continuously. None of them may touch the guarded footprint.
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 200; ++k) {
      ASSERT_TRUE(tree.Insert(10000.0 * (round + 1) + k, 1.0).ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(bag->Commit({tree.root()}).ok());
    size_t reclaimed = 0;
    ASSERT_TRUE(bag->ReclaimRetired(&reclaimed).ok());
  }
  EXPECT_EQ(phys.guard_violations(), 0u);
  EXPECT_GT(bag->retired_pages(), 0u);  // pin still blocks its generation

  // Pinned answers survived the churn exactly.
  AggBTree<double> snap(&pool, pin.roots()[0], &pin);
  double sum = 0;
  ASSERT_TRUE(snap.DominanceSum(1e300, &sum).ok());
  EXPECT_EQ(sum, 300.0);

  // Unguard BEFORE the pin drops: Release reclaims eagerly, and freeing a
  // still-guarded page would (correctly) trip a guard violation.
  for (PageId id : guarded) phys.UnguardPage(id);
  pin.Release();
  EXPECT_EQ(bag->retired_pages(), 0u);
  EXPECT_EQ(phys.guard_violations(), 0u);
  EXPECT_EQ(phys.guarded_pages(), 0u);
}

// ---------------------------------------------------------------------------
// Reader/writer/reclaimer stress (the TSan target): concurrent pinned
// readers verify exact per-generation sums while the writer publishes and
// a dedicated reclaimer races ReclaimRetired against pin drops.
// ---------------------------------------------------------------------------
TEST(Generation, ReaderWriterReclaimerStress) {
  MemPageFile phys(kPageSize);
  std::unique_ptr<BagFile> bag;
  ASSERT_TRUE(BagFile::Create(&phys, 1, 1, &bag).ok());
  BufferPool pool(bag.get(), 512, /*shards=*/4);

  sync::Mutex mu("test.totals", sync::lock_rank::kLeaf);
  std::map<uint64_t, double> totals;  // generation -> expected full-space sum
  {
    sync::MutexLock lock(&mu);
    totals[0] = 0.0;
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  auto reader = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      GenerationPin pin;
      if (!bag->PinCurrent(&pin).ok()) {
        failures.fetch_add(1);
        return;
      }
      double expect = 0;
      {
        sync::MutexLock lock(&mu);
        expect = totals.at(pin.generation());
      }
      AggBTree<double> snap(&pool, pin.roots()[0], &pin);
      double got = 0;
      if (!snap.DominanceSum(1e300, &got).ok() || got != expect) {
        failures.fetch_add(1);
        return;
      }
    }
  };
  auto reclaimer = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!bag->ReclaimRetired().ok()) {
        failures.fetch_add(1);
        return;
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(reclaimer);
  for (int r = 0; r < 3; ++r) threads.emplace_back(reader);

  // Writer: this thread.
  AggBTree<double> tree(&pool);
  double running = 0;
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 40; ++k) {
      ASSERT_TRUE(
          tree.Insert(1000.0 * round + k, static_cast<double>(k % 5 + 1))
              .ok());
      running += k % 5 + 1;
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    const uint64_t candidate = bag->generation() + 1;
    {
      // Recorded before Commit, so a reader pinning the just-published
      // generation always finds its total.
      sync::MutexLock lock(&mu);
      totals[candidate] = running;
    }
    ASSERT_TRUE(bag->Commit({tree.root()}).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bag->live_pins(), 0u);
  ASSERT_TRUE(bag->ReclaimRetired().ok());
  EXPECT_EQ(bag->retired_pages(), 0u);
}

// ---------------------------------------------------------------------------
// Snapshot fetches are cached under versioned keys: re-fetching the same
// pinned page hits, and live fetches of the same logical page are distinct
// entries (they may hold different bytes after a commit).
// ---------------------------------------------------------------------------
TEST(Generation, SnapshotFetchesCacheUnderVersionedKeys) {
  MemPageFile phys(kPageSize);
  std::unique_ptr<BagFile> bag;
  ASSERT_TRUE(BagFile::Create(&phys, 1, 1, &bag).ok());
  PageId a = kInvalidPageId;
  ASSERT_TRUE(bag->Allocate(&a).ok());
  ASSERT_TRUE(bag->WritePage(a, TaggedPage(111)).ok());
  ASSERT_TRUE(bag->Commit({a}).ok());

  GenerationPin pin;
  ASSERT_TRUE(bag->PinCurrent(&pin).ok());
  ASSERT_TRUE(bag->WritePage(a, TaggedPage(222)).ok());
  ASSERT_TRUE(bag->Commit({a}).ok());

  BufferPool pool(bag.get(), 64);
  {
    PageGuard g;
    ASSERT_TRUE(pool.FetchSnapshot(pin, a, &g).ok());
    EXPECT_EQ(g.page()->ReadAt<uint64_t>(0), 111u);
  }
  const IoStats before = pool.stats();
  {
    PageGuard g;
    ASSERT_TRUE(pool.FetchSnapshot(pin, a, &g).ok());
    EXPECT_EQ(g.page()->ReadAt<uint64_t>(0), 111u);
  }
  const IoStats after = pool.stats();
  EXPECT_EQ(after.Since(before).physical_reads, 0u)
      << "second snapshot fetch went to the store";

  // The live fetch of the same logical id resolves to different bytes —
  // the versioned key keeps the two from colliding in the cache.
  PageGuard live;
  ASSERT_TRUE(pool.Fetch(a, &live).ok());
  EXPECT_EQ(live.page()->ReadAt<uint64_t>(0), 222u);
}

// ---------------------------------------------------------------------------
// Post-commit hook (replica rebuild-on-publish): every Commit invokes the
// hook with the published generation; the hook rebuilds a compact replica
// from the just-published tree and the next commit publishes its root.
// ---------------------------------------------------------------------------
TEST(Generation, PostCommitHookRebuildsReplica) {
  MemPageFile phys(kPageSize);
  std::unique_ptr<BagFile> bag;
  // Root 0: live PackedBaTree; root 1: replica of the previous publish.
  ASSERT_TRUE(BagFile::Create(&phys, /*dims=*/2, /*num_roots=*/2, &bag).ok());
  BufferPool pool(bag.get(), 512);

  PackedBaTree<double> tree(&pool, 2);
  PageId replica_root = kInvalidPageId;
  std::vector<uint64_t> hook_generations;
  bag->set_post_commit_hook([&](uint64_t published) {
    hook_generations.push_back(published);
    // Rebuild the read replica from the tree that was just published. The
    // hook runs on the writer thread and may write (next commit publishes
    // the replica) but must not Commit itself.
    ReplicaBuilder<double> builder(&pool);
    PageId fresh = kInvalidPageId;
    ASSERT_TRUE(builder.Build(tree, &fresh).ok());
    replica_root = fresh;
  });

  double total = 0;
  for (int k = 0; k < 120; ++k) {
    const Point p(static_cast<double>(k % 30), static_cast<double>(k / 30));
    ASSERT_TRUE(tree.Insert(p, 1.0).ok());
    total += 1.0;
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(bag->Commit({tree.root(), kInvalidPageId}).ok());
  ASSERT_EQ(hook_generations, (std::vector<uint64_t>{1}));
  ASSERT_NE(replica_root, kInvalidPageId);

  // Publish the rebuilt replica alongside the tree.
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(bag->Commit({tree.root(), replica_root}).ok());
  ASSERT_EQ(hook_generations.size(), 2u);

  // The replica answers exactly like its source.
  CompactReplica<double> replica(&pool, 2, replica_root);
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
}

// ---------------------------------------------------------------------------
// Generation-aware fsck.
// ---------------------------------------------------------------------------

// Two published generations of a PackedBaTree store (the default checker's
// layout), for the fsck tests below.
void BuildTwoGenerations(MemPageFile* phys) {
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
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(
        tree.Insert(Point(100.0 + k, 100.0 - k), 2.0).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(bag->Commit({tree.root()}).ok());
}

TEST(GenerationFsck, TargetGenerationAndAllGenerations) {
  MemPageFile phys(kPageSize);
  BuildTwoGenerations(&phys);

  // Default: newest generation, with the older one classified retired.
  FsckOptions opts;
  FsckReport report;
  Status st = FsckBag(&phys, opts, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(report.other_generation, 1);
  EXPECT_GT(report.retired_pages, 0u);

  // Explicitly target the superseded generation: a read-only open that
  // verifies generation 1's structures.
  opts.target_generation = 1;
  st = FsckBag(&phys, opts, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.other_generation, 2);

  // Both generations in one run.
  opts.target_generation = -1;
  opts.all_generations = true;
  st = FsckBag(&phys, opts, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(report.other_generation, 1);

  // A generation that was never durable.
  opts.all_generations = false;
  opts.target_generation = 7;
  st = FsckBag(&phys, opts, &report);
  EXPECT_FALSE(st.ok());
}

TEST(GenerationFsck, CrossGenerationAliasingIsCorruption) {
  MemPageFile phys(kPageSize);
  BuildTwoGenerations(&phys);

  // Learn both generations' layouts through pins (a pin snapshots the
  // full logical->physical map and the map-chain ids).
  std::vector<BagMapEntry> map1, map2;
  std::vector<PageId> map1_pages;
  {
    std::unique_ptr<BagFile> bag2;
    ASSERT_TRUE(BagFile::Open(&phys, &bag2, nullptr).ok());
    ASSERT_EQ(bag2->generation(), 2u);
    GenerationPin pin2;
    ASSERT_TRUE(bag2->PinCurrent(&pin2).ok());
    for (PageId l = 0; l < pin2.logical_pages(); ++l) {
      map2.push_back(pin2.map_entry(l));
    }
  }
  {
    BagOpenOptions oo;
    oo.target_generation = 1;
    oo.read_only = true;
    std::unique_ptr<BagFile> bag1;
    ASSERT_TRUE(BagFile::Open(&phys, oo, &bag1, nullptr).ok());
    GenerationPin pin1;
    ASSERT_TRUE(bag1->PinCurrent(&pin1).ok());
    for (PageId l = 0; l < pin1.logical_pages(); ++l) {
      map1.push_back(pin1.map_entry(l));
    }
    map1_pages = pin1.map_pages();
  }

  // A physical page generation 2 maps but generation 1 does not.
  PageId victim_phys = kInvalidPageId;
  uint64_t victim_epoch = 0;
  for (const BagMapEntry& e2 : map2) {
    if (!e2.mapped()) continue;
    bool in_gen1 = false;
    for (const BagMapEntry& e : map1) {
      in_gen1 = in_gen1 || (e.mapped() && e.physical == e2.physical);
    }
    if (!in_gen1) {
      victim_phys = e2.physical;
      victim_epoch = e2.epoch;
      break;
    }
  }
  ASSERT_NE(victim_phys, kInvalidPageId);

  // Rewrite one mapped entry in generation 1's map chain to claim that
  // physical page under its own (older) epoch — the double-owner state
  // reclamation bugs would produce.
  bool patched = false;
  for (PageId mp : map1_pages) {
    Page p(kPageSize);
    ASSERT_TRUE(phys.ReadPage(mp, &p).ok());
    ASSERT_EQ(p.ReadAt<uint64_t>(kBagMapOffMagic), kBagMapMagic);
    const uint64_t n = p.ReadAt<uint64_t>(kBagMapOffEntryCount);
    for (uint64_t k = 0; k < n && !patched; ++k) {
      const uint32_t off =
          kBagMapOffEntries + static_cast<uint32_t>(k) * kBagMapEntrySize;
      const uint64_t phys_id = p.ReadAt<uint64_t>(off);
      const uint64_t epoch = p.ReadAt<uint64_t>(off + 8);
      if (phys_id == kInvalidPageId || epoch == victim_epoch) continue;
      p.WriteAt<uint64_t>(off, victim_phys);
      ASSERT_TRUE(phys.WritePage(mp, p).ok());
      patched = true;
    }
    if (patched) break;
  }
  ASSERT_TRUE(patched);

  FsckReport report;
  Status st = FsckBag(&phys, FsckOptions{}, &report);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("aliasing"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace boxagg
