// Unit tests for the paged storage engine: PageFile backends, allocation,
// BufferPool LRU behaviour, pinning, dirty write-back, I/O accounting, and
// the allocation-free miss path (linked with alloc_count.cpp).

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <list>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "check/checkable.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace boxagg {

// Reaches into a shard's page map to corrupt it on purpose.
struct BufferPoolTestPeer {
  static uint32_t& MapEntry(BufferPool& pool, PageId id) {
    BufferPool::Shard& s = *pool.shards_[pool.ShardOf(id)];
    return s.map[pool.MapIndex(id)];
  }
};

namespace {

TEST(StatusTest, OkAndErrors) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status e = Status::IoError("disk on fire");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.code(), Status::Code::kIoError);
  EXPECT_EQ(e.ToString(), "IoError: disk on fire");
}

TEST(PageTest, TypedReadWriteRoundTrip) {
  Page p(4096);
  p.WriteAt<uint32_t>(0, 0xdeadbeef);
  p.WriteAt<double>(8, 3.25);
  p.WriteAt<uint16_t>(100, 7);
  EXPECT_EQ(p.ReadAt<uint32_t>(0), 0xdeadbeefu);
  EXPECT_EQ(p.ReadAt<double>(8), 3.25);
  EXPECT_EQ(p.ReadAt<uint16_t>(100), 7);
}

TEST(PageTest, ZeroClearsEverything) {
  Page p(512);
  p.WriteAt<uint64_t>(64, ~uint64_t{0});
  p.Zero();
  EXPECT_EQ(p.ReadAt<uint64_t>(64), 0u);
}

template <typename FileFactory>
void AllocateReadWriteCycle(FileFactory make_file) {
  auto file = make_file();
  PageId a, b;
  ASSERT_TRUE(file->Allocate(&a).ok());
  ASSERT_TRUE(file->Allocate(&b).ok());
  EXPECT_NE(a, b);
  EXPECT_EQ(file->page_count(), 2u);

  Page w(file->page_size());
  w.WriteAt<uint64_t>(0, 42);
  ASSERT_TRUE(file->WritePage(a, w).ok());
  w.WriteAt<uint64_t>(0, 43);
  ASSERT_TRUE(file->WritePage(b, w).ok());

  Page r(file->page_size());
  ASSERT_TRUE(file->ReadPage(a, &r).ok());
  EXPECT_EQ(r.ReadAt<uint64_t>(0), 42u);
  ASSERT_TRUE(file->ReadPage(b, &r).ok());
  EXPECT_EQ(r.ReadAt<uint64_t>(0), 43u);

  // Freed pages are recycled before the file grows.
  ASSERT_TRUE(file->Free(a).ok());
  PageId c;
  ASSERT_TRUE(file->Allocate(&c).ok());
  EXPECT_EQ(c, a);
  EXPECT_EQ(file->page_count(), 2u);
}

TEST(MemPageFileTest, AllocateReadWriteCycle) {
  AllocateReadWriteCycle(
      [] { return std::make_unique<MemPageFile>(uint32_t{4096}); });
}

TEST(FilePageFileTest, AllocateReadWriteCycle) {
  std::string path = ::testing::TempDir() + "/boxagg_pf_test.dat";
  AllocateReadWriteCycle([&] {
    std::unique_ptr<FilePageFile> f;
    EXPECT_TRUE(FilePageFile::Open(path, 4096, /*truncate=*/true, &f).ok());
    return f;
  });
  std::remove(path.c_str());
}

TEST(FilePageFileTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/boxagg_pf_reopen.dat";
  {
    std::unique_ptr<FilePageFile> f;
    ASSERT_TRUE(FilePageFile::Open(path, 4096, true, &f).ok());
    PageId a;
    ASSERT_TRUE(f->Allocate(&a).ok());
    Page w(4096);
    w.WriteAt<double>(16, 2.5);
    ASSERT_TRUE(f->WritePage(a, w).ok());
  }
  {
    std::unique_ptr<FilePageFile> f;
    ASSERT_TRUE(FilePageFile::Open(path, 4096, false, &f).ok());
    EXPECT_EQ(f->page_count(), 1u);
    Page r(4096);
    ASSERT_TRUE(f->ReadPage(0, &r).ok());
    EXPECT_EQ(r.ReadAt<double>(16), 2.5);
  }
  std::remove(path.c_str());
}

TEST(FilePageFileTest, ReadOutOfRangeFails) {
  std::string path = ::testing::TempDir() + "/boxagg_pf_oob.dat";
  std::unique_ptr<FilePageFile> f;
  ASSERT_TRUE(FilePageFile::Open(path, 4096, true, &f).ok());
  Page r(4096);
  EXPECT_FALSE(f->ReadPage(5, &r).ok());
  std::remove(path.c_str());
}

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : file_(4096), pool_(&file_, 16) {}
  MemPageFile file_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, NewPageIsZeroedAndPinned) {
  PageGuard g;
  ASSERT_TRUE(pool_.New(&g).ok());
  EXPECT_TRUE(g.valid());
  EXPECT_EQ(g.page()->ReadAt<uint64_t>(0), 0u);
  EXPECT_EQ(pool_.resident(), 1u);
}

TEST_F(BufferPoolTest, FetchHitDoesNoPhysicalRead) {
  PageId id;
  {
    PageGuard g;
    ASSERT_TRUE(pool_.New(&g).ok());
    id = g.id();
    g.page()->WriteAt<uint32_t>(0, 99);
    g.MarkDirty();
  }
  IoStats before = pool_.stats();
  PageGuard g;
  ASSERT_TRUE(pool_.Fetch(id, &g).ok());
  EXPECT_EQ(g.page()->ReadAt<uint32_t>(0), 99u);
  IoStats d = pool_.stats().Since(before);
  EXPECT_EQ(d.physical_reads, 0u);
  EXPECT_EQ(d.buffer_hits, 1u);
  EXPECT_EQ(d.logical_reads, 1u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPagesAndRereads) {
  // Create more pages than pool capacity; the coldest must get evicted and
  // dirty contents must survive the round trip through the file.
  std::vector<PageId> ids;
  for (int i = 0; i < 40; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool_.New(&g).ok());
    g.page()->WriteAt<int>(0, i);
    g.MarkDirty();
    ids.push_back(g.id());
  }
  EXPECT_LE(pool_.resident(), pool_.capacity());
  EXPECT_GT(pool_.stats().physical_writes, 0u);

  IoStats before = pool_.stats();
  for (int i = 0; i < 40; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool_.Fetch(ids[static_cast<size_t>(i)], &g).ok());
    EXPECT_EQ(g.page()->ReadAt<int>(0), i);
  }
  EXPECT_GT(pool_.stats().Since(before).physical_reads, 0u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  PageGuard pinned;
  ASSERT_TRUE(pool_.New(&pinned).ok());
  pinned.page()->WriteAt<int>(0, 12345);
  pinned.MarkDirty();
  Page* raw = pinned.page();
  for (int i = 0; i < 100; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool_.New(&g).ok());
    g.MarkDirty();
  }
  // The pinned frame must still hold our page.
  EXPECT_EQ(raw->ReadAt<int>(0), 12345);
  EXPECT_EQ(pinned.page(), raw);
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  std::vector<PageGuard> guards(pool_.capacity());
  for (auto& g : guards) {
    ASSERT_TRUE(pool_.New(&g).ok());
  }
  PageGuard extra;
  Status s = pool_.New(&extra);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kNoSpace);
}

TEST_F(BufferPoolTest, LruEvictsColdestFirst) {
  // Fill the pool, then touch all but one page; the untouched page should be
  // the one that gets evicted when a new page arrives.
  std::vector<PageId> ids;
  for (size_t i = 0; i < pool_.capacity(); ++i) {
    PageGuard g;
    ASSERT_TRUE(pool_.New(&g).ok());
    g.MarkDirty();
    ids.push_back(g.id());
  }
  // Touch everything except ids[0].
  for (size_t i = 1; i < ids.size(); ++i) {
    PageGuard g;
    ASSERT_TRUE(pool_.Fetch(ids[i], &g).ok());
  }
  {
    PageGuard g;
    ASSERT_TRUE(pool_.New(&g).ok());
  }
  // ids[1] must still be resident (check it first: fetching the evicted
  // ids[0] would itself evict the then-coldest page) ...
  IoStats before = pool_.stats();
  {
    PageGuard g;
    ASSERT_TRUE(pool_.Fetch(ids[1], &g).ok());
  }
  EXPECT_EQ(pool_.stats().Since(before).physical_reads, 0u);
  // ... while fetching ids[0] is a physical read (it was the eviction
  // victim).
  before = pool_.stats();
  {
    PageGuard g;
    ASSERT_TRUE(pool_.Fetch(ids[0], &g).ok());
  }
  EXPECT_EQ(pool_.stats().Since(before).physical_reads, 1u);
}

TEST_F(BufferPoolTest, DeleteRecyclesPage) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    MemPageFile file(4096);
    BufferPool pool(&file, /*capacity=*/16 * shards, shards);
    std::vector<PageId> ids;
    for (int i = 0; i < 6; ++i) {
      PageGuard g;
      ASSERT_TRUE(pool.New(&g).ok());
      g.page()->WriteAt<uint64_t>(0, g.id() + 1);
      g.MarkDirty();
      ids.push_back(g.id());
    }
    const PageId id = ids[3];
    ASSERT_TRUE(pool.Delete(id).ok());
    EXPECT_EQ(pool.resident(), ids.size() - 1);
    // The id comes back on reallocation, zero-filled, and is mapped again:
    // every page, the recycled one included, is then a hit.
    {
      PageGuard g;
      ASSERT_TRUE(pool.New(&g).ok());
      EXPECT_EQ(g.id(), id);
      EXPECT_EQ(g.page()->ReadAt<uint64_t>(0), 0u);
      g.page()->WriteAt<uint64_t>(0, 77);
    }
    EXPECT_EQ(pool.resident(), ids.size());
    const IoStats before = pool.stats();
    for (const PageId p : ids) {
      PageGuard g;
      ASSERT_TRUE(pool.Fetch(p, &g).ok());
      EXPECT_EQ(g.page()->ReadAt<uint64_t>(0), p == id ? 77 : p + 1);
    }
    EXPECT_EQ(pool.stats().Since(before).buffer_hits, ids.size());
    const Status audit = pool.CheckConsistency();
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }
}

TEST_F(BufferPoolTest, DeletePinnedFails) {
  PageGuard g;
  ASSERT_TRUE(pool_.New(&g).ok());
  EXPECT_FALSE(pool_.Delete(g.id()).ok());
}

TEST_F(BufferPoolTest, FlushAllPersistsEverything) {
  PageId id;
  {
    PageGuard g;
    ASSERT_TRUE(pool_.New(&g).ok());
    id = g.id();
    g.page()->WriteAt<int>(8, -5);
    g.MarkDirty();
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  Page direct(4096);
  ASSERT_TRUE(file_.ReadPage(id, &direct).ok());
  EXPECT_EQ(direct.ReadAt<int>(8), -5);
}

TEST_F(BufferPoolTest, ResetEmptiesPool) {
  for (int i = 0; i < 5; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool_.New(&g).ok());
    g.MarkDirty();
  }
  ASSERT_TRUE(pool_.Reset().ok());
  EXPECT_EQ(pool_.resident(), 0u);
  // Every subsequent fetch is a physical read.
  IoStats before = pool_.stats();
  PageGuard g;
  ASSERT_TRUE(pool_.Fetch(0, &g).ok());
  EXPECT_EQ(pool_.stats().Since(before).physical_reads, 1u);
}

TEST_F(BufferPoolTest, MovedGuardTransfersPin) {
  PageGuard a;
  ASSERT_TRUE(pool_.New(&a).ok());
  PageId id = a.id();
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.id(), id);
  b.Release();
  // After release the page is evictable; Delete must succeed.
  EXPECT_TRUE(pool_.Delete(id).ok());
}

// --- The frame arena: every shard's page bytes live in one mapping -------

TEST_F(BufferPoolTest, ArenaFramesAreAlignedInsideTheirShardAndDisjoint) {
  for (const uint32_t page_size : {512u, 1000u, 4096u}) {
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("page size " + std::to_string(page_size) + ", shards " +
                   std::to_string(shards));
      MemPageFile file(page_size);
      BufferPool pool(&file, /*capacity=*/256, shards);
      // 100 pages stay pinned at once: far below any shard's 64 frames, so
      // all of them are resident together and none shares a frame.
      std::vector<PageGuard> guards(100);
      for (PageGuard& g : guards) ASSERT_TRUE(pool.New(&g).ok());
      std::vector<std::pair<uintptr_t, uintptr_t>> spans;
      for (const PageGuard& g : guards) {
        const uint8_t* bytes = g.page()->data();
        const auto at = reinterpret_cast<uintptr_t>(bytes);
        EXPECT_EQ(at % Page::kAlign, 0u);
        ASSERT_EQ(g.page()->size(), page_size);
        size_t homes = 0;
        for (size_t s = 0; s < pool.shard_count(); ++s) {
          const std::span<const uint8_t> arena = pool.FrameArena(s);
          if (bytes >= arena.data() &&
              bytes + page_size <= arena.data() + arena.size()) {
            ++homes;
            EXPECT_EQ(static_cast<size_t>(bytes - arena.data()) % Page::kAlign, 0u);
          }
        }
        EXPECT_EQ(homes, 1u) << "page " << g.id();
        spans.emplace_back(at, at + page_size);
      }
      std::sort(spans.begin(), spans.end());
      for (size_t i = 1; i < spans.size(); ++i) {
        EXPECT_LE(spans[i - 1].second, spans[i].first) << "frames overlap";
      }
      const Status audit = pool.CheckConsistency();
      EXPECT_TRUE(audit.ok()) << audit.ToString();
    }
  }
}

TEST_F(BufferPoolTest, ArenaIsAdvisedForHugePages) {
  // Probe whether this kernel takes the advice at all.
  constexpr size_t kProbe = size_t{2} << 20;
  void* probe = mmap(nullptr, kProbe, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(probe, MAP_FAILED);
  const bool advised = madvise(probe, kProbe, MADV_HUGEPAGE) == 0;
  munmap(probe, kProbe);
  if (!advised) GTEST_SKIP() << "the kernel rejects MADV_HUGEPAGE";

  MemPageFile file(8192);
  BufferPool pool(&file, /*capacity=*/512);
  PageGuard g;
  ASSERT_TRUE(pool.New(&g).ok());
  const auto base = reinterpret_cast<uintptr_t>(pool.FrameArena(0).data());
  EXPECT_EQ(base % (uintptr_t{2} << 20), 0u) << "arena not 2 MiB aligned";

  std::ifstream smaps("/proc/self/smaps");
  if (!smaps) GTEST_SKIP() << "no /proc/self/smaps";
  std::string line;
  bool in_arena = false;
  std::string flags;
  while (std::getline(smaps, line)) {
    uintptr_t lo = 0;
    uintptr_t hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      in_arena = lo <= base && base < hi;  // a mapping's header line
    } else if (in_arena && line.rfind("VmFlags:", 0) == 0) {
      flags = line;
      break;
    }
  }
  ASSERT_FALSE(flags.empty()) << "arena mapping not found in smaps";
  EXPECT_NE((flags + " ").find(" hg "), std::string::npos) << flags;
}

TEST_F(BufferPoolTest, ArenaCopiedPageOutlivesReset) {
  PageGuard g;
  ASSERT_TRUE(pool_.New(&g).ok());
  for (uint32_t off = 0; off < 4096; off += 8) {
    g.page()->WriteAt<uint64_t>(off, off * 7 + 1);
  }
  g.MarkDirty();
  const Page copy = *g.page();  // an owning Page, off the arena
  const Page moved = std::move(*g.page());  // a move copies too
  EXPECT_NE(copy.data(), g.page()->data());
  EXPECT_NE(moved.data(), g.page()->data());
  EXPECT_EQ(g.page()->ReadAt<uint64_t>(8), 57u);  // the frame kept its bytes
  g.Release();
  ASSERT_TRUE(pool_.Reset().ok());
  EXPECT_EQ(pool_.resident(), 0u);
  for (uint32_t off = 0; off < 4096; off += 8) {
    ASSERT_EQ(copy.ReadAt<uint64_t>(off), off * 7 + 1) << off;
    ASSERT_EQ(moved.ReadAt<uint64_t>(off), off * 7 + 1) << off;
  }
}

TEST_F(BufferPoolTest, ArenaCheckReportsFrameOutsideItsSlot) {
  PageGuard g;
  ASSERT_TRUE(pool_.New(&g).ok());
  ASSERT_TRUE(pool_.CheckConsistency().ok());
  // A stray write replaces the frame's Page with one that owns heap bytes.
  // The frame's destructor frees them with the pool.
  Page* page = g.page();
  page->~Page();
  new (page) Page(4096);
  const Status audit = pool_.CheckConsistency();
  EXPECT_EQ(audit.code(), Status::Code::kCorruption);
  EXPECT_NE(audit.ToString().find("arena slot"), std::string::npos)
      << audit.ToString();
}

// --- The page map: one entry per PageId a shard owns ---------------------

// Writes page `id`'s own id into its first word, straight on the file.
void WriteTaggedPage(PageFile* file, PageId id) {
  Page page(file->page_size());
  page.WriteAt<uint64_t>(0, id);
  ASSERT_TRUE(file->WritePage(id, page).ok());
}

TEST_F(BufferPoolTest, MapGrowsForPagesAllocatedOnTheFileAfterThePool) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    MemPageFile file(512);
    BufferPool pool(&file, /*capacity=*/8 * shards, shards);
    // The pool was built over an empty file, so every id below lies past
    // the end of its shard's map until its first miss.
    constexpr PageId kPages = 100;
    for (PageId i = 0; i < kPages; ++i) {
      PageId id;
      ASSERT_TRUE(file.Allocate(&id).ok());
      ASSERT_EQ(id, i);
      WriteTaggedPage(&file, id);
    }
    const IoStats before = pool.stats();
    // Two cyclic passes over more pages than the pool holds: every fetch
    // misses, the first pass grows the maps and the second re-fetches
    // pages the first evicted.
    for (int pass = 0; pass < 2; ++pass) {
      for (PageId id = 0; id < kPages; ++id) {
        PageGuard g;
        ASSERT_TRUE(pool.Fetch(id, &g).ok()) << id;
        ASSERT_EQ(g.page()->ReadAt<uint64_t>(0), id);
      }
    }
    const IoStats d = pool.stats().Since(before);
    EXPECT_EQ(d.logical_reads, 2 * kPages);
    EXPECT_EQ(d.physical_reads, 2 * kPages);
    EXPECT_EQ(d.evictions, 2 * kPages - pool.capacity());
    EXPECT_EQ(pool.resident(), pool.capacity());
    // The last page fetched is still resident: a hit.
    {
      PageGuard g;
      ASSERT_TRUE(pool.Fetch(kPages - 1, &g).ok());
    }
    EXPECT_EQ(pool.stats().Since(before).buffer_hits, 1u);
    CheckContext ctx;
    ctx.expect_unpinned = true;
    const Status audit = pool.CheckConsistency(&ctx);
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }
}

TEST_F(BufferPoolTest, MapCheckReportsEntryPointingAtAnotherPage) {
  PageId a;
  PageId b;
  {
    PageGuard ga;
    PageGuard gb;
    ASSERT_TRUE(pool_.New(&ga).ok());
    ASSERT_TRUE(pool_.New(&gb).ok());
    a = ga.id();
    b = gb.id();
  }
  ASSERT_TRUE(pool_.CheckConsistency().ok());
  uint32_t& entry = BufferPoolTestPeer::MapEntry(pool_, a);
  const uint32_t saved = entry;
  entry = BufferPoolTestPeer::MapEntry(pool_, b);  // a now finds b's frame
  const Status audit = pool_.CheckConsistency();
  entry = saved;
  EXPECT_EQ(audit.code(), Status::Code::kCorruption);
  EXPECT_NE(audit.ToString().find("page-map entry " + std::to_string(a)),
            std::string::npos)
      << audit.ToString();
  EXPECT_NE(audit.ToString().find("holds page " + std::to_string(b)),
            std::string::npos)
      << audit.ToString();
  EXPECT_TRUE(pool_.CheckConsistency().ok());
}

// Four readers on four shards while misses grow every shard's map: each
// map is resized only under its own shard's lock, which the TSan job
// checks. Pages are allocated on the file after the pool, so the maps
// start empty.
TEST_F(BufferPoolTest, ConcurrentMissesGrowTheMapsOfFourShards) {
  constexpr size_t kShards = 4;
  constexpr PageId kPages = 400;
  MemPageFile file(512);
  BufferPool pool(&file, /*capacity=*/64, kShards);
  for (PageId i = 0; i < kPages; ++i) {
    PageId id;
    ASSERT_TRUE(file.Allocate(&id).ok());
    WriteTaggedPage(&file, id);
  }
  constexpr int kThreads = 4;
  constexpr int kFetches = 4000;
  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &bad, t] {
      std::mt19937 rng(static_cast<unsigned>(t) + 1);
      // Thread t first sweeps ascending ids from its own offset, so every
      // map grows while the other threads fetch, then fetches at random.
      for (int i = 0; i < kFetches; ++i) {
        const PageId id = i < static_cast<int>(kPages)
                              ? (static_cast<PageId>(i) + 100 * t) % kPages
                              : rng() % kPages;
        PageGuard g;
        if (!pool.Fetch(id, &g).ok() || g.page()->ReadAt<uint64_t>(0) != id) {
          ++bad[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[t], 0) << "thread " << t;
  const IoStats s = pool.stats();
  EXPECT_EQ(s.logical_reads, uint64_t{kThreads} * kFetches);
  EXPECT_EQ(s.logical_reads, s.buffer_hits + s.physical_reads);
  EXPECT_GE(s.physical_reads, kPages);
  EXPECT_EQ(pool.resident(), pool.capacity());
  CheckContext ctx;
  ctx.expect_unpinned = true;
  const Status audit = pool.CheckConsistency(&ctx);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

#if defined(__SANITIZE_ADDRESS__)
// Arena slots carry no heap redzones; the pool poisons a slot while its
// frame is free instead, so a page pointer kept past Delete still aborts.
TEST_F(BufferPoolTest, ArenaReadPastDeleteAbortsUnderAsan) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PageGuard g;
  ASSERT_TRUE(pool_.New(&g).ok());
  const PageId id = g.id();
  const volatile uint8_t* stale = g.page()->data();
  g.Release();
  ASSERT_TRUE(pool_.Delete(id).ok());
  EXPECT_DEATH(
      {
        const uint8_t byte = stale[16];
        (void)byte;
      },
      "use-after-poison");
}
#endif

TEST(BufferPoolSizing, CapacityForMegabytesMatchesPaperSetup) {
  // Paper setup: 8KB pages, 10MB buffer -> 1280 resident pages.
  EXPECT_EQ(BufferPool::CapacityForMegabytes(10, 8192), 1280u);
}

TEST(IoStatsTest, SinceComputesComponentwiseDelta) {
  IoStats a;
  a.physical_reads = 10;
  a.physical_writes = 4;
  a.logical_reads = 50;
  a.buffer_hits = 40;
  IoStats b = a;
  b.physical_reads = 13;
  b.logical_reads = 60;
  b.buffer_hits = 47;
  IoStats d = b.Since(a);
  EXPECT_EQ(d.physical_reads, 3u);
  EXPECT_EQ(d.physical_writes, 0u);
  EXPECT_EQ(d.logical_reads, 10u);
  EXPECT_EQ(d.buffer_hits, 7u);
  EXPECT_EQ(b.TotalIos(), 17u);
}

TEST(IoStatsTest, ProbeFetchesSavedAndHitRate) {
  AtomicIoStats stats;
  stats.AddLogicalRead();
  stats.AddBufferHit();
  stats.AddLogicalRead();
  stats.AddPhysicalRead();
  stats.AddProbeFetchesSaved(3);
  IoStats s = stats.Snapshot();
  EXPECT_EQ(s.probe_fetches_saved, 3u);
  EXPECT_DOUBLE_EQ(s.HitRate(), 0.5);
  EXPECT_DOUBLE_EQ(IoStats{}.HitRate(), 0.0);
  IoStats later = s;
  later.probe_fetches_saved = 10;
  EXPECT_EQ(later.Since(s).probe_fetches_saved, 7u);
  stats.Reset();
  EXPECT_EQ(stats.Snapshot().probe_fetches_saved, 0u);
}

// Randomized consistency check: a pool over a file must behave exactly like a
// big in-memory array of pages, regardless of access order and pool size.
TEST(BufferPoolProperty, RandomWorkloadMatchesDirectFile) {
  // Random New / Fetch / dirtying Fetch / Delete (its id is recycled by a
  // later New) / Reset against a shadow copy of every live page, on one
  // global LRU and on 8 shards, auditing the pool every 100 steps and the
  // backing file directly at the end.
  std::mt19937 rng(7);
  for (size_t shards : {size_t{1}, size_t{8}}) {
    for (size_t capacity : {8u, 9u, 33u}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", capacity " +
                   std::to_string(capacity));
      MemPageFile file(512);
      BufferPool pool(&file, capacity, shards);
      std::vector<PageId> live;
      std::unordered_map<PageId, int> shadow;
      for (int step = 0; step < 3000; ++step) {
        const unsigned op = rng() % 100;
        if (live.empty() || op < 25) {
          PageGuard g;
          ASSERT_TRUE(pool.New(&g).ok());
          ASSERT_EQ(shadow.count(g.id()), 0u) << "New reused a live id";
          EXPECT_EQ(g.page()->ReadAt<int>(0), 0) << "page " << g.id();
          const int v = static_cast<int>(rng() % 1000) + 1;
          g.page()->WriteAt<int>(0, v);
          g.MarkDirty();
          live.push_back(g.id());
          shadow[g.id()] = v;
        } else if (op < 85) {
          const PageId id = live[rng() % live.size()];
          PageGuard g;
          ASSERT_TRUE(pool.Fetch(id, &g).ok());
          ASSERT_EQ(g.page()->ReadAt<int>(0), shadow[id]) << "page " << id;
          if (op >= 55) {
            const int v = static_cast<int>(rng() % 1000) + 1;
            g.page()->WriteAt<int>(0, v);
            g.MarkDirty();
            shadow[id] = v;
          }
        } else if (op < 98) {
          const size_t i = rng() % live.size();
          const PageId id = live[i];
          ASSERT_TRUE(pool.Delete(id).ok());
          live[i] = live.back();
          live.pop_back();
          shadow.erase(id);
        } else {
          ASSERT_TRUE(pool.Reset().ok());
          ASSERT_EQ(pool.resident(), 0u);
        }
        if (step % 100 == 99) {
          CheckContext ctx;
          ctx.expect_unpinned = true;
          const Status audit = pool.CheckConsistency(&ctx);
          ASSERT_TRUE(audit.ok()) << "step " << step << ": "
                                  << audit.ToString();
        }
      }
      ASSERT_TRUE(pool.FlushAll().ok());
      Page direct(512);
      for (const auto& [id, v] : shadow) {
        ASSERT_TRUE(file.ReadPage(id, &direct).ok()) << "page " << id;
        EXPECT_EQ(direct.ReadAt<int>(0), v) << "page " << id;
      }
    }
  }
}

// Reference model of one shard's replacement policy: resident pages with pin
// counts and dirty bits, the unpinned ones on a plain std::list in
// least-recently-unpinned-first order, plus every live page's contents in
// the pool and on disk and the I/O counters the pool should report.
class LruModel {
 public:
  explicit LruModel(size_t capacity) : capacity_(capacity) {}

  // Fetch of a live page: true on a hit. A miss in a full pool evicts the
  // coldest unpinned page; if that victim is dirty and `write_fails`, the
  // victim moves to the hot end and the fetch fails with kIoError.
  Status Fetch(PageId id, bool write_fails, bool* hit) {
    ++io_.logical_reads;
    *hit = resident_.count(id) != 0;
    if (*hit) {
      ++io_.buffer_hits;
      Pin(id);
      return Status::OK();
    }
    BOXAGG_RETURN_NOT_OK(MakeRoom(write_fails));
    ++io_.physical_reads;
    resident_[id] = Entry{1, false};
    return Status::OK();
  }

  // New of a fresh (non-resident) page: pinned, zero-filled and dirty.
  void New(PageId id) {
    ASSERT_TRUE(MakeRoom(false).ok());
    resident_[id] = Entry{1, true};
    value_[id] = 0;
  }

  void Unpin(PageId id, bool dirty) {
    Entry& e = resident_.at(id);
    e.dirty = e.dirty || dirty;
    if (--e.pins == 0) lru_.push_back(id);
  }

  void Write(PageId id, int v) { value_[id] = v; }

  void Delete(PageId id) {
    if (resident_.count(id) != 0) {
      lru_.remove(id);
      resident_.erase(id);
    }
    value_.erase(id);
    disk_.erase(id);
  }

  void FlushAll() {
    for (auto& [id, e] : resident_) {
      if (!e.dirty) continue;
      disk_[id] = value_.at(id);
      ++io_.physical_writes;
      e.dirty = false;
    }
  }

  void Reset() {
    FlushAll();
    resident_.clear();
    lru_.clear();
  }

  [[nodiscard]] bool Resident(PageId id) const {
    return resident_.count(id) != 0;
  }
  [[nodiscard]] bool Full() const { return resident_.size() == capacity_; }
  [[nodiscard]] bool ColdestIsDirty() const {
    return !lru_.empty() && resident_.at(lru_.front()).dirty;
  }
  [[nodiscard]] size_t resident() const { return resident_.size(); }
  [[nodiscard]] int value(PageId id) const { return value_.at(id); }
  [[nodiscard]] const std::map<PageId, int>& disk() const { return disk_; }
  [[nodiscard]] const IoStats& io() const { return io_; }

 private:
  struct Entry {
    int pins = 0;
    bool dirty = false;
  };

  void Pin(PageId id) {
    Entry& e = resident_.at(id);
    if (e.pins++ == 0) lru_.remove(id);
  }

  Status MakeRoom(bool write_fails) {
    if (resident_.size() < capacity_) return Status::OK();
    if (lru_.empty()) return Status::NoSpace("all pinned");
    const PageId victim = lru_.front();
    Entry& e = resident_.at(victim);
    if (e.dirty) {
      if (write_fails) {
        lru_.splice(lru_.end(), lru_, lru_.begin());
        return Status::IoError("write-back failed");
      }
      disk_[victim] = value_.at(victim);
      ++io_.physical_writes;
      ++io_.dirty_writebacks;
    }
    ++io_.evictions;
    lru_.pop_front();
    resident_.erase(victim);
    return Status::OK();
  }

  size_t capacity_;
  std::map<PageId, Entry> resident_;
  std::list<PageId> lru_;  // front = coldest
  std::map<PageId, int> value_;
  std::map<PageId, int> disk_;  // pages written to the file at least once
  IoStats io_;
};

TEST(BufferPoolLru, MatchesReferenceModel) {
  // A seeded random mix of Fetch (clean and dirtying), nested pins held
  // across steps, New, Delete, FlushAll, Reset and injected write-back
  // failures on a 1-shard pool of 8 frames over ~20 live pages. After every
  // step the pool's counters, residency and on-disk contents must equal the
  // model's: a wrong hit/miss shows in buffer_hits/physical_reads, a wrong
  // victim in the write-backs and in a later hit or miss.
  constexpr size_t kCapacity = 8;
  constexpr int kSteps = 6000;
  FaultInjectingPageFile file(512, /*seed=*/3);
  BufferPool pool(&file, kCapacity, /*shards=*/1);
  LruModel model(kCapacity);
  std::mt19937 rng(11);
  std::vector<PageId> live;
  struct Held {
    PageId id;
    PageGuard guard;
  };
  std::vector<Held> held;
  int next_value = 1;
  int write_failures = 0;

  const auto fetch = [&](PageId id, bool write_fails, PageGuard* g) {
    bool hit = false;
    const Status want = model.Fetch(id, write_fails, &hit);
    const Status got = pool.Fetch(id, g);
    ASSERT_EQ(got.code(), want.code()) << got.ToString();
    if (got.ok()) {
      ASSERT_EQ(g->page()->ReadAt<int>(0), model.value(id)) << "page " << id;
    }
  };
  const auto release = [&](Held* h, bool dirty) {
    if (dirty) {
      const int v = next_value++;
      h->guard.page()->WriteAt<int>(0, v);
      h->guard.MarkDirty();
      model.Write(h->id, v);
    }
    h->guard.Release();
    model.Unpin(h->id, dirty);
  };
  const auto is_held = [&](PageId id) {
    for (const Held& h : held) {
      if (h.id == id) return true;
    }
    return false;
  };

  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const unsigned op = rng() % 100;
    if (step % 97 == 96 && model.Full() && model.ColdestIsDirty()) {
      // The coldest page is dirty and its write-back fails: the fetch
      // errors out and the victim stays resident at the hot end.
      PageId cold = kInvalidPageId;
      for (PageId id : live) {
        if (!model.Resident(id)) cold = id;
      }
      if (cold != kInvalidPageId) {
        file.ScheduleWriteError(1);
        PageGuard g;
        fetch(cold, /*write_fails=*/true, &g);
        ASSERT_FALSE(g.valid());
        ++write_failures;
      }
    } else if (live.size() < 6 || (op < 12 && live.size() < 24)) {
      Held h;
      ASSERT_TRUE(pool.New(&h.guard).ok());
      h.id = h.guard.id();
      model.New(h.id);
      live.push_back(h.id);
      release(&h, /*dirty=*/true);
    } else if (op < 60) {
      Held h{live[rng() % live.size()], PageGuard()};
      fetch(h.id, /*write_fails=*/false, &h.guard);
      release(&h, /*dirty=*/rng() % 2 == 0);
    } else if (op < 72 && held.size() < 3) {
      // Pin and hold; half the time a second pin on an already held page.
      const PageId id = !held.empty() && rng() % 2 == 0
                            ? held[rng() % held.size()].id
                            : live[rng() % live.size()];
      held.push_back(Held{id, PageGuard()});
      fetch(id, /*write_fails=*/false, &held.back().guard);
    } else if (op < 84 && !held.empty()) {
      const size_t i = rng() % held.size();
      release(&held[i], /*dirty=*/rng() % 2 == 0);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 94 && live.size() > 10) {
      const size_t i = rng() % live.size();
      if (!is_held(live[i])) {
        ASSERT_TRUE(pool.Delete(live[i]).ok());
        model.Delete(live[i]);
        live[i] = live.back();
        live.pop_back();
      }
    } else if (op < 98) {
      ASSERT_TRUE(pool.FlushAll().ok());
      model.FlushAll();
    } else if (held.empty()) {
      ASSERT_TRUE(pool.Reset().ok());
      model.Reset();
    }

    const IoStats got = pool.stats();
    const IoStats& want = model.io();
    ASSERT_EQ(got.logical_reads, want.logical_reads);
    ASSERT_EQ(got.buffer_hits, want.buffer_hits);
    ASSERT_EQ(got.physical_reads, want.physical_reads);
    ASSERT_EQ(got.physical_writes, want.physical_writes);
    ASSERT_EQ(got.evictions, want.evictions);
    ASSERT_EQ(got.dirty_writebacks, want.dirty_writebacks);
    ASSERT_EQ(pool.resident(), model.resident());
    Page direct(512);
    for (const auto& [id, v] : model.disk()) {
      ASSERT_TRUE(file.ReadPage(id, &direct).ok()) << "page " << id;
      ASSERT_EQ(direct.ReadAt<int>(0), v) << "on-disk page " << id;
    }
    const Status audit = pool.CheckConsistency();
    ASSERT_TRUE(audit.ok()) << audit.ToString();
    ASSERT_FALSE(HasFatalFailure());
  }
  EXPECT_GT(model.io().evictions, 1000u);
  EXPECT_GT(model.io().dirty_writebacks, 100u);
  EXPECT_GT(write_failures, 5);
  held.clear();
  ASSERT_EQ(pool.PinnedFrames(), 0u);
}

TEST(BufferPoolAlloc, WarmMissPathMakesZeroHeapAllocations) {
  // Once every frame exists, a miss that evicts (writing back a dirty
  // victim) and reads the page in touches the heap zero times: the frame
  // table is fixed-size, the LRU is index links inside the frame array,
  // and the free list is pre-sized.
  constexpr PageId kPages = 300;
  constexpr int kMisses = 10000;
  for (size_t shards : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    MemPageFile file(512);
    BufferPool pool(&file, /*capacity=*/64, shards);
    for (PageId i = 0; i < kPages; ++i) {
      PageGuard g;
      ASSERT_TRUE(pool.New(&g).ok());
      g.page()->WriteAt<uint64_t>(0, g.id());
      g.MarkDirty();
    }
    // Warm-up: a full cyclic pass allocates every frame of every shard.
    const auto pass = [&pool](PageId from, int count) {
      for (int i = 0; i < count; ++i) {
        const PageId id = (from + static_cast<PageId>(i)) % kPages;
        PageGuard g;
        if (!pool.Fetch(id, &g).ok() || g.page()->ReadAt<uint64_t>(0) != id) {
          return false;
        }
        if (i % 2 == 0) g.MarkDirty();
      }
      return true;
    };
    ASSERT_TRUE(pass(0, static_cast<int>(kPages)));

    // A cyclic scan over more pages than any shard holds misses every
    // time under LRU.
    const IoStats before = pool.stats();
    const uint64_t allocs_before = testutil::HeapAllocations();
    const bool ok = pass(0, kMisses);
    const uint64_t allocs = testutil::HeapAllocations() - allocs_before;
    ASSERT_TRUE(ok);
    const IoStats d = pool.stats().Since(before);
    EXPECT_EQ(d.physical_reads, static_cast<uint64_t>(kMisses));
    EXPECT_EQ(d.evictions, static_cast<uint64_t>(kMisses));
    EXPECT_GT(d.dirty_writebacks, 0u);
    EXPECT_EQ(allocs, 0u) << "heap allocations on the warm miss path";
    CheckContext ctx;
    ctx.expect_unpinned = true;
    const Status audit = pool.CheckConsistency(&ctx);
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }
}

TEST(MemPageFileDebug, FreedPageIsPoisonedAndFailsLoudly) {
  // Every build fills freed slots with 0xDB: a use-after-free of the page
  // id must fail the checksum instead of serving stale-but-parsable bytes.
  MemPageFile file(512);
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file.Allocate(&id).ok());
  Page p(512);
  p.WriteAt<uint64_t>(0, 0x1234);
  ASSERT_TRUE(file.WritePage(id, p).ok());
  ASSERT_TRUE(file.Free(id).ok());

  Page r(512);
  Status st = file.ReadPage(id, &r);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
}

TEST(PageFileTest, SetFreeListReplacesAllocationState) {
  MemPageFile file(512);
  PageId id = kInvalidPageId;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(file.Allocate(&id).ok());
  // Recovery hands back a swept set wholesale (descending, so pop_back
  // allocation reuses the lowest id first).
  file.SetFreeList({5, 3, 2});
  EXPECT_EQ(file.live_page_count(), 3u);
  ASSERT_TRUE(file.CheckConsistency().ok());
  ASSERT_TRUE(file.Allocate(&id).ok());
  EXPECT_EQ(id, 2u);
  ASSERT_TRUE(file.Allocate(&id).ok());
  EXPECT_EQ(id, 3u);
  ASSERT_TRUE(file.Allocate(&id).ok());
  EXPECT_EQ(id, 5u);
  ASSERT_TRUE(file.Allocate(&id).ok());
  EXPECT_EQ(id, 6u);  // free list exhausted: extend
}

TEST(FilePageFileTest, CloseIsIdempotentAndDurable) {
  const std::string path = ::testing::TempDir() + "close_test.pages";
  std::unique_ptr<FilePageFile> file;
  ASSERT_TRUE(FilePageFile::Open(path, 512, /*truncate=*/true, &file).ok());
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file->Allocate(&id).ok());
  Page p(512);
  p.WriteAt<uint64_t>(0, 99);
  ASSERT_TRUE(file->WritePage(id, p).ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_TRUE(file->Close().ok());  // second close is a no-op
  // Post-close I/O fails instead of writing through a dead descriptor.
  EXPECT_FALSE(file->WritePage(id, p).ok());

  std::unique_ptr<FilePageFile> reopened;
  ASSERT_TRUE(FilePageFile::Open(path, 512, false, &reopened).ok());
  Page r(512);
  ASSERT_TRUE(reopened->ReadPage(id, &r).ok());
  EXPECT_EQ(r.ReadAt<uint64_t>(0), 99u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace boxagg
