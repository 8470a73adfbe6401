// FaultInjectingPageFile semantics (the substrate of every crash test) and
// the buffer pool's fault handling on top of it: scheduled read/write
// errors, crash resolution of unsynced writes (vanish / whole / torn),
// deterministic replay, bounded retry-with-backoff for transient errors,
// and checksum-failure accounting for corrupt slots.

#include <gtest/gtest.h>

#include <vector>

#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"

namespace boxagg {
namespace {

constexpr uint32_t kPageSize = 512;

Page MakePage(uint32_t tag) {
  Page p(kPageSize);
  for (uint32_t i = 0; i + 4 <= kPageSize; i += 4) p.WriteAt<uint32_t>(i, tag);
  return p;
}

TEST(FaultInjection, SyncedWritesSurviveACrash) {
  FaultInjectingPageFile file(kPageSize, /*seed=*/1);
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file.Allocate(&id).ok());
  ASSERT_TRUE(file.WritePage(id, MakePage(0x11111111)).ok());
  ASSERT_TRUE(file.Sync().ok());
  file.Crash();
  file.Reopen();
  Page r(kPageSize);
  ASSERT_TRUE(file.ReadPage(id, &r).ok());
  EXPECT_EQ(r.ReadAt<uint32_t>(0), 0x11111111u);
}

TEST(FaultInjection, CrashedStoreIsOfflineUntilReopen) {
  FaultInjectingPageFile file(kPageSize, 1);
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file.Allocate(&id).ok());
  ASSERT_TRUE(file.WritePage(id, MakePage(1)).ok());
  ASSERT_TRUE(file.Sync().ok());
  file.Crash();
  Page r(kPageSize);
  EXPECT_EQ(file.ReadPage(id, &r).code(), Status::Code::kIoError);
  EXPECT_EQ(file.WritePage(id, r).code(), Status::Code::kIoError);
  EXPECT_EQ(file.Sync().code(), Status::Code::kIoError);
  file.Reopen();
  EXPECT_TRUE(file.ReadPage(id, &r).ok());
}

TEST(FaultInjection, UnsyncedWriteNeverYieldsPlausibleGarbage) {
  // An unsynced write resolves to exactly one of: vanished (old/zero
  // contents read back fine), applied whole (new contents read back fine),
  // or torn (read fails the checksum). Sweep seeds to hit all branches.
  bool saw_vanish = false, saw_whole = false, saw_torn = false;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    FaultInjectingPageFile file(kPageSize, seed);
    PageId id = kInvalidPageId;
    EXPECT_TRUE(file.Allocate(&id).ok());
    EXPECT_TRUE(file.WritePage(id, MakePage(0xAAAAAAAA)).ok());
    EXPECT_TRUE(file.Sync().ok());
    EXPECT_TRUE(file.WritePage(id, MakePage(0xBBBBBBBB)).ok());
    file.Crash();  // 0xBB... write unsynced
    file.Reopen();
    Page r(kPageSize);
    Status st = file.ReadPage(id, &r);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
      saw_torn = true;
    } else if (r.ReadAt<uint32_t>(0) == 0xAAAAAAAAu) {
      saw_vanish = true;
    } else {
      EXPECT_EQ(r.ReadAt<uint32_t>(0), 0xBBBBBBBBu);
      saw_whole = true;
    }
  }
  EXPECT_TRUE(saw_vanish);
  EXPECT_TRUE(saw_whole);
  EXPECT_TRUE(saw_torn);
}

TEST(FaultInjection, CrashResolutionIsDeterministic) {
  auto run = [](uint64_t seed) {
    FaultInjectingPageFile file(kPageSize, seed);
    std::vector<PageId> ids(6);
    for (auto& id : ids) EXPECT_TRUE(file.Allocate(&id).ok());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_TRUE(file.WritePage(ids[i], MakePage(uint32_t(i))).ok());
    }
    file.Crash();
    file.Reopen();
    std::vector<int> outcome;
    for (PageId id : ids) {
      Page r(kPageSize);
      Status st = file.ReadPage(id, &r);
      outcome.push_back(!st.ok() ? 2 : (r.ReadAt<uint32_t>(0) != 0 ? 1 : 0));
    }
    return outcome;
  };
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(456));  // different seed, different resolution
}

TEST(FaultInjection, ScheduledTornWriteFailsChecksumAfterCrash) {
  FaultInjectingPageFile file(kPageSize, 1);
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file.Allocate(&id).ok());
  file.ScheduleTornWrite(/*nth=*/1, /*prefix_bytes=*/100);
  ASSERT_TRUE(file.WritePage(id, MakePage(0xCCCCCCCC)).ok());
  file.Crash();
  file.Reopen();
  Page r(kPageSize);
  Status st = file.ReadPage(id, &r);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
}

TEST(FaultInjection, ScheduledWriteErrorFiresOnNthWrite) {
  FaultInjectingPageFile file(kPageSize, 1);
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file.Allocate(&id).ok());
  file.ScheduleWriteError(2);
  EXPECT_TRUE(file.WritePage(id, MakePage(1)).ok());
  EXPECT_EQ(file.WritePage(id, MakePage(2)).code(), Status::Code::kIoError);
  EXPECT_TRUE(file.WritePage(id, MakePage(3)).ok());
}

TEST(FaultInjection, FlipBitBreaksChecksumExactly) {
  FaultInjectingPageFile file(kPageSize, 1);
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file.Allocate(&id).ok());
  ASSERT_TRUE(file.WritePage(id, MakePage(0x12345678)).ok());
  ASSERT_TRUE(file.Sync().ok());
  file.FlipBit(id, /*bit_index=*/kPageHeaderSize * 8 + 5);
  Page r(kPageSize);
  EXPECT_EQ(file.ReadPage(id, &r).code(), Status::Code::kCorruption);
  file.FlipBit(id, kPageHeaderSize * 8 + 5);  // flip back
  EXPECT_TRUE(file.ReadPage(id, &r).ok());
}

// ---------------------------------------------------------------------------
// Buffer pool fault handling over the injecting store.

TEST(BufferPoolRetry, TransientReadErrorIsRetried) {
  FaultInjectingPageFile file(kPageSize, 1);
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file.Allocate(&id).ok());
  ASSERT_TRUE(file.WritePage(id, MakePage(0x5150)).ok());

  BufferPool pool(&file, 8);
  file.ScheduleReadError(/*nth=*/1, /*times=*/2);  // 2 failures < 1 + 2 tries
  PageGuard g;
  ASSERT_TRUE(pool.Fetch(id, &g).ok());
  EXPECT_EQ(g.page()->ReadAt<uint32_t>(0), 0x5150u);
  EXPECT_EQ(pool.stats().read_retries, 2u);
  EXPECT_EQ(pool.stats().checksum_failures, 0u);
}

TEST(BufferPoolRetry, GivesUpAfterBoundAndSurfacesIoError) {
  FaultInjectingPageFile file(kPageSize, 1);
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file.Allocate(&id).ok());
  ASSERT_TRUE(file.WritePage(id, MakePage(1)).ok());

  BufferPool pool(&file, 8);
  file.ScheduleReadError(1, /*times=*/3);  // exhausts initial + 2 retries
  PageGuard g;
  Status st = pool.Fetch(id, &g);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kIoError) << st.ToString();
  EXPECT_EQ(pool.stats().read_retries, 2u);

  // The page is still fetchable once the fault clears.
  PageGuard g2;
  EXPECT_TRUE(pool.Fetch(id, &g2).ok());
}

TEST(BufferPoolRetry, ChecksumFailureIsCountedAndNeverRetried) {
  FaultInjectingPageFile file(kPageSize, 1);
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file.Allocate(&id).ok());
  ASSERT_TRUE(file.WritePage(id, MakePage(1)).ok());
  ASSERT_TRUE(file.Sync().ok());
  file.FlipBit(id, kPageHeaderSize * 8 + 3);

  BufferPool pool(&file, 8);
  const uint64_t reads_before = file.read_count();
  PageGuard g;
  Status st = pool.Fetch(id, &g);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  EXPECT_EQ(pool.stats().checksum_failures, 1u);
  EXPECT_EQ(pool.stats().read_retries, 0u);
  // Deterministic corruption: exactly one device read, no retry traffic.
  EXPECT_EQ(file.read_count(), reads_before + 1);
}

}  // namespace
}  // namespace boxagg
