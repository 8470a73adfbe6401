// Tests for the annotated sync layer (src/core/sync.h): the Mutex and
// CondVar wrappers and, in debug builds, the
// LockOrderRegistry's rank-inversion and held-stack behavior.
//
// The registry's failure mode is an abort with both lock names on stderr,
// so the inversion cases are death tests. TSan builds skip them: death
// tests fork, and forking a TSan-instrumented process mid-test is both
// slow and unreliable — the TSan job covers the same code through the
// registry-enabled concurrent suite instead.

#include "core/sync.h"

#include <atomic>
#include <thread>

#include "gtest/gtest.h"

namespace boxagg {
namespace sync {
namespace {

#if defined(__SANITIZE_THREAD__)
#define BOXAGG_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BOXAGG_TSAN 1
#endif
#endif
#ifndef BOXAGG_TSAN
#define BOXAGG_TSAN 0
#endif

TEST(SyncMutex, LockUnlockRoundTrip) {
  Mutex mu("test.roundtrip", lock_rank::kLeaf);
  mu.Lock();
#if BOXAGG_LOCK_ORDER_CHECKS
  EXPECT_EQ(LockOrderRegistry::HeldCount(), 1u);
#endif
  mu.Unlock();
#if BOXAGG_LOCK_ORDER_CHECKS
  EXPECT_EQ(LockOrderRegistry::HeldCount(), 0u);
#endif
}

TEST(SyncMutex, ScopesReleaseOnDestruction) {
  Mutex mu("test.scope", lock_rank::kLeaf);
  {
    MutexLock lock(&mu);
#if BOXAGG_LOCK_ORDER_CHECKS
    EXPECT_EQ(LockOrderRegistry::HeldCount(), 1u);
#endif
  }
#if BOXAGG_LOCK_ORDER_CHECKS
  EXPECT_EQ(LockOrderRegistry::HeldCount(), 0u);
#endif
  // Released: another thread takes it (a lock the scope kept would block
  // that thread, and the test would time out).
  bool taken = false;
  std::thread other([&] {
    MutexLock relock(&mu);
    taken = true;
  });
  other.join();
  EXPECT_TRUE(taken);
}

TEST(SyncCondVar, WaitNotifyRoundTrip) {
  Mutex mu("test.cv", lock_rank::kLeaf);
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
  });
  {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  }
  waiter.join();
#if BOXAGG_LOCK_ORDER_CHECKS
  EXPECT_EQ(LockOrderRegistry::HeldCount(), 0u);
#endif
}

#if BOXAGG_LOCK_ORDER_CHECKS

TEST(LockOrderRegistry, ConsistentOrderPasses) {
  Mutex low("test.order_low", 1100);
  Mutex high("test.order_high", 1200);
  {
    MutexLock a(&low);
    MutexLock b(&high);  // ascending rank: legal
    EXPECT_EQ(LockOrderRegistry::HeldCount(), 2u);
  }
  EXPECT_EQ(LockOrderRegistry::HeldCount(), 0u);
}

TEST(LockOrderRegistry, NestingRecordsAnEdge) {
  size_t before = LockOrderRegistry::EdgeCount();
  Mutex low("test.edge_low", 1300);
  Mutex high("test.edge_high", 1310);
  {
    MutexLock a(&low);
    MutexLock b(&high);
  }
  EXPECT_GE(LockOrderRegistry::EdgeCount(), before + 1);
}

TEST(LockOrderRegistry, CondVarWaitVacatesTheHeldStack) {
  Mutex mu("test.cv_rank", 1500);
  CondVar cv;
  bool woken = false;
  std::atomic<bool> parked{false};
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!woken) {
      parked.store(true, std::memory_order_release);
      cv.Wait(&mu);
    }
    // Re-acquired: the lock is back on this thread's stack.
    EXPECT_EQ(LockOrderRegistry::HeldCount(), 1u);
  });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    MutexLock lock(&mu);
    woken = true;
    cv.NotifyAll();
  }
  waiter.join();
}

#if !BOXAGG_TSAN

using LockOrderDeathTest = ::testing::Test;

TEST(LockOrderDeathTest, RankInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex high("test.death_high", 1700);
        Mutex low("test.death_low", 1600);
        MutexLock a(&high);
        MutexLock b(&low);  // blocking acquire below a held rank
      },
      "rank inversion.*test\\.death_low");
}

TEST(LockOrderDeathTest, EqualRankAborts) {
  // Equal ranks are an inversion too: two threads nesting two same-rank
  // locks in opposite orders is the classic AB/BA deadlock.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a_mu("test.death_eq_a", 1800);
        Mutex b_mu("test.death_eq_b", 1800);
        MutexLock a(&a_mu);
        MutexLock b(&b_mu);
      },
      "rank inversion");
}

TEST(LockOrderDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu("test.death_recursive", 1900);
        mu.Lock();
        mu.Lock();
      },
      "recursive acquisition");
}

TEST(LockOrderDeathTest, ForeignReleaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu("test.death_foreign", 2000);
        mu.Unlock();  // never locked by this thread
      },
      "does not hold");
}

#endif  // !BOXAGG_TSAN
#endif  // BOXAGG_LOCK_ORDER_CHECKS

}  // namespace
}  // namespace sync
}  // namespace boxagg
