// Annotated synchronization layer: the ONLY place in the repository that
// may name std::mutex / std::condition_variable / std::shared_mutex (the
// rule is enforced by tools/lint_invariants.py, which runs in CI).
//
// Three things live here:
//
//  1. Clang thread-safety annotation macros (CAPABILITY, GUARDED_BY,
//     REQUIRES, ACQUIRE, RELEASE, EXCLUDES, ...). Under Clang they expand
//     to __attribute__((...)) and the whole locking surface is checked at
//     compile time with -Werror=thread-safety; under GCC (and any other
//     compiler) they expand to nothing, so the layer is annotation-only —
//     zero codegen difference.
//
//  2. Annotated wrappers: Mutex, CondVar, and the RAII scope MutexLock.
//     Each wrapper is its std:: counterpart plus the static name and rank
//     (kept in every build so a translation unit compiled without NDEBUG
//     links safely against an optimized library); in Release builds the
//     lock paths never read them, so the hot paths — BufferPool shard
//     locks in particular — pay nothing for the discipline beyond 16
//     bytes per lock.
//
//  3. LockOrderRegistry, a debug-build deadlock detector. Every Mutex is
//     constructed with a static name and a rank from lock_rank:: (the
//     project-wide acquisition order, tabulated in DESIGN.md §12). In
//     debug builds each blocking acquisition is checked against the
//     calling thread's currently-held stack: acquiring a lock whose rank
//     is <= any held lock's rank is a rank inversion and aborts
//     immediately, printing both lock names and the full held stack — a
//     potential deadlock becomes a deterministic test failure on the FIRST
//     inverted acquisition, whether or not a second thread ever contends.
//     Acquisition edges (held-top -> acquired, by name) also feed a global
//     graph with cycle detection, which catches orders that are locally
//     rank-consistent but globally cyclic if ranks are ever aliased.
//
// Waiting on a CondVar releases and re-acquires the mutex, and the
// registry mirrors that (the lock leaves the held stack for the duration
// of the wait), so threads parked in Wait never hold rank slots.

#ifndef BOXAGG_CORE_SYNC_H_
#define BOXAGG_CORE_SYNC_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define BOXAGG_TS_ATTR(x) __attribute__((x))
#else
#define BOXAGG_TS_ATTR(x)  // GCC & friends: annotations compile away.
#endif

#define CAPABILITY(x) BOXAGG_TS_ATTR(capability(x))
#define SCOPED_CAPABILITY BOXAGG_TS_ATTR(scoped_lockable)
#define GUARDED_BY(x) BOXAGG_TS_ATTR(guarded_by(x))
#define REQUIRES(...) BOXAGG_TS_ATTR(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) BOXAGG_TS_ATTR(acquire_capability(__VA_ARGS__))
#define RELEASE(...) BOXAGG_TS_ATTR(release_capability(__VA_ARGS__))
#define EXCLUDES(...) BOXAGG_TS_ATTR(locks_excluded(__VA_ARGS__))
#define NO_THREAD_SAFETY_ANALYSIS BOXAGG_TS_ATTR(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Lock-order checking is a debug-build feature (it adds a per-acquisition
// stack walk of the handful of locks the thread holds). BOXAGG_LOCK_ORDER=1
// forces it on in optimized builds for targeted soak runs.
// ---------------------------------------------------------------------------

#if !defined(NDEBUG) || defined(BOXAGG_LOCK_ORDER)
#define BOXAGG_LOCK_ORDER_CHECKS 1
#else
#define BOXAGG_LOCK_ORDER_CHECKS 0
#endif

namespace boxagg {
namespace sync {

/// Project-wide lock acquisition order: a thread may only block on a lock
/// whose rank is STRICTLY GREATER than every lock it already holds. Gaps
/// are deliberate — future subsystems (latch crabbing, say) slot in
/// without renumbering. Table mirrored in DESIGN.md §12; the
/// lock-rank-table rule of tools/lint_invariants.py checks that its rows
/// equal the ranked mutexes declared in src/.
namespace lock_rank {
inline constexpr uint32_t kBufferPoolShard = 100;  ///< BufferPool Shard::mu
inline constexpr uint32_t kPageStore = 170;        ///< Mem/Fault page slots
inline constexpr uint32_t kThreadPoolQueue = 200;  ///< exec::ThreadPool
inline constexpr uint32_t kExecLatch = 210;        ///< executor done-latch
inline constexpr uint32_t kLeaf = 1000;  ///< never hold anything beyond this
}  // namespace lock_rank

// ---------------------------------------------------------------------------
// LockOrderRegistry
// ---------------------------------------------------------------------------

/// \brief Debug-build deadlock-order checker (see file comment). All state
/// is per-thread except the name-level edge graph; the public surface is
/// static because the registry is process-global by nature.
class LockOrderRegistry {
 public:
  /// Locks one thread may hold simultaneously. Exceeding it aborts — the
  /// project's deepest legitimate nesting is 2 (shard -> store).
  static constexpr size_t kMaxHeld = 16;

  /// Rank check + held-stack push for a BLOCKING acquisition. Call before
  /// the underlying lock() so an inversion aborts instead of deadlocking.
  static void OnAcquire(const void* lock, const char* name, uint32_t rank) {
    Check(lock, name, rank);
    Push(lock, name, rank);
  }

  static void OnRelease(const void* lock) {
    Stack& s = TlsStack();
    // Locks release in roughly LIFO order; scan from the top.
    for (size_t i = s.depth; i-- > 0;) {
      if (s.held[i].lock == lock) {
        for (size_t j = i + 1; j < s.depth; ++j) s.held[j - 1] = s.held[j];
        --s.depth;
        return;
      }
    }
    Fail("released a lock this thread does not hold", nullptr, 0);
  }

  /// Locks the calling thread currently holds (test hook).
  static size_t HeldCount() { return TlsStack().depth; }

  /// Distinct name-level acquisition edges seen process-wide (test hook).
  static size_t EdgeCount() {
    std::lock_guard<std::mutex> g(GraphMu());
    return Graph().edge_count;
  }

 private:
  struct Held {
    const void* lock;
    const char* name;
    uint32_t rank;
  };
  struct Stack {
    Held held[kMaxHeld];
    size_t depth = 0;
  };

  // Name-level acquisition graph: adjacency by static name. Bounded small
  // (one node per lock *class*, not per instance).
  struct NameLess {
    bool operator()(const char* a, const char* b) const {
      return std::strcmp(a, b) < 0;
    }
  };
  struct EdgeGraph {
    std::map<const char*, std::set<const char*, NameLess>, NameLess> out;
    size_t edge_count = 0;
  };

  static Stack& TlsStack() {
    thread_local Stack s;
    return s;
  }
  static std::mutex& GraphMu() {
    static std::mutex mu;
    return mu;
  }
  static EdgeGraph& Graph() {
    static EdgeGraph g;
    return g;
  }

  [[noreturn]] static void Fail(const char* what, const char* name,
                                uint32_t rank) {
    Stack& s = TlsStack();
    std::fprintf(stderr, "LockOrderRegistry: %s", what);
    if (name != nullptr) {
      std::fprintf(stderr, ": acquiring \"%s\" (rank %u)", name, rank);
    }
    std::fprintf(stderr, "\n  held by this thread (oldest first):\n");
    if (s.depth == 0) std::fprintf(stderr, "    (nothing)\n");
    for (size_t i = 0; i < s.depth; ++i) {
      std::fprintf(stderr, "    [%zu] \"%s\" (rank %u)\n", i,
                   s.held[i].name, s.held[i].rank);
    }
    std::abort();
  }

  static void Check(const void* lock, const char* name, uint32_t rank) {
    Stack& s = TlsStack();
    for (size_t i = 0; i < s.depth; ++i) {
      if (s.held[i].lock == lock) {
        Fail("recursive acquisition (lock already held)", name, rank);
      }
      if (s.held[i].rank >= rank) {
        Fail("lock-order rank inversion (would deadlock against the "
             "reverse interleaving)",
             name, rank);
      }
    }
    if (s.depth > 0) AddEdge(s.held[s.depth - 1].name, name, rank);
  }

  static void Push(const void* lock, const char* name, uint32_t rank) {
    Stack& s = TlsStack();
    if (s.depth >= kMaxHeld) Fail("held-lock stack overflow", name, rank);
    s.held[s.depth++] = Held{lock, name, rank};
  }

  // Records from -> to in the name graph and aborts if `to` already
  // reaches `from` (a cycle). Rank checking makes this unreachable while
  // ranks are a strict total order; it is the backstop for aliased ranks.
  static void AddEdge(const char* from, const char* to, uint32_t rank) {
    if (std::strcmp(from, to) == 0) return;  // same class, e.g. two shards
    std::lock_guard<std::mutex> g(GraphMu());
    EdgeGraph& graph = Graph();
    auto [it, inserted] = graph.out.try_emplace(from);
    if (!it->second.insert(to).second) return;  // known edge
    ++graph.edge_count;
    if (Reaches(graph, to, from)) {
      Fail("acquisition-order cycle detected in the lock graph", to, rank);
    }
  }

  static bool Reaches(const EdgeGraph& graph, const char* src,
                      const char* dst) {
    if (std::strcmp(src, dst) == 0) return true;
    auto it = graph.out.find(src);
    if (it == graph.out.end()) return false;
    for (const char* next : it->second) {
      if (Reaches(graph, next, dst)) return true;
    }
    return false;
  }
};

#if BOXAGG_LOCK_ORDER_CHECKS
#define BOXAGG_LOCK_ORDER_ON_ACQUIRE(lock, name, rank) \
  ::boxagg::sync::LockOrderRegistry::OnAcquire(lock, name, rank)
#define BOXAGG_LOCK_ORDER_ON_RELEASE(lock) \
  ::boxagg::sync::LockOrderRegistry::OnRelease(lock)
#else
#define BOXAGG_LOCK_ORDER_ON_ACQUIRE(lock, name, rank) ((void)0)
#define BOXAGG_LOCK_ORDER_ON_RELEASE(lock) ((void)0)
#endif

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// \brief Annotated std::mutex. Construct with a static name and a
/// lock_rank:: rank. Both are stored in every build, so the layout does not
/// depend on NDEBUG; only builds with lock-order checks read them.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name, uint32_t rank)
      : name_(name), rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    BOXAGG_LOCK_ORDER_ON_ACQUIRE(this, DebugName(), DebugRank());
    mu_.lock();
  }

  void Unlock() RELEASE() {
    BOXAGG_LOCK_ORDER_ON_RELEASE(this);
    mu_.unlock();
  }

 private:
  friend class CondVar;

  const char* DebugName() const { return name_; }
  uint32_t DebugRank() const { return rank_; }

  std::mutex mu_;
  const char* name_;
  uint32_t rank_;
};

// ---------------------------------------------------------------------------
// RAII scopes
// ---------------------------------------------------------------------------

/// \brief RAII exclusive lock on a Mutex (the project's std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() { mu_->Unlock(); }

 private:
  Mutex* const mu_;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

/// \brief Condition variable bound to sync::Mutex.
///
/// No predicate overload on purpose: the thread-safety analysis cannot see
/// through a predicate lambda touching GUARDED_BY members, so callers write
/// the canonical loop inline, where the analysis proves every access:
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(&mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu and blocks; re-acquires before returning.
  /// Spurious wakeups happen — always wait in a predicate loop.
  void Wait(Mutex* mu) REQUIRES(mu) {
    // The wait releases the mutex: mirror that in the held stack so a
    // parked thread pins no rank (and the re-acquisition is re-checked
    // against whatever the thread still holds).
    BOXAGG_LOCK_ORDER_ON_RELEASE(mu);
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // ownership returns to *mu's scope holder
    BOXAGG_LOCK_ORDER_ON_ACQUIRE(mu, mu->DebugName(), mu->DebugRank());
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sync
}  // namespace boxagg

#endif  // BOXAGG_CORE_SYNC_H_
