// Arena-backed scratch memory for the query hot path.
//
// QueryBatch and the batched descents need a handful of short-lived vectors
// per call (corner expansion, sort order, probe groups). Allocating them from
// the global heap puts malloc/free on the per-query critical path; the arena
// replaces that with pointer bumps into blocks that are *retained* across
// batches, so a warmed-up executor performs zero heap allocations per query.
//
// Usage pattern (strictly stack-like):
//
//   core::ArenaScope scope(core::ScratchArena());
//   core::ArenaVector<Group> groups;            // bump-allocated
//   ...
//   // scope destructor rewinds the arena; the blocks stay allocated.
//
// Scopes nest: a recursive descent opens a scope per level, and an index
// that delegates to a sub-index (ECDF borders, spilled BA-tree borders) simply
// nests deeper in the same thread-local arena. The only rule is that arena
// memory must not outlive the scope it was allocated under.
//
// Thread model: ScratchArena() is thread_local, so concurrent queries on the
// ParallelQueryExecutor each get a private arena — no locks, no sharing, and
// nothing for TSan to object to.

#ifndef BOXAGG_CORE_ARENA_H_
#define BOXAGG_CORE_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace boxagg {
namespace core {

/// Chained-block bump allocator. Blocks grow geometrically and are never
/// released until the arena is destroyed; Rewind() only moves the bump
/// cursor, so steady-state use touches the heap zero times. The first block
/// is reserved at construction, so there is always a current block.
class Arena {
 public:
  static constexpr size_t kBlockAlign = 64;  // cache-line aligned blocks

  explicit Arena(size_t first_block_bytes = 64 * 1024)
      : next_block_bytes_(first_block_bytes) {
    AddBlock(0);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (Block& b : blocks_) {
      ::operator delete(b.data, std::align_val_t{kBlockAlign});
    }
  }

  void* Allocate(size_t bytes, size_t align) {
    assert(align != 0 && (align & (align - 1)) == 0 && align <= kBlockAlign);
    for (;;) {
      Block& b = blocks_[current_];
      size_t aligned = (b.used + (align - 1)) & ~(align - 1);
      if (aligned + bytes <= b.size) {
        b.used = aligned + bytes;
        return b.data + aligned;
      }
      if (current_ + 1 < blocks_.size()) {
        // Advance into a block retained by an earlier Rewind.
        ++current_;
        blocks_[current_].used = 0;
        continue;
      }
      AddBlock(bytes);
    }
  }

  /// Bump-cursor snapshot for stack-like rewinding.
  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };

  [[nodiscard]] Mark Position() const {
    return {current_, blocks_[current_].used};
  }

  void Rewind(Mark m) {
    assert(m.block <= current_);
    current_ = m.block;
    blocks_[current_].used = m.used;
  }

  /// Total bytes reserved from the heap over the arena's lifetime.
  [[nodiscard]] size_t TotalReserved() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  /// Number of heap blocks ever allocated — stops growing once warmed up.
  [[nodiscard]] uint64_t BlocksAllocated() const { return blocks_.size(); }

 private:
  struct Block {
    uint8_t* data = nullptr;
    size_t size = 0;
    size_t used = 0;
  };

  void AddBlock(size_t min_bytes) {
    size_t size = next_block_bytes_;
    while (size < min_bytes + kBlockAlign) size *= 2;
    next_block_bytes_ = size * 2;
    Block b;
    b.data = static_cast<uint8_t*>(
        ::operator new(size, std::align_val_t{kBlockAlign}));
    b.size = size;
    b.used = 0;
    blocks_.push_back(b);
    current_ = blocks_.size() - 1;
  }

  std::vector<Block> blocks_;
  size_t current_ = 0;
  size_t next_block_bytes_;
};

/// Per-thread scratch arena shared by every index on the thread. Queries on
/// the ParallelQueryExecutor run whole batches per worker thread, so each
/// worker warms its own arena once and reuses it for the session.
inline Arena& ScratchArena() {
  thread_local Arena arena;
  return arena;
}

/// RAII rewind: everything allocated after construction is reclaimed (the
/// blocks stay cached in the arena) when the scope dies.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.Position()) {}
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope() { arena_.Rewind(mark_); }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// Standard-library allocator adapter. Default-constructed instances bind to
/// the thread-local ScratchArena(), which keeps ArenaVector<T> default-
/// constructible — needed for aggregate scratch structs that contain one.
/// Deallocation is a no-op; memory is reclaimed by the enclosing ArenaScope.
template <class T>
struct ArenaAllocator {
  using value_type = T;

  Arena* arena;

  ArenaAllocator() : arena(&ScratchArena()) {}
  explicit ArenaAllocator(Arena* a) : arena(a) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena(other.arena) {}

  T* allocate(size_t n) {
    return static_cast<T*>(arena->Allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, size_t) {}

  template <class U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena == other.arena;
  }
  template <class U>
  bool operator!=(const ArenaAllocator<U>& other) const {
    return arena != other.arena;
  }
};

template <class T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// Uninitialized arena array of `n` Ts under the current ArenaScope, for a
/// buffer its writer fills before any read. T must be trivially copyable;
/// nothing is destroyed.
template <class T>
T* ArenaArray(Arena& arena, size_t n) {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  return static_cast<T*>(arena.Allocate(n * sizeof(T), alignof(T)));
}

/// ArenaArray, except that a one-element request returns `one` itself, so a
/// one-probe descent touches no arena memory.
template <class T>
T* ScratchArray(Arena& arena, size_t n, T* one) {
  return n == 1 ? one : ArenaArray<T>(arena, n);
}

}  // namespace core
}  // namespace boxagg

#endif  // BOXAGG_CORE_ARENA_H_
