#include "storage/buffer_pool.h"

#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>

// Under AddressSanitizer an arena slot is poisoned while no frame in it is
// handed out (never used, or on the free list), so a page pointer kept past
// Delete or eviction faults as a heap use-after-free would. Elsewhere the
// poison calls compile to nothing.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#define ASAN_UNPOISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#endif

namespace boxagg {

namespace {
// Seed-compatible floor: the original single-shard pool clamped its total
// capacity to at least 8 frames (enough for one root-to-leaf pin chain).
constexpr size_t kMinShardFrames = 8;
// A miss that fails with kIoError is re-read up to kMaxReadRetries more
// times; retry k (1-based) first sleeps kRetryBackoffUs << (k-1).
constexpr size_t kMaxReadRetries = 2;
constexpr uint64_t kRetryBackoffUs = 100;
// Transparent huge page size on x86-64 and the usual arm64 configuration;
// arenas start on this boundary so every whole 2 MiB of them can be one.
constexpr uintptr_t kHugePageBytes = uintptr_t{2} << 20;

size_t ArenaMapBytes(size_t bytes) {
  const auto os_page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + os_page - 1) / os_page * os_page;
}

// Maps `bytes` of zeroed anonymous memory at a 2 MiB boundary, as one
// mapping, and advises it for transparent huge pages.
uint8_t* MapArena(size_t bytes) {
  const size_t len = ArenaMapBytes(bytes);
  void* raw = mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t start = (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  // Trim the alignment slack on both sides.
  if (start > base) (void)munmap(raw, start - base);
  const uintptr_t tail = base + kHugePageBytes - start;
  if (tail > 0) (void)munmap(reinterpret_cast<void*>(start + len), tail);
  auto* arena = reinterpret_cast<uint8_t*>(start);
  // Where the kernel refuses the advice (no THP support) the arena keeps
  // 4 KiB pages: the same bytes and the same answers, only more TLB misses.
  (void)madvise(arena, len, MADV_HUGEPAGE);
  return arena;
}

}  // namespace

BufferPool::BufferPool(PageFile* file, size_t capacity, size_t shards)
    : file_(file) {
  if (shards == 0) shards = 1;
  if (capacity < kMinShardFrames) capacity = kMinShardFrames;
  shards_.reserve(shards);
  size_t total = 0;
  for (size_t i = 0; i < shards; ++i) {
    // Distribute capacity as evenly as possible; every shard keeps at least
    // the seed's floor so a single shard can always hold one pin chain.
    size_t cap = capacity / shards + (i < capacity % shards ? 1 : 0);
    if (cap < kMinShardFrames) cap = kMinShardFrames;
    total += cap;
    shards_.push_back(std::make_unique<Shard>(
        cap, static_cast<uint32_t>(i), file->page_size(),
        (file->page_count() + shards - 1) / shards));
  }
  capacity_ = total;
}

// Everything is sized up front: the page map covers the file's pages, and
// neither the frame array, the arena nor the free list reallocates while
// the pool warms up. The frame array and the arena are reserved, not
// touched, so slots not yet used cost address space, not resident memory.
BufferPool::Shard::Shard(size_t cap, uint32_t idx, uint32_t psize,
                         size_t map_size)
    : map(map_size, kNoFrame),
      slots(std::allocator<Frame>().allocate(cap)),
      capacity(cap),
      index(idx),
      slot_bytes((size_t{psize} + Page::kAlign - 1) / Page::kAlign *
                 Page::kAlign),
      arena(MapArena(cap * slot_bytes)) {
  assert(cap < kNoFrame && "shard capacity exceeds the LRU link range");
  free_frames.reserve(cap);
  ASAN_POISON_MEMORY_REGION(arena, cap * slot_bytes);
}

BufferPool::Shard::~Shard() {
  for (uint32_t i = 0; i < allocated; ++i) slots[i].~Frame();
  ASAN_UNPOISON_MEMORY_REGION(arena, capacity * slot_bytes);
  (void)munmap(arena, ArenaMapBytes(capacity * slot_bytes));
  std::allocator<Frame>().deallocate(slots, capacity);
}

BufferPool::~BufferPool() {
  // A pinned frame here means a PageGuard outlived the pool — it now holds a
  // dangling frame pointer. Debug builds fail fast at the teardown site.
  assert(PinnedFrames() == 0 && "PageGuard leaked past BufferPool teardown");
  // why: destructor — there is no caller left to surface a flush error to.
  IgnoreStatus(FlushAll());
}

size_t BufferPool::PinnedFrames() const {
  size_t n = 0;
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    sync::MutexLock lock(&s.mu);
    for (uint32_t i = 0; i < s.allocated; ++i) {
      if (s.slots[i].pin_count > 0) ++n;
    }
  }
  return n;
}

size_t BufferPool::resident() const {
  size_t n = 0;
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    sync::MutexLock lock(&s.mu);
    for (const uint32_t i : s.map) n += i != kNoFrame ? 1 : 0;
  }
  return n;
}

IoStats BufferPool::stats() const {
  IoStats sum;
  for (const auto& sp : shards_) sum += sp->io.Snapshot();
  sum.probe_fetches_saved =
      probe_fetches_saved_.load(std::memory_order_relaxed);
  return sum;
}

// LINT:hot-path
Status BufferPool::Fetch(PageId id, PageGuard* out) {
  Shard& s = *shards_[ShardOf(id)];
  const size_t k = MapIndex(id);
  sync::MutexLock lock(&s.mu);
  s.io.AddLogicalRead();
  if (const uint32_t i = Mapped(s, k); i != kNoFrame) {
    Frame* f = &s.slots[i];
    s.io.AddBufferHit();
    Unlink(s, f);
    ++f->pin_count;
    *out = PageGuard(this, f);
    return Status::OK();
  }
  Frame* f = nullptr;
  BOXAGG_RETURN_NOT_OK(GetFreeFrame(s, &f));
  if (Status st = ReadWithRetry(s, id, &f->page); !st.ok()) {
    PushFree(s, f);  // don't leak the frame on a failed read
    return st;
  }
  s.io.AddPhysicalRead();
  f->id = id;
  f->pin_count = 1;
  f->dirty = false;
  MapFrame(s, k, f);
  *out = PageGuard(this, f);
  return Status::OK();
}
// LINT:hot-path-end

// Cold: a New or a miss brought in a page past the end of the map. The
// vector grows geometrically, so a bulk load's ascending ids reallocate it
// O(log n) times. Every reader of this map holds `s.mu`; no other shard
// reads it.
void BufferPool::GrowMap(Shard& s, size_t k) { s.map.resize(k + 1, kNoFrame); }

Status BufferPool::ReadWithRetry(Shard& s, PageId id, Page* page) {
  Status st = file_->ReadPage(id, page);
  for (size_t attempt = 1;
       !st.ok() && st.code() == Status::Code::kIoError &&
       attempt <= kMaxReadRetries;
       ++attempt) {
    s.io.AddReadRetry();
    std::this_thread::sleep_for(std::chrono::microseconds(
        kRetryBackoffUs << (attempt - 1)));
    st = file_->ReadPage(id, page);
  }
  if (!st.ok() && st.code() == Status::Code::kCorruption) {
    s.io.AddChecksumFailure();
  }
  return st;
}

Status BufferPool::New(PageGuard* out) {
  PageId id;
  BOXAGG_RETURN_NOT_OK(file_->Allocate(&id));
  Shard& s = *shards_[ShardOf(id)];
  const size_t k = MapIndex(id);
  sync::MutexLock lock(&s.mu);
  // A freed-then-reused page may still be resident with stale contents.
  Frame* f = nullptr;
  if (const uint32_t i = Mapped(s, k); i != kNoFrame) {
    f = &s.slots[i];
    assert(f->pin_count == 0);
    Unlink(s, f);
  } else {
    BOXAGG_RETURN_NOT_OK(GetFreeFrame(s, &f));
    f->id = id;
    MapFrame(s, k, f);
  }
  f->page.Zero();
  f->pin_count = 1;
  // Must reach disk even if never touched again.
  f->dirty = true;
  *out = PageGuard(this, f);
  return Status::OK();
}

Status BufferPool::Delete(PageId id) {
  Shard& s = *shards_[ShardOf(id)];
  const size_t k = MapIndex(id);
  {
    sync::MutexLock lock(&s.mu);
    if (const uint32_t i = Mapped(s, k); i != kNoFrame) {
      Frame* f = &s.slots[i];
      if (f->pin_count != 0) {
        return Status::InvalidArgument("Delete of pinned page");
      }
      Unlink(s, f);
      s.map[k] = kNoFrame;
      f->id = kInvalidPageId;
      f->dirty = false;
      PushFree(s, f);
    }
  }
  return file_->Free(id);
}

Status BufferPool::FlushAll() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    sync::MutexLock lock(&s.mu);
    for (uint32_t i = 0; i < s.allocated; ++i) {
      Frame& f = s.slots[i];
      // Free frames are never dirty (Delete and EvictOne clear the flag).
      if (f.dirty) {
        BOXAGG_RETURN_NOT_OK(file_->WritePage(f.id, f.page));
        s.io.AddPhysicalWrite();
        f.dirty = false;
      }
    }
  }
  return Status::OK();
}

Status BufferPool::Reset() {
  BOXAGG_RETURN_NOT_OK(FlushAll());
  for (auto& sp : shards_) {
    Shard& s = *sp;
    sync::MutexLock lock(&s.mu);
    for (uint32_t i = 0; i < s.allocated; ++i) {
      if (s.slots[i].pin_count != 0) {
        return Status::InvalidArgument("Reset with pinned pages");
      }
    }
    for (uint32_t i = 0; i < s.allocated; ++i) {
      Frame& f = s.slots[i];
      if (f.id == kInvalidPageId) continue;  // already free
      Unlink(s, &f);
      s.map[MapIndex(f.id)] = kNoFrame;
      f.id = kInvalidPageId;
      PushFree(s, &f);
    }
  }
  return Status::OK();
}

// LINT:hot-path
void BufferPool::Unpin(Frame* f, bool dirty) {
  Shard& s = *shards_[f->shard];
  sync::MutexLock lock(&s.mu);
  assert(f->pin_count > 0);
  if (dirty) f->dirty = true;
  if (--f->pin_count == 0) LinkHot(s, f);
}

void BufferPool::LinkHot(Shard& s, Frame* f) {
  assert(!f->in_lru);
  const auto i = static_cast<uint32_t>(f - s.slots);
  f->prev = s.lru_tail;
  f->next = kNoFrame;
  (s.lru_tail == kNoFrame ? s.lru_head : s.slots[s.lru_tail].next) = i;
  s.lru_tail = i;
  ++s.lru_size;
  f->in_lru = true;
}

void BufferPool::Unlink(Shard& s, Frame* f) {
  if (!f->in_lru) return;
  (f->prev == kNoFrame ? s.lru_head : s.slots[f->prev].next) = f->next;
  (f->next == kNoFrame ? s.lru_tail : s.slots[f->next].prev) = f->prev;
  f->prev = kNoFrame;
  f->next = kNoFrame;
  --s.lru_size;
  f->in_lru = false;
}
// LINT:hot-path-end

Status BufferPool::GetFreeFrame(Shard& s, Frame** out) {
  if (!s.free_frames.empty()) {
    *out = PopFree(s);
    return Status::OK();
  }
  if (s.allocated < s.capacity) {
    const uint32_t i = s.allocated++;
    ASAN_UNPOISON_MEMORY_REGION(s.SlotBytes(i), s.slot_bytes);
    *out = new (&s.slots[i])
        Frame(s.SlotBytes(i), file_->page_size(), s.index);
    return Status::OK();
  }
  BOXAGG_RETURN_NOT_OK(EvictOne(s));
  if (s.free_frames.empty()) {
    return Status::NoSpace("buffer pool exhausted (all pages pinned)");
  }
  *out = PopFree(s);
  return Status::OK();
}

BufferPool::Frame* BufferPool::PopFree(Shard& s) {
  Frame* f = s.free_frames.back();
  s.free_frames.pop_back();
  ASAN_UNPOISON_MEMORY_REGION(s.SlotBytes(static_cast<uint32_t>(f - s.slots)),
                              s.slot_bytes);
  return f;
}

void BufferPool::PushFree(Shard& s, Frame* f) {
  ASAN_POISON_MEMORY_REGION(s.SlotBytes(static_cast<uint32_t>(f - s.slots)),
                            s.slot_bytes);
  s.free_frames.push_back(f);
}

// LINT:hot-path
Status BufferPool::EvictOne(Shard& s) {
  if (s.lru_head == kNoFrame) {
    return Status::NoSpace("buffer pool exhausted (all pages pinned)");
  }
  Frame* f = &s.slots[s.lru_head];
  Unlink(s, f);
  if (f->dirty) {
    if (Status st = file_->WritePage(f->id, f->page); !st.ok()) {
      // Keep the frame resident and evictable so a transient I/O failure
      // does not permanently shrink the pool.
      LinkHot(s, f);
      return st;
    }
    s.io.AddPhysicalWrite();
    // Eviction-path write-back only (FlushAll's writes are not counted
    // here), so evictions >= dirty_writebacks holds at quiescent points.
    s.io.AddDirtyWriteback();
    f->dirty = false;
  }
  s.io.AddEviction();
  s.map[MapIndex(f->id)] = kNoFrame;
  f->id = kInvalidPageId;
  PushFree(s, f);
  return Status::OK();
}
// LINT:hot-path-end

}  // namespace boxagg
