// BufferPool: fixed-capacity LRU page cache over a PageFile, with pin counts
// and the I/O statistics that every experiment in the paper is measured on.
//
// The paper's setup (Sec. 6): 8 KB pages, 10 MB LRU buffer. A query's cost is
// the number of buffer misses (physical reads) plus dirty-page write-backs it
// causes.
//
// Concurrency: the pool is sharded. Frames are partitioned into `shards`
// independent sub-pools by PageId modulo the shard count; each shard has
// its own mutex, page map (a dense array from PageId / shards to frame),
// frame array with an index-linked LRU, free list, frame arena (the page
// bytes, one huge-page-advised mapping) and I/O counters, so concurrent
// readers on different shards never contend. With shards == 1 (the default) the pool performs
// exactly the seed implementation's operation sequence — one LRU, one
// eviction order — so single-threaded paper-fidelity I/O counts are
// bit-identical. Fetch is safe from any number of threads; New/Delete
// mutate the PageFile's allocation state and must not run concurrently with
// other pool calls (writes/inserts remain single-threaded, see DESIGN.md
// "Concurrency model").

#ifndef BOXAGG_STORAGE_BUFFER_POOL_H_
#define BOXAGG_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cassert>
#include <memory>
#include <span>
#include <vector>

#include "core/sync.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/status.h"

namespace boxagg {

class PageGuard;
struct CheckContext;

/// \brief Sharded LRU buffer manager.
///
/// Frames hold pages; a frame with pin_count > 0 is never evicted. Eviction
/// order within a shard is least-recently-unpinned first. All page access by
/// index code goes through Fetch/New, returning pinned PageGuard handles.
class BufferPool {
 public:
  /// \param file     backing store (not owned)
  /// \param capacity maximum number of resident pages across all shards
  ///                 (>= max simultaneous pins of any operation; indexes pin
  ///                 O(depth) pages)
  /// \param shards   number of independently locked sub-pools; 1 reproduces
  ///                 the exact global LRU of the single-threaded seed
  BufferPool(PageFile* file, size_t capacity, size_t shards = 1);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from the file on a miss. Thread-safe.
  Status Fetch(PageId id, PageGuard* out);

  /// Records `n` page fetches avoided by a batched multi-probe descent (a
  /// node fetched once for a group of k probes saves k-1 per-probe
  /// fetches); surfaces as stats().probe_fetches_saved. Thread-safe.
  void NoteProbeFetchesSaved(uint64_t n) {
    probe_fetches_saved_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Allocates a fresh page in the file, pins it zero-filled and dirty.
  /// Not safe concurrently with any other pool call.
  Status New(PageGuard* out);

  /// Drops page `id` from the pool (must be unpinned) and frees it in the
  /// file. Dirty contents are discarded — the page is dead. Not safe
  /// concurrently with any other pool call.
  Status Delete(PageId id);

  /// Writes back all dirty pages (counted as physical writes).
  Status FlushAll();

  /// Writes back and evicts everything; the pool becomes empty.
  Status Reset();

  /// Plain-POD snapshot of the I/O counters: the shards' counters summed
  /// (relaxed-atomic reads).
  [[nodiscard]] IoStats stats() const;

  PageFile* file() { return file_; }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] size_t resident() const;

  /// The frame arena of shard `shard`: every page the shard buffers lives
  /// at a fixed, Page::kAlign-aligned slot inside this byte range.
  [[nodiscard]] std::span<const uint8_t> FrameArena(size_t shard) const {
    const Shard& s = *shards_[shard];
    return {s.arena, s.capacity * s.slot_bytes};
  }

  /// Number of frames with a non-zero pin count across all shards. Zero at
  /// every quiescent point — a non-zero value there is a leaked PageGuard.
  [[nodiscard]] size_t PinnedFrames() const;

  /// Audits the pool's internal accounting shard by shard: every page-map
  /// entry points at an allocated frame holding the page of that entry's
  /// PageId, every resident frame is mapped, LRU membership mirrors the
  /// in_lru flags and holds exactly the unpinned resident frames, free
  /// frames carry no page, every constructed frame's page bytes sit at its
  /// own arena slot, and no shard exceeds its capacity. With
  /// ctx->expect_unpinned set, any pinned frame is reported as a leak.
  /// Implemented in src/check/storage_check.cc.
  Status CheckConsistency(CheckContext* ctx = nullptr) const;

  /// Pool sized to `mb` megabytes of `page_size`-byte pages (paper: 10 MB).
  static size_t CapacityForMegabytes(size_t mb, uint32_t page_size) {
    return (mb * 1024 * 1024) / page_size;
  }

 private:
  friend class PageGuard;
  friend struct BufferPoolTestPeer;  // white-box corruption in tests

  // "No frame" in the LRU links, at the ends of an empty LRU and in the
  // page map's entries for pages not resident.
  static constexpr uint32_t kNoFrame = ~uint32_t{0};

  struct Frame {
    Frame(uint8_t* bytes, uint32_t page_size, uint32_t shard_idx)
        : page(bytes, page_size), shard(shard_idx) {}
    Page page;  // borrows the frame's slot of its shard's arena
    PageId id = kInvalidPageId;
    // Pin state: read and written only under the owning shard's mutex.
    int pin_count = 0;
    bool dirty = false;
    // Exact-LRU links while in_lru: indices of the colder (prev) and hotter
    // (next) neighbours in the owning shard's frame array. A pinned or free
    // frame is unlinked.
    uint32_t prev = kNoFrame;
    uint32_t next = kNoFrame;
    bool in_lru = false;
    const uint32_t shard;  // owning shard; frames never migrate
  };

  struct Shard {
    Shard(size_t capacity, uint32_t index, uint32_t page_size,
          size_t map_size);
    ~Shard();
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    /// Page bytes of frame `i`: its fixed slot in the arena.
    [[nodiscard]] uint8_t* SlotBytes(uint32_t i) const {
      return arena + i * slot_bytes;
    }

    mutable sync::Mutex mu{"bufferpool.shard",
                           sync::lock_rank::kBufferPoolShard};
    // The page map: entry k holds the index in `slots` of the frame that
    // buffers page k * shards + index, or kNoFrame. Sized from the file's
    // page count with the pool and grown (GrowMap) only under `mu`.
    std::vector<uint32_t> map GUARDED_BY(mu);
    // This shard's I/O counters, written only under `mu`.
    AtomicIoStats io;
    // One contiguous array of `capacity` frame slots, allocated with the
    // pool. Frames [0, allocated) are constructed, in order, on first use.
    Frame* const slots;
    uint32_t allocated GUARDED_BY(mu) = 0;
    // The exact LRU of the unpinned resident frames, linked through
    // Frame::prev/next: head = coldest (evict first), tail = hottest.
    uint32_t lru_head GUARDED_BY(mu) = kNoFrame;
    uint32_t lru_tail GUARDED_BY(mu) = kNoFrame;
    uint32_t lru_size GUARDED_BY(mu) = 0;
    std::vector<Frame*> free_frames GUARDED_BY(mu);
    const size_t capacity;
    const uint32_t index;  // position in shards_, stamped into new Frames
    // Stride between frames in the arena: the page size rounded up to
    // Page::kAlign (equal to it for every power-of-two page size >= 64).
    const size_t slot_bytes;
    // The frame arena: one anonymous mapping of capacity * slot_bytes
    // bytes, 2 MiB aligned and advised for transparent huge pages, so a
    // warm pool's pages sit on few TLB entries. Reserved with the shard;
    // a slot is faulted in the first time its frame is used.
    uint8_t* const arena;
  };

  // Shard `s` owns the PageIds congruent to s modulo the shard count, and
  // keeps page `id` at entry MapIndex(id) of its page map. One shard maps
  // every id to itself, with no division.
  size_t ShardOf(PageId id) const {
    const size_t n = shards_.size();
    return n == 1 ? 0 : static_cast<size_t>(id % n);
  }
  size_t MapIndex(PageId id) const {
    const size_t n = shards_.size();
    return static_cast<size_t>(n == 1 ? id : id / n);
  }

  /// The frame index at entry `k` of shard `s`'s page map; kNoFrame past
  /// its end.
  static uint32_t Mapped(const Shard& s, size_t k) REQUIRES(s.mu) {
    return k < s.map.size() ? s.map[k] : kNoFrame;
  }
  /// Points entry `k` of shard `s`'s page map at frame `f`, growing the map
  /// first when `k` lies past its end.
  static void MapFrame(Shard& s, size_t k, const Frame* f) REQUIRES(s.mu) {
    if (k >= s.map.size()) GrowMap(s, k);
    s.map[k] = static_cast<uint32_t>(f - s.slots);
  }
  static void GrowMap(Shard& s, size_t k) REQUIRES(s.mu);

  void Unpin(Frame* f, bool dirty);
  Status GetFreeFrame(Shard& s, Frame** out) REQUIRES(s.mu);
  static Frame* PopFree(Shard& s) REQUIRES(s.mu);
  static void PushFree(Shard& s, Frame* f) REQUIRES(s.mu);
  Status EvictOne(Shard& s) REQUIRES(s.mu);
  static void LinkHot(Shard& s, Frame* f) REQUIRES(s.mu);
  static void Unlink(Shard& s, Frame* f) REQUIRES(s.mu);

  /// ReadPage with bounded retry on kIoError and checksum-failure
  /// accounting on kCorruption; called under the owning shard's lock. An
  /// I/O error is treated as possibly transient (a flaky device, an
  /// injected fault) and retried with exponential backoff a fixed number of
  /// times before it surfaces. kCorruption is never retried — a failed
  /// checksum is deterministic — and is counted in stats().checksum_failures.
  Status ReadWithRetry(Shard& s, PageId id, Page* page) REQUIRES(s.mu);

  PageFile* file_;
  size_t capacity_;
  // The one pool-wide counter: it is noted outside any shard lock. Every
  // other I/O counter lives in its shard.
  std::atomic<uint64_t> probe_fetches_saved_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// \brief RAII pin on a buffered page.
///
/// While a PageGuard is live its page cannot be evicted. Call MarkDirty()
/// after mutating the page. Guards are movable, not copyable.
class PageGuard {
 public:
  PageGuard() = default;
  ~PageGuard() { Release(); }

  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      frame_ = o.frame_;
      dirty_ = o.dirty_;
      o.pool_ = nullptr;
      o.frame_ = nullptr;
      o.dirty_ = false;
    }
    return *this;
  }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  [[nodiscard]] bool valid() const { return frame_ != nullptr; }
  [[nodiscard]] PageId id() const {
    assert(frame_);
    return frame_->id;
  }
  Page* page() {
    assert(frame_);
    return &frame_->page;
  }
  const Page* page() const {
    assert(frame_);
    return &frame_->page;
  }

  /// Records that the page contents changed; it will be written back before
  /// eviction.
  void MarkDirty() { dirty_ = true; }

  /// Unpins early (also done by the destructor).
  void Release() {
    if (pool_ && frame_) {
      pool_->Unpin(frame_, dirty_);
    }
    pool_ = nullptr;
    frame_ = nullptr;
    dirty_ = false;
  }

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, BufferPool::Frame* frame)
      : pool_(pool), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  BufferPool::Frame* frame_ = nullptr;
  bool dirty_ = false;
};

}  // namespace boxagg

#endif  // BOXAGG_STORAGE_BUFFER_POOL_H_
