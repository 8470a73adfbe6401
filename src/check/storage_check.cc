// Storage-engine CheckConsistency implementations: the sharded BufferPool's
// frame/LRU/free-list accounting and the PageFile's allocation state.
//
// They live in src/check/ (not storage/) so the storage layer keeps zero
// dependencies on the verification layer beyond a CheckContext forward
// declaration in its headers.

#include <string>
#include <unordered_set>

#include "check/checkable.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace boxagg {

namespace {

Status ShardCorruption(size_t shard, const std::string& what) {
  return Status::Corruption("buffer-pool shard " + std::to_string(shard) +
                            ": " + what);
}

}  // namespace

Status BufferPool::CheckConsistency(CheckContext* ctx) const {
  CheckContext local;
  if (ctx == nullptr) ctx = &local;
  for (size_t si = 0; si < shards_.size(); ++si) {
    const Shard& s = *shards_[si];
    sync::MutexLock lock(&s.mu);

    // Every lazily allocated frame is exactly one of: resident (frame table)
    // or free. A frame in neither is leaked; one in both is double-owned.
    if (s.frames.size() + s.free_frames.size() != s.allocated) {
      return ShardCorruption(
          si, "frame accounting mismatch: " + std::to_string(s.frames.size()) +
                  " resident + " + std::to_string(s.free_frames.size()) +
                  " free != " + std::to_string(s.allocated) + " allocated");
    }
    if (s.allocated > s.capacity) {
      return ShardCorruption(
          si, "allocated " + std::to_string(s.allocated) +
                  " frames, capacity " + std::to_string(s.capacity));
    }

    // Each constructed frame's page borrows exactly its own arena slot:
    // bytes anywhere else escape the arena's huge pages, or alias another
    // frame's page.
    for (uint32_t i = 0; i < s.allocated; ++i) {
      const Page& page = s.slots[i].page;
      if (page.data() != s.SlotBytes(i) || page.size() != file_->page_size()) {
        return ShardCorruption(
            si, "frame " + std::to_string(i) +
                    "'s page bytes do not sit at its arena slot");
      }
    }

    // The frame table holds exactly the resident frames (every allocated
    // frame not on the free list carries a page), at load <= 1/2 so every
    // probe ends at an empty slot.
    size_t resident_frames = 0;
    for (uint32_t i = 0; i < s.allocated; ++i) {
      if (s.slots[i].id != kInvalidPageId) ++resident_frames;
    }
    if (s.frames.size() != resident_frames) {
      return ShardCorruption(
          si, "frame table holds " + std::to_string(s.frames.size()) +
                  " keys but " + std::to_string(resident_frames) +
                  " frames are resident");
    }
    if (2 * s.frames.size() > s.frames.slot_count()) {
      return ShardCorruption(
          si, "frame table load " + std::to_string(s.frames.size()) + "/" +
                  std::to_string(s.frames.slot_count()) + " exceeds 1/2");
    }

    size_t in_lru_frames = 0;
    size_t occupied = 0;
    const size_t slots = s.frames.slot_count();
    for (size_t slot = 0; slot < slots; ++slot) {
      const Frame* f = s.frames.slot(slot).frame;
      if (f == nullptr) continue;
      ++occupied;
      const uint64_t id = s.frames.slot(slot).key;
      if (f->id != id) {
        return CorruptionAt(id, "frame id " + std::to_string(f->id) +
                                    " disagrees with its frame-table key");
      }
      // Linear probing with backward-shift erase: the run from the key's
      // home slot up to its slot is fully occupied, or Find stops early.
      for (size_t i = s.frames.Home(id); i != slot; i = (i + 1) % slots) {
        if (s.frames.slot(i).frame == nullptr) {
          return CorruptionAt(id, "frame-table key unreachable: empty slot " +
                                      std::to_string(i) +
                                      " between its home slot and slot " +
                                      std::to_string(slot));
        }
      }
      if (ShardOf(id) != si || f->shard != si) {
        return CorruptionAt(id, "page resident in shard " +
                                    std::to_string(si) +
                                    " but hashes to shard " +
                                    std::to_string(ShardOf(id)));
      }
      const int pins = f->pin_count;
      if (pins < 0) {
        return CorruptionAt(id,
                            "negative pin count " + std::to_string(pins));
      }
      if (ctx->expect_unpinned && pins > 0) {
        return CorruptionAt(id, "still pinned (" + std::to_string(pins) +
                                    " pins) at a quiescent point — leaked "
                                    "PageGuard");
      }
      // Unpin re-links a frame into the LRU the moment its last pin drops,
      // and Fetch/New unlink before pinning, so residency splits exactly:
      // pinned <=> off-LRU.
      if (f->in_lru != (pins == 0)) {
        return CorruptionAt(
            id, f->in_lru ? "in LRU while pinned (evictable under a guard)"
                          : "unpinned but not in LRU (never evictable)");
      }
      if (f->in_lru) ++in_lru_frames;
    }
    if (occupied != s.frames.size()) {
      return ShardCorruption(
          si, "frame table counts " + std::to_string(s.frames.size()) +
                  " keys but " + std::to_string(occupied) +
                  " slots are occupied");
    }

    // Walk the index-linked LRU from the cold end: every link in range,
    // every prev pointing back, no cycle, and the walk ends at the tail
    // after exactly lru_size frames, all of them resident and unpinned.
    uint32_t walked = 0;
    uint32_t prev = kNoFrame;
    for (uint32_t i = s.lru_head; i != kNoFrame; i = s.slots[i].next) {
      if (i >= s.allocated) {
        return ShardCorruption(si, "LRU link " + std::to_string(i) +
                                       " out of range (" +
                                       std::to_string(s.allocated) +
                                       " frames allocated)");
      }
      if (++walked > s.allocated) {
        return ShardCorruption(si, "LRU links form a cycle");
      }
      const Frame& f = s.slots[i];
      if (f.prev != prev) {
        return CorruptionAt(f.id, "LRU prev link " + std::to_string(f.prev) +
                                      " does not point back at frame " +
                                      std::to_string(prev));
      }
      if (!f.in_lru) {
        return CorruptionAt(f.id, "linked into the LRU but in_lru unset");
      }
      if (s.frames.Find(f.id) != &f) {
        return ShardCorruption(si, "LRU frame for page " +
                                       std::to_string(f.id) +
                                       " is not in the frame table");
      }
      prev = i;
    }
    if (prev != s.lru_tail) {
      return ShardCorruption(si, "LRU tail " + std::to_string(s.lru_tail) +
                                     " is not the last linked frame " +
                                     std::to_string(prev));
    }
    if (walked != s.lru_size || walked != in_lru_frames) {
      return ShardCorruption(
          si, "LRU links reach " + std::to_string(walked) +
                  " frames, its length is " + std::to_string(s.lru_size) +
                  ", and " + std::to_string(in_lru_frames) +
                  " resident frames claim membership");
    }

    for (const Frame* f : s.free_frames) {
      if (f == nullptr) return ShardCorruption(si, "null frame in free list");
      if (f->id != kInvalidPageId) {
        return ShardCorruption(si, "free frame still carries page " +
                                       std::to_string(f->id));
      }
      if (f->pin_count != 0) {
        return ShardCorruption(si, "free frame has a non-zero pin count");
      }
      if (f->in_lru) {
        return ShardCorruption(si, "free frame still linked into the LRU");
      }
    }
  }
  return Status::OK();
}

Status PageFile::CheckConsistency(CheckContext* ctx) const {
  (void)ctx;  // allocation state is global, not part of the page graph
  if (free_list_.size() > page_count_) {
    return Status::Corruption(
        "page-file free list holds " + std::to_string(free_list_.size()) +
        " pages but only " + std::to_string(page_count_) +
        " were ever allocated");
  }
  std::unordered_set<PageId> seen;
  seen.reserve(free_list_.size());
  for (PageId id : free_list_) {
    if (id >= page_count_) {
      return CorruptionAt(id, "on the free list but beyond the end of the "
                              "file (page_count " +
                                  std::to_string(page_count_) + ")");
    }
    if (!seen.insert(id).second) {
      return CorruptionAt(id, "freed twice (duplicate free-list entry)");
    }
  }
  return Status::OK();
}

}  // namespace boxagg
