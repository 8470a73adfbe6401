// Storage-engine CheckConsistency implementations: the sharded BufferPool's
// page-map/LRU/free-list accounting and the PageFile's allocation state.
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

    if (s.allocated > s.capacity) {
      return ShardCorruption(
          si, "allocated " + std::to_string(s.allocated) +
                  " frames, capacity " + std::to_string(s.capacity));
    }
    // Every lazily allocated frame is exactly one of: resident (it carries
    // a page) or free. A frame in neither is leaked; one in both is
    // double-owned.
    size_t resident_frames = 0;
    for (uint32_t i = 0; i < s.allocated; ++i) {
      if (s.slots[i].id != kInvalidPageId) ++resident_frames;
    }
    if (resident_frames + s.free_frames.size() != s.allocated) {
      return ShardCorruption(
          si, "frame accounting mismatch: " + std::to_string(resident_frames) +
                  " resident + " + std::to_string(s.free_frames.size()) +
                  " free != " + std::to_string(s.allocated) + " allocated");
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

    // The page map holds exactly the resident frames: entry k points at an
    // allocated frame whose page is the k-th id this shard owns.
    size_t mapped = 0;
    for (size_t k = 0; k < s.map.size(); ++k) {
      const uint32_t i = s.map[k];
      if (i == kNoFrame) continue;
      ++mapped;
      if (i >= s.allocated) {
        return ShardCorruption(si, "page-map entry " + std::to_string(k) +
                                       " points at frame " + std::to_string(i) +
                                       ", past the " +
                                       std::to_string(s.allocated) +
                                       " allocated");
      }
      const PageId id = s.slots[i].id;
      if (id == kInvalidPageId || MapIndex(id) != k || ShardOf(id) != si) {
        return ShardCorruption(
            si, "page-map entry " + std::to_string(k) + " points at frame " +
                    std::to_string(i) + ", which holds " +
                    (id == kInvalidPageId ? std::string("no page")
                                          : "page " + std::to_string(id)));
      }
    }
    if (mapped != resident_frames) {
      return ShardCorruption(
          si, "page map holds " + std::to_string(mapped) + " entries but " +
                  std::to_string(resident_frames) + " frames are resident");
    }

    size_t in_lru_frames = 0;
    for (uint32_t i = 0; i < s.allocated; ++i) {
      const Frame* f = &s.slots[i];
      const PageId id = f->id;
      if (id == kInvalidPageId) continue;
      // Fetch finds a page only through its map entry.
      if (Mapped(s, MapIndex(id)) != i) {
        return CorruptionAt(id, "resident in frame " + std::to_string(i) +
                                    " of shard " + std::to_string(si) +
                                    " but not mapped to it");
      }
      if (f->shard != si) {
        return CorruptionAt(id, "page resident in shard " +
                                    std::to_string(si) +
                                    " but its frame names shard " +
                                    std::to_string(f->shard));
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
      if (f.id == kInvalidPageId || ShardOf(f.id) != si ||
          Mapped(s, MapIndex(f.id)) != i) {
        return ShardCorruption(si, "LRU frame for page " +
                                       std::to_string(f.id) +
                                       " is not in the page map");
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
