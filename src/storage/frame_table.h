// FrameTable: a buffer-pool shard's page table — a fixed-capacity
// open-addressing hash map from a 64-bit frame key (a PageId) to the frame
// that holds it.
//
// Layout: a power-of-two array of 16-byte slots {key, frame}; a null frame
// marks an empty slot. The slot count is fixed at construction to at least
// twice the number of entries the owner will ever insert (the shard's frame
// capacity), so the load stays <= 1/2, a probe always ends at an empty slot,
// and the table never grows or allocates after construction. Lookups probe
// linearly from a multiply-shift home slot; Erase closes the hole by
// backward shift, so there are no tombstones and every key stays reachable
// from its home slot without crossing an empty one.
//
// Not thread-safe: the owning shard's mutex guards every call.

#ifndef BOXAGG_STORAGE_FRAME_TABLE_H_
#define BOXAGG_STORAGE_FRAME_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace boxagg {

template <typename Frame>
class FrameTable {
 public:
  struct Slot {
    uint64_t key = 0;
    Frame* frame = nullptr;  // nullptr: empty slot
  };

  FrameTable() : FrameTable(1) {}

  /// A table for at most `capacity` entries: 2 * capacity slots rounded up
  /// to a power of two.
  explicit FrameTable(size_t capacity) {
    size_t slots = 2;
    shift_ = 63;
    while (slots < 2 * capacity) {
      slots <<= 1;
      --shift_;
    }
    mask_ = slots - 1;
    capacity_ = capacity;
    slots_.resize(slots);
  }

  // LINT:hot-path
  /// The frame stored under `key`, or nullptr.
  Frame* Find(uint64_t key) const {
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.frame == nullptr) return nullptr;
      if (s.key == key) return s.frame;
    }
  }

  /// Stores `frame` under `key`, which must be absent; the table must hold
  /// fewer than capacity() entries.
  void Insert(uint64_t key, Frame* frame) {
    assert(frame != nullptr);
    assert(size_ < capacity_ && "FrameTable over capacity");
    size_t i = Home(key);
    for (; slots_[i].frame != nullptr; i = (i + 1) & mask_) {
      assert(slots_[i].key != key && "FrameTable key already present");
    }
    slots_[i].key = key;
    slots_[i].frame = frame;
    ++size_;
  }

  /// Removes `key`; false if it was absent.
  bool Erase(uint64_t key) {
    size_t hole = Home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].frame == nullptr) return false;
      if (slots_[hole].key == key) break;
    }
    // Backward shift: walk the rest of the cluster and move back every
    // entry whose home does not lie cyclically in (hole, j] — it was
    // probed past the hole and would become unreachable.
    for (size_t j = (hole + 1) & mask_; slots_[j].frame != nullptr;
         j = (j + 1) & mask_) {
      const size_t home = Home(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// The slot where a probe for `key` starts (multiply-shift hash).
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  // LINT:hot-path-end

  /// Empties every slot.
  void Clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  size_t slot_count() const { return mask_ + 1; }
  const Slot& slot(size_t i) const { return slots_[i]; }

 private:
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 63;  // 64 - log2(slot_count)
  size_t capacity_ = 0;
  size_t size_ = 0;
};

}  // namespace boxagg

#endif  // BOXAGG_STORAGE_FRAME_TABLE_H_
