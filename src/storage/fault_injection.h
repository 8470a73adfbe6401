// FaultInjectingPageFile: a deterministic, in-memory storage backend that
// misbehaves on demand — the substrate for every crash-safety and
// corruption-detection test in the repo (and for tools/crash_torture).
//
// The store keeps two images of every page slot:
//   durable:  what has survived the last Sync() — the simulated platter.
//   pending:  writes since the last Sync() — the simulated OS page cache.
// ReadPage sees pending-over-durable (like a process reading through the
// page cache). Sync() promotes all pending writes to durable. Crash()
// models power loss: each pending write independently either vanishes, is
// fully applied, or is applied *torn* (only a prefix of the slot reaches
// the platter), chosen by a seeded RNG so every run is reproducible. After
// a crash the store is "offline" (every call fails with kIoError) until
// Reopen(), which models restarting the process over whatever the platter
// holds.
//
// Scheduled faults (all 1-based and deterministic):
//   ScheduleReadError(n, times)  - the n-th subsequent ReadPage fails with
//                                  kIoError, as do the times-1 after it
//                                  (transient-error shape: the buffer
//                                  pool's retry loop can outlast it).
//   ScheduleWriteError(n)        - the n-th subsequent WritePage fails.
//   ScheduleTornWrite(n, prefix) - the n-th subsequent WritePage is marked
//                                  torn: if a crash hits before the next
//                                  Sync, only `prefix` bytes (0 = random)
//                                  of its slot persist.
//   ScheduleCrashAtIo(n)         - the n-th subsequent I/O (reads + writes
//                                  + syncs) triggers Crash() and fails.
// Direct corruption (post-Sync, for checksum tests):
//   FlipBit(id, bit)             - flips one bit in the durable slot.
//   ZeroDurablePage(id)          - simulates a lost write: the slot reverts
//                                  to never-written zeros.
//
// All methods are thread-safe behind one internal mutex, so concurrent
// readers through a sharded BufferPool can share one store.

#ifndef BOXAGG_STORAGE_FAULT_INJECTION_H_
#define BOXAGG_STORAGE_FAULT_INJECTION_H_

#include <map>
#include <vector>

#include "storage/page_file.h"

namespace boxagg {

class FaultInjectingPageFile : public PageFile {
 public:
  explicit FaultInjectingPageFile(uint32_t page_size = kDefaultPageSize,
                                  uint64_t seed = 1);

  // -- PageFile interface ---------------------------------------------------
  Status ReadPageEx(PageId id, Page* page, uint64_t* epoch_out) override;
  Status WritePage(PageId id, const Page& page) override;
  Status Sync() override;

  // -- fault scheduling -----------------------------------------------------
  void ScheduleReadError(uint64_t nth, uint64_t times = 1);
  void ScheduleWriteError(uint64_t nth);
  void ScheduleTornWrite(uint64_t nth, uint32_t prefix_bytes = 0);
  void ScheduleCrashAtIo(uint64_t nth);

  /// Power loss now: resolves pending writes (drop / apply / tear) and
  /// takes the store offline until Reopen().
  void Crash();

  /// Process restart over the durable image: clears the offline flag, all
  /// schedules, and the in-memory free list (recovery rebuilds it via
  /// SetFreeList). Extends survive a crash (file-size metadata), so
  /// page_count() is unchanged.
  void Reopen();

  // -- direct durable-image corruption --------------------------------------
  void FlipBit(PageId id, uint64_t bit_index);
  void ZeroDurablePage(PageId id);

  // -- introspection --------------------------------------------------------
  [[nodiscard]] bool crashed() const;
  [[nodiscard]] uint64_t io_count() const;
  [[nodiscard]] uint64_t read_count() const;
  [[nodiscard]] uint64_t write_count() const;
  /// Pages with pending (unsynced) writes.
  [[nodiscard]] size_t pending_writes() const;

 protected:
  Status Extend(uint64_t new_count) override;

 private:
  struct Pending {
    std::vector<uint8_t> slot;
    bool force_torn = false;
    uint32_t torn_prefix = 0;  // 0 = pick randomly at crash time
  };

  /// Counts the I/O, fires a scheduled crash, and reports offline state.
  Status EnterIo() REQUIRES(mu_);
  void CrashLocked() REQUIRES(mu_);
  uint64_t NextRandom() REQUIRES(mu_);

  mutable sync::Mutex mu_{"faultfile.slots", sync::lock_rank::kPageStore};

  // empty slot = never written
  std::vector<std::vector<uint8_t>> durable_ GUARDED_BY(mu_);
  // ordered for determinism
  std::map<PageId, Pending> pending_ GUARDED_BY(mu_);

  uint64_t rng_state_ GUARDED_BY(mu_);
  bool crashed_ GUARDED_BY(mu_) = false;
  uint64_t io_count_ GUARDED_BY(mu_) = 0;
  uint64_t read_count_ GUARDED_BY(mu_) = 0;
  uint64_t write_count_ GUARDED_BY(mu_) = 0;

  // absolute read_count_ value; 0 = none
  uint64_t read_error_at_ GUARDED_BY(mu_) = 0;
  uint64_t read_error_left_ GUARDED_BY(mu_) = 0;
  uint64_t write_error_at_ GUARDED_BY(mu_) = 0;
  uint64_t torn_write_at_ GUARDED_BY(mu_) = 0;
  uint32_t torn_prefix_ GUARDED_BY(mu_) = 0;
  uint64_t crash_at_io_ GUARDED_BY(mu_) = 0;
};

}  // namespace boxagg

#endif  // BOXAGG_STORAGE_FAULT_INJECTION_H_
