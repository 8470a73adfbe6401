#include "storage/fault_injection.h"

#include <cassert>
#include <cstring>

namespace boxagg {

FaultInjectingPageFile::FaultInjectingPageFile(uint32_t page_size,
                                               uint64_t seed)
    : PageFile(page_size), rng_state_(seed) {}

uint64_t FaultInjectingPageFile::NextRandom() {
  // splitmix64: tiny, seedable, and plenty for fault-shape decisions.
  uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Status FaultInjectingPageFile::EnterIo() {
  ++io_count_;
  if (crash_at_io_ != 0 && io_count_ >= crash_at_io_ && !crashed_) {
    CrashLocked();
  }
  if (crashed_) {
    return Status::IoError("simulated crash: store offline until Reopen()");
  }
  return Status::OK();
}

Status FaultInjectingPageFile::Extend(uint64_t new_count) {
  sync::MutexLock lock(&mu_);
  if (crashed_) {
    return Status::IoError("simulated crash: store offline until Reopen()");
  }
  // Growth is file-size metadata; model it as immediately durable (like a
  // journaled ftruncate). New slots read as never-written zeros.
  durable_.resize(new_count);
  return Status::OK();
}

Status FaultInjectingPageFile::ReadPageEx(PageId id, Page* page,
                                          uint64_t* epoch_out) {
  sync::MutexLock lock(&mu_);
  BOXAGG_RETURN_NOT_OK(EnterIo());
  ++read_count_;
  if (read_error_at_ != 0 && read_count_ >= read_error_at_ &&
      read_error_left_ > 0) {
    --read_error_left_;
    return Status::IoError("injected transient read error");
  }
  if (id >= durable_.size()) return Status::NotFound("page id out of range");
  const auto pending = pending_.find(id);
  const std::vector<uint8_t>& slot =
      pending != pending_.end() ? pending->second.slot : durable_[id];
  if (slot.empty()) {
    page->Zero();
    if (epoch_out != nullptr) *epoch_out = 0;
    return Status::OK();
  }
  return DecodePageSlot(slot.data(), page_size_, id, page->data(), epoch_out);
}

Status FaultInjectingPageFile::WritePage(PageId id, const Page& page) {
  sync::MutexLock lock(&mu_);
  BOXAGG_RETURN_NOT_OK(EnterIo());
  ++write_count_;
  if (write_error_at_ != 0 && write_count_ == write_error_at_) {
    return Status::IoError("injected write error");
  }
  if (id >= durable_.size()) return Status::NotFound("page id out of range");
  Pending& p = pending_[id];
  p.slot.resize(slot_size());
  EncodePageSlot(p.slot.data(), page_size_, id, write_epoch_, page.data());
  if (torn_write_at_ != 0 && write_count_ == torn_write_at_) {
    p.force_torn = true;
    p.torn_prefix = torn_prefix_;
  }
  return Status::OK();
}

Status FaultInjectingPageFile::Sync() {
  sync::MutexLock lock(&mu_);
  BOXAGG_RETURN_NOT_OK(EnterIo());
  for (auto& [id, p] : pending_) {
    durable_[id] = std::move(p.slot);
  }
  pending_.clear();
  return Status::OK();
}

void FaultInjectingPageFile::Crash() {
  sync::MutexLock lock(&mu_);
  CrashLocked();
}

void FaultInjectingPageFile::CrashLocked() {
  // Each unsynced write independently vanishes, lands whole, or lands
  // torn — exactly the set of outcomes a real kernel page cache admits.
  // Shadow-paged commits must tolerate any combination, because every
  // Sync() barrier in the protocol empties this pending set first.
  for (auto& [id, p] : pending_) {
    const uint64_t dice = NextRandom() % 10;
    const bool torn = p.force_torn || dice >= 8;  // 2/10 torn
    const bool apply = torn || dice >= 5;         // +3/10 whole
    if (!apply) continue;                         // 5/10 vanish
    if (torn) {
      uint32_t prefix = p.torn_prefix;
      const uint32_t slot_bytes = static_cast<uint32_t>(slot_size());
      if (prefix == 0 || prefix >= slot_bytes) {
        prefix = 1 + static_cast<uint32_t>(NextRandom() % (slot_bytes - 1));
      }
      std::vector<uint8_t>& dst = durable_[id];
      dst.resize(slot_size(), 0);
      std::memcpy(dst.data(), p.slot.data(), prefix);
    } else {
      durable_[id] = std::move(p.slot);
    }
  }
  pending_.clear();
  crashed_ = true;
}

void FaultInjectingPageFile::Reopen() {
  sync::MutexLock lock(&mu_);
  assert(pending_.empty() && "Reopen with pending writes; call Crash first");
  crashed_ = false;
  free_list_.clear();
  read_error_at_ = read_error_left_ = 0;
  write_error_at_ = 0;
  torn_write_at_ = 0;
  torn_prefix_ = 0;
  crash_at_io_ = 0;
}

void FaultInjectingPageFile::ScheduleReadError(uint64_t nth, uint64_t times) {
  sync::MutexLock lock(&mu_);
  read_error_at_ = read_count_ + nth;
  read_error_left_ = times;
}

void FaultInjectingPageFile::ScheduleWriteError(uint64_t nth) {
  sync::MutexLock lock(&mu_);
  write_error_at_ = write_count_ + nth;
}

void FaultInjectingPageFile::ScheduleTornWrite(uint64_t nth,
                                               uint32_t prefix_bytes) {
  sync::MutexLock lock(&mu_);
  torn_write_at_ = write_count_ + nth;
  torn_prefix_ = prefix_bytes;
}

void FaultInjectingPageFile::ScheduleCrashAtIo(uint64_t nth) {
  sync::MutexLock lock(&mu_);
  crash_at_io_ = io_count_ + nth;
}

void FaultInjectingPageFile::FlipBit(PageId id, uint64_t bit_index) {
  sync::MutexLock lock(&mu_);
  assert(id < durable_.size() && !durable_[id].empty() &&
         "FlipBit targets a written durable page");
  std::vector<uint8_t>& slot = durable_[id];
  slot[(bit_index / 8) % slot.size()] ^=
      static_cast<uint8_t>(1u << (bit_index % 8));
}

void FaultInjectingPageFile::ZeroDurablePage(PageId id) {
  sync::MutexLock lock(&mu_);
  assert(id < durable_.size());
  durable_[id].clear();  // reverts to never-written
}

bool FaultInjectingPageFile::crashed() const {
  sync::MutexLock lock(&mu_);
  return crashed_;
}

uint64_t FaultInjectingPageFile::io_count() const {
  sync::MutexLock lock(&mu_);
  return io_count_;
}

uint64_t FaultInjectingPageFile::read_count() const {
  sync::MutexLock lock(&mu_);
  return read_count_;
}

uint64_t FaultInjectingPageFile::write_count() const {
  sync::MutexLock lock(&mu_);
  return write_count_;
}

size_t FaultInjectingPageFile::pending_writes() const {
  sync::MutexLock lock(&mu_);
  return pending_.size();
}

}  // namespace boxagg
