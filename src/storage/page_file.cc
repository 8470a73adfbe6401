#include "storage/page_file.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <unordered_set>

namespace boxagg {

namespace {

// Per-thread scratch for one encoded slot to write: FilePageFile serves
// concurrent callers, so the staging buffer cannot be a shared member.
std::vector<uint8_t>& SlotScratch(size_t n) {
  thread_local std::vector<uint8_t> buf;
  if (buf.size() < n) buf.resize(n);
  return buf;
}

// preadv/pwrite transfer as much as the kernel feels like; a short
// transfer on a regular file is rare but legal (signals, quotas, files
// ending mid-slot). Loop until the full range moved or a hard error: a
// silently short page write is an undetectable half-page of garbage.

// Reads the slot at `off`: its header into `header` (kPageHeaderSize bytes)
// and its payload straight into `payload` (page_size bytes), one preadv
// per transfer. *got < kPageHeaderSize + page_size at end of file.
Status FullPreadSlot(int fd, uint8_t* header, uint8_t* payload,
                     size_t page_size, off_t off, size_t* got) {
  const size_t n = kPageHeaderSize + page_size;
  size_t done = 0;
  while (done < n) {
    iovec iov[2];
    int parts = 0;
    if (done < kPageHeaderSize) {
      iov[parts++] = {header + done, kPageHeaderSize - done};
      iov[parts++] = {payload, page_size};
    } else {
      iov[parts++] = {payload + (done - kPageHeaderSize), n - done};
    }
    ssize_t r = ::preadv(fd, iov, parts, off + static_cast<off_t>(done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("preadv: " + std::string(std::strerror(errno)));
    }
    if (r == 0) break;  // EOF: caller zero-fills the tail
    done += static_cast<size_t>(r);
  }
  *got = done;
  return Status::OK();
}

Status FullPwrite(int fd, const uint8_t* buf, size_t n, off_t off) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pwrite(fd, buf + done, n - done,
                         off + static_cast<off_t>(done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("pwrite: " + std::string(std::strerror(errno)));
    }
    if (r == 0) {
      return Status::IoError("pwrite: zero-byte transfer (no space?)");
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status PageFile::Allocate(PageId* out) {
  if (!free_list_.empty()) {
    *out = free_list_.back();
    free_list_.pop_back();
    return Status::OK();
  }
  BOXAGG_RETURN_NOT_OK(Extend(page_count_ + 1));
  *out = page_count_;
  ++page_count_;
  return Status::OK();
}

Status PageFile::Free(PageId id) {
  if (id >= page_count_) {
    return Status::InvalidArgument("Free of unallocated page");
  }
  free_list_.push_back(id);
  return Status::OK();
}

void PageFile::SetFreeList(std::vector<PageId> free_ids) {
#ifndef NDEBUG
  std::unordered_set<PageId> seen;
  for (PageId id : free_ids) {
    assert(id < page_count_ && "SetFreeList id beyond page_count");
    assert(seen.insert(id).second && "SetFreeList duplicate id");
  }
#endif
  free_list_ = std::move(free_ids);
}

// ---------------------------------------------------------------------------
// MemPageFile

Status MemPageFile::Extend(uint64_t new_count) {
  sync::MutexLock lock(&mu_);
  slots_.resize(new_count);
  return Status::OK();
}

Status MemPageFile::Free(PageId id) {
  BOXAGG_RETURN_NOT_OK(PageFile::Free(id));
  // Poison the freed slot in every build: a later read of this id before it
  // is rewritten fails the header check instead of returning stale-but-
  // plausible bytes, so a use-after-free of a page id fails loudly.
  sync::MutexLock lock(&mu_);
  if (id < slots_.size() && !slots_[id].empty()) {
    std::fill(slots_[id].begin(), slots_[id].end(), uint8_t{0xDB});
  }
  return Status::OK();
}

Status MemPageFile::ReadPageEx(PageId id, Page* page, uint64_t* epoch_out) {
  sync::MutexLock lock(&mu_);
  if (id >= slots_.size()) return Status::NotFound("page id out of range");
  auto& src = slots_[id];
  if (src.empty()) {
    page->Zero();  // never-written page reads as zeros
    if (epoch_out != nullptr) *epoch_out = 0;
    return Status::OK();
  }
  return DecodePageSlot(src.data(), page_size_, id, page->data(), epoch_out);
}

Status MemPageFile::WritePage(PageId id, const Page& page) {
  sync::MutexLock lock(&mu_);
  if (id >= slots_.size()) return Status::NotFound("page id out of range");
  auto& dst = slots_[id];
  dst.resize(slot_size());
  EncodePageSlot(dst.data(), page_size_, id, write_epoch_, page.data());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FilePageFile

FilePageFile::~FilePageFile() {
  IgnoreStatus(Close());  // why: best-effort close; destructors cannot surface errors
}

Status FilePageFile::Open(const std::string& path, uint32_t page_size,
                          bool truncate,
                          std::unique_ptr<FilePageFile>* out) {
  // Only a truncating open creates the file: reopening a missing path fails
  // with ENOENT instead of leaving an empty file behind.
  const int flags = truncate ? O_RDWR | O_CREAT | O_TRUNC : O_RDWR;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  auto file = std::unique_ptr<FilePageFile>(
      new FilePageFile(page_size, fd, path));
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    return Status::IoError("lseek: " + std::string(std::strerror(errno)));
  }
  // Round a partial tail slot (torn OS-level extend) up to a page: reading
  // it then fails the checksum instead of silently vanishing.
  const uint64_t slot = uint64_t{page_size} + kPageHeaderSize;
  file->page_count_ = (static_cast<uint64_t>(end) + slot - 1) / slot;
  *out = std::move(file);
  return Status::OK();
}

Status FilePageFile::Extend(uint64_t new_count) {
  if (::ftruncate(fd_, static_cast<off_t>(new_count * slot_size())) != 0) {
    return Status::NoSpace("ftruncate: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Status FilePageFile::ReadPageEx(PageId id, Page* page, uint64_t* epoch_out) {
  if (id >= page_count_) return Status::NotFound("page id out of range");
  const size_t n = slot_size();
  uint8_t header[kPageHeaderSize];
  uint8_t* payload = page->data();
  size_t got = 0;
  BOXAGG_RETURN_NOT_OK(FullPreadSlot(fd_, header, payload, page_size_,
                                     static_cast<off_t>(id * n), &got));
  if (got < n) {
    // Slot allocated via ftruncate but never (fully) materialized; the tail
    // reads as zeros and the verifier decides whether that is consistent.
    const size_t in_header = std::min<size_t>(got, kPageHeaderSize);
    std::memset(header + in_header, 0, kPageHeaderSize - in_header);
    const size_t in_payload = got - in_header;
    std::memset(payload + in_payload, 0, page_size_ - in_payload);
  }
  return VerifyPageSlot(header, payload, page_size_, id, epoch_out);
}

Status FilePageFile::WritePage(PageId id, const Page& page) {
  if (id >= page_count_) return Status::NotFound("page id out of range");
  const size_t n = slot_size();
  std::vector<uint8_t>& slot = SlotScratch(n);
  EncodePageSlot(slot.data(), page_size_, id, write_epoch_, page.data());
  return FullPwrite(fd_, slot.data(), n, static_cast<off_t>(id * n));
}

Status FilePageFile::Sync() {
  if (fd_ < 0) return Status::InvalidArgument("Sync on closed file");
  if (::fsync(fd_) != 0) {
    return Status::IoError("fsync: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Status FilePageFile::Close() {
  if (fd_ < 0) return Status::OK();
  Status sync = Sync();
  if (::close(fd_) != 0 && sync.ok()) {
    sync = Status::IoError("close: " + std::string(std::strerror(errno)));
  }
  fd_ = -1;
  return sync;
}

}  // namespace boxagg
