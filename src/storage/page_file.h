// PageFile: persistent array of fixed-size pages with allocation and a free
// list.
//
// Two backends share one interface:
//  - FilePageFile: POSIX file-backed; every ReadPage/WritePage is a real
//    pread/pwrite, so buffer-pool miss counts correspond to real disk traffic.
//  - MemPageFile: in-memory vector of pages; same allocation semantics, used
//    by unit tests and by benches that only need I/O *counts* (the counts are
//    identical — the buffer pool does the counting).
// A third, FaultInjectingPageFile (fault_injection.h), is an in-memory
// backend with deterministic failure injection for crash-safety tests.
//
// Durability envelope: every backend stores each page inside a slot of
// kPageHeaderSize + page_size bytes (see page_header.h). WritePage stamps
// the slot with a CRC32C, the page id, and the file's current write epoch;
// ReadPage verifies all three and fails with Status::kCorruption on any
// mismatch — a flipped bit, a torn write, or a misdirected write. The
// header is invisible to callers: pages still carry exactly page_size
// payload bytes.

#ifndef BOXAGG_STORAGE_PAGE_FILE_H_
#define BOXAGG_STORAGE_PAGE_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/sync.h"
#include "storage/page.h"
#include "storage/page_header.h"
#include "storage/status.h"

namespace boxagg {

struct CheckContext;

/// \brief Abstract store of fixed-size pages.
///
/// Thread-compatibility: concurrent ReadPage/WritePage calls are safe as
/// long as no Allocate/Free/Extend runs at the same time and no two threads
/// write the same page (the sharded BufferPool guarantees both on its read
/// path — each page belongs to exactly one shard). Allocation and freeing
/// remain single-threaded, like all index mutation. The in-memory backends
/// (MemPageFile, FaultInjectingPageFile) strengthen this: their reads are
/// additionally safe against a concurrent Allocate/Free/Extend; FilePageFile
/// keeps the weaker base contract (pread is position-independent, but the
/// size check races Extend).
class PageFile {
 public:
  explicit PageFile(uint32_t page_size) : page_size_(page_size) {}
  virtual ~PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  [[nodiscard]] uint32_t page_size() const { return page_size_; }

  /// Number of pages ever allocated (including freed ones still on disk).
  [[nodiscard]] uint64_t page_count() const { return page_count_; }

  /// Pages currently allocated and not on the free list.
  [[nodiscard]] uint64_t live_page_count() const {
    return page_count_ - free_list_.size();
  }

  /// Total bytes of the underlying store (page_count * page_size).
  [[nodiscard]] uint64_t size_bytes() const {
    return page_count_ * uint64_t{page_size_};
  }

  /// Allocates a page (reusing a freed one if available) and returns its id.
  virtual Status Allocate(PageId* out);

  /// Returns a page to the free list. The page's contents become undefined.
  virtual Status Free(PageId id);

  /// Reads page `id` into `page` (page->size() must equal page_size()). On
  /// failure the page's bytes are unspecified: a file backend reads the
  /// slot straight into the page and verifies it there.
  Status ReadPage(PageId id, Page* page) {
    return ReadPageEx(id, page, nullptr);
  }

  /// ReadPage plus the epoch stamped in the slot header (0 for a
  /// never-written page). Recovery and fsck use the epoch to detect stale
  /// (older-generation) page versions; ordinary readers pass nullptr.
  virtual Status ReadPageEx(PageId id, Page* page, uint64_t* epoch_out) = 0;

  /// Writes `page` to page `id`, stamping the slot with write_epoch().
  virtual Status WritePage(PageId id, const Page& page) = 0;

  /// Makes every completed WritePage durable (fsync for file backends).
  /// The atomic-commit protocol (core/bag_file.h) orders its superblock
  /// publish after a Sync of the data it references.
  virtual Status Sync() { return Status::OK(); }

  /// Epoch stamped into subsequently written page headers. The commit
  /// layer sets this to the in-flight generation number; standalone files
  /// keep the default.
  void set_write_epoch(uint64_t epoch) { write_epoch_ = epoch; }
  [[nodiscard]] uint64_t write_epoch() const { return write_epoch_; }

  /// Freed page ids awaiting reuse (read-only view for verification tools).
  [[nodiscard]] const std::vector<PageId>& free_list() const {
    return free_list_;
  }

  /// Replaces the free list wholesale. Recovery uses this to hand back the
  /// swept set of pages unreachable from the recovered generation. Every id
  /// must be < page_count() and distinct.
  void SetFreeList(std::vector<PageId> free_ids);

  /// Audits the allocation state: every free-list id was actually allocated
  /// (< page_count) and no id is freed twice. Implemented in
  /// src/check/storage_check.cc.
  Status CheckConsistency(CheckContext* ctx = nullptr) const;

 protected:
  /// Grows the backing store to hold `new_count` pages.
  virtual Status Extend(uint64_t new_count) = 0;

  /// Bytes one page occupies in the backing store (header + payload).
  [[nodiscard]] uint64_t slot_size() const {
    return uint64_t{page_size_} + kPageHeaderSize;
  }

  uint32_t page_size_;
  uint64_t page_count_ = 0;
  uint64_t write_epoch_ = 1;
  std::vector<PageId> free_list_;
};

/// \brief In-memory PageFile; page slots live in heap vectors.
///
/// Unlike the base contract, MemPageFile serializes ReadPageEx/WritePage/
/// Extend/Free on an internal mutex. It protects the slot vectors: the
/// outer vector's growth in Extend and each slot's bytes, so reads from
/// buffer-pool shards on several threads, eviction write-backs and the
/// poisoning in Free never touch a slot while another call
/// resizes or fills it. The lock is uncontended in single-threaded benches
/// and does not change I/O counts.
class MemPageFile : public PageFile {
 public:
  explicit MemPageFile(uint32_t page_size = kDefaultPageSize)
      : PageFile(page_size) {}

  /// Free plus poisoning: in every build the freed slot is filled with
  /// 0xDB so a use-after-free of the page id fails loudly
  /// (bad page magic -> Status::kCorruption) instead of reading stale
  /// bytes that happen to still parse.
  Status Free(PageId id) override;

  Status ReadPageEx(PageId id, Page* page, uint64_t* epoch_out) override;
  Status WritePage(PageId id, const Page& page) override;

 protected:
  Status Extend(uint64_t new_count) override;

 private:
  mutable sync::Mutex mu_{"mempagefile.slots", sync::lock_rank::kPageStore};
  std::vector<std::vector<uint8_t>> slots_ GUARDED_BY(mu_);
};

/// \brief POSIX-file-backed PageFile.
class FilePageFile : public PageFile {
 public:
  ~FilePageFile() override;

  /// Creates (truncating) or opens the existing `path`; without `truncate`
  /// a missing file is an error, not created. On open of an existing file
  /// the page count is derived from the file size; the free list starts
  /// empty.
  static Status Open(const std::string& path, uint32_t page_size,
                     bool truncate, std::unique_ptr<FilePageFile>* out);

  Status ReadPageEx(PageId id, Page* page, uint64_t* epoch_out) override;
  Status WritePage(PageId id, const Page& page) override;

  /// fsync: all completed writes reach stable storage before this returns.
  Status Sync() override;

  /// Syncs and closes the descriptor; idempotent. Also run (best-effort)
  /// by the destructor, so dropping the object never loses acknowledged
  /// writes to an unflushed kernel cache on a clean shutdown.
  Status Close();

 protected:
  Status Extend(uint64_t new_count) override;

 private:
  FilePageFile(uint32_t page_size, int fd, std::string path)
      : PageFile(page_size), fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

}  // namespace boxagg

#endif  // BOXAGG_STORAGE_PAGE_FILE_H_
