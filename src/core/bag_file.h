// BagFile: crash-safe logical page store with atomic ping-pong commits.
//
// A BagFile is a PageFile whose page ids are *logical*: trees allocate,
// read, and write logical pages exactly as they would against a raw
// MemPageFile/FilePageFile, while the BagFile shadow-pages every mutation
// onto an inner *physical* PageFile (which supplies the CRC32C envelope of
// page_header.h). No committed physical page is ever overwritten in place:
//
//   - The first write to a logical page in an epoch copies it to a freshly
//     allocated physical page (copy-on-write); later writes in the same
//     epoch go to that fresh page in place.
//   - Commit(roots) publishes all writes since the previous commit
//     atomically: Sync the data pages, write the logical->physical map to
//     fresh physical pages, Sync, then write the new superblock
//     (generation g+1) into physical slot (g+1) % 2 and Sync again. The
//     two superblock slots ping-pong, so generation g remains intact on
//     the platter until g+1 is fully durable. Only after the publish are
//     the previous generation's physical pages (old map chain, then the
//     page images superseded or freed this epoch) returned to the free
//     list.
//   - Open() recovers: it reads both superblock slots through the
//     checksummed page layer, chooses the newest valid generation (a torn
//     superblock write simply loses the in-flight commit and falls back),
//     reloads the map, rebuilds both free lists, and sweeps every physical
//     page unreachable from the recovered generation back to the free
//     list. A crash at ANY point therefore lands the store in exactly the
//     last published generation.
//
// The map records the epoch each logical page was last written in; reads
// cross-check it against the epoch stamped in the physical slot header, so
// a lost (dropped-by-the-device) write of an individual page surfaces as
// Status::kCorruption instead of silently serving the stale prior version.
//
// Guarantees and limits: one writer, and no reads concurrent with it;
// any number of readers may share a quiescent store through a BufferPool.
// Commit is atomic and durable; writes between commits have no
// partial-batch atomicity (a crash loses all of them together, which is
// the point). A Commit that *returns an error* (not a crash) leaves the
// in-memory state unusable — reopen from the inner file to continue.
//
// One generation at rest: a store that no process holds open has exactly
// one generation, the newest valid superblock's. The other slot's older
// generation is superseded, not retained — its pages were freed at its
// successor's commit (or by the next Open's sweep) and may already be
// reused — so nothing opens it; fsck checks the committed generation only.

#ifndef BOXAGG_CORE_BAG_FILE_H_
#define BOXAGG_CORE_BAG_FILE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bag_format.h"
#include "storage/page_file.h"

namespace boxagg {

/// What Open() found and repaired; informational (fsck and tools print it).
struct BagRecoveryReport {
  uint64_t generation = 0;      ///< generation recovered to
  bool fell_back = false;       ///< newer slot was torn/invalid; older used
  uint64_t logical_pages = 0;   ///< logical address-space size
  uint64_t mapped_pages = 0;    ///< logical pages with live contents
  uint64_t orphaned_physical = 0;  ///< unreachable physical pages swept
};

class BagFile : public PageFile {
 public:
  /// Initializes `physical` (which must be empty) with the two superblock
  /// slots and publishes generation 0: `dims` dimensions, `num_roots`
  /// roots, all kInvalidPageId, no logical pages. Durable on return.
  static Status Create(PageFile* physical, uint32_t dims, uint32_t num_roots,
                       std::unique_ptr<BagFile>* out);

  /// Opens an existing store, running recovery (see file comment). On
  /// success the file is positioned at the newest durable generation and
  /// ready for reads and a new epoch of writes. `report` (optional)
  /// receives what recovery found.
  static Status Open(PageFile* physical, std::unique_ptr<BagFile>* out,
                     BagRecoveryReport* report = nullptr);

  // -- PageFile interface (logical ids) -------------------------------------
  Status ReadPageEx(PageId id, Page* page, uint64_t* epoch_out) override;
  Status WritePage(PageId id, const Page& page) override;

  /// Frees a logical page. Its physical page is recycled immediately if it
  /// was first written this epoch, and only after the next Commit if it
  /// belongs to the published generation (crash before then must still
  /// find it intact).
  Status Free(PageId id) override;

  /// Durability barrier on the inner file (does NOT publish; see Commit).
  Status Sync() override { return physical_->Sync(); }

  // -- commit ---------------------------------------------------------------
  /// Atomically and durably publishes everything written since the last
  /// commit, with `roots` as the new tree-root array (size must equal
  /// num_roots()). On return, generation() has advanced by one and a crash
  /// at any later point recovers to exactly this state. After the publish,
  /// the physical pages only the previous generation referenced (its map
  /// chain, then the images superseded or freed this epoch) return to the
  /// inner file's free list, in that order.
  Status Commit(const std::vector<PageId>& roots);

  // -- metadata / introspection (fsck, tools, tests) ------------------------
  [[nodiscard]] uint64_t generation() const { return generation_; }
  [[nodiscard]] uint32_t dims() const { return dims_; }
  [[nodiscard]] uint32_t num_roots() const {
    return static_cast<uint32_t>(roots_.size());
  }
  /// Root array as of the last Commit (or Create).
  [[nodiscard]] const std::vector<PageId>& roots() const { return roots_; }

  [[nodiscard]] bool IsMapped(PageId logical) const {
    return logical < map_.size() && map_[logical].mapped();
  }
  /// Translation for one logical page (unmapped entries have
  /// physical == kInvalidPageId).
  [[nodiscard]] BagMapEntry MapEntry(PageId logical) const {
    return logical < map_.size() ? map_[logical] : BagMapEntry{};
  }
  /// Physical pages holding the published map chain.
  [[nodiscard]] const std::vector<PageId>& map_page_ids() const {
    return map_page_ids_;
  }
  /// The physical store underneath (superblocks, map chain, page images).
  [[nodiscard]] PageFile* physical() { return physical_; }

 protected:
  Status Extend(uint64_t new_count) override;

 private:
  explicit BagFile(PageFile* physical)
      : PageFile(physical->page_size()), physical_(physical) {}

  /// Points both epoch stamps (ours and the inner file's) at the epoch
  /// that writes after generation `gen` must carry: gen + 1.
  void SetEpochAfter(uint64_t gen);

  /// Writes the current map_ as a chain of freshly allocated physical
  /// pages; returns their ids (empty when there are no logical pages).
  Status WriteMapChain(std::vector<PageId>* new_ids);

  /// Loads the map chain addressed by `sb` from the inner file.
  Status LoadMapChain(const BagSuperblock& sb);

  PageFile* physical_;  // not owned
  uint64_t generation_ = 0;
  uint32_t dims_ = 0;
  std::vector<PageId> roots_;

  std::vector<BagMapEntry> map_;   // logical id -> {physical, epoch}
  std::vector<bool> fresh_;        // logical page CoW'd this epoch
  std::vector<PageId> map_page_ids_;       // published map chain (physical)
  std::vector<PageId> deferred_frees_;     // physical pages of the published
                                           // generation, freed at Commit
};

}  // namespace boxagg

#endif  // BOXAGG_CORE_BAG_FILE_H_
