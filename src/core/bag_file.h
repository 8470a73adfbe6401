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
//     the previous generation's physical pages (old page images, old map
//     chain) returned to the free list.
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
// MVCC (multi-generation shadow paging): any number of reader threads can
// pin the currently published generation with PinCurrent() and keep
// querying it — wait-free with respect to the writer — while the writer
// CoWs and publishes generation g+1. A GenerationPin snapshots the
// logical->physical map, roots, and map-chain ids at pin time and reads
// physical pages directly (epoch-cross-checked), so nothing the writer
// does to the live in-memory state can perturb a pinned reader. Physical
// pages superseded or freed by a commit are not recycled immediately:
// they enter a *retire list* stamped with the generation that retired
// them, and ReclaimRetired() moves an entry to the physical free list only
// once no pin on any older generation remains (min pinned generation >=
// retired_at). Commit reclaims opportunistically; the last Unpin of a
// generation also triggers a reclaim pass, so a dedicated reclaimer
// thread is optional. With zero pins the retire list drains at every
// commit in the exact order the previous code freed pages — single-
// threaded I/O traces are bit-identical.
//
// Guarantees and limits: single writer; readers may share the file through
// a BufferPool (live fetches by the writer, snapshot fetches by pinned
// readers). Commit is atomic and durable; writes between commits have
// no partial-batch atomicity (a crash loses all of them together, which is
// the point). A Commit that *returns an error* (not a crash) leaves the
// in-memory state unusable — reopen from the inner file to continue.
// Pins are in-memory only: a crash implicitly drops them, and recovery's
// orphan sweep reclaims every retired page.
//
// One generation at rest: a store that no process holds open has exactly
// one generation, the newest valid superblock's. The other slot's older
// generation is superseded, not retained — its pages were reclaimed at its
// successor's commit (or by the next Open's sweep) and may already be
// reused — so nothing opens it; fsck checks the committed generation only.

#ifndef BOXAGG_CORE_BAG_FILE_H_
#define BOXAGG_CORE_BAG_FILE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/bag_format.h"
#include "core/sync.h"
#include "storage/page_file.h"
#include "storage/page_version.h"

namespace boxagg {

/// What Open() found and repaired; informational (fsck and tools print it).
struct BagRecoveryReport {
  uint64_t generation = 0;      ///< generation recovered to
  bool fell_back = false;       ///< newer slot was torn/invalid; older used
  uint64_t logical_pages = 0;   ///< logical address-space size
  uint64_t mapped_pages = 0;    ///< logical pages with live contents
  uint64_t orphaned_physical = 0;  ///< unreachable physical pages swept
};

/// Immutable image of one published generation (what a pin holds).
struct GenerationSnapshot {
  uint64_t generation = 0;
  std::vector<PageId> roots;
  std::vector<BagMapEntry> map;     ///< full logical->physical copy
  std::vector<PageId> map_pages;    ///< physical ids of the map chain
};

class BagFile;

/// \brief Refcounted RAII pin on one published generation.
///
/// While any pin on generation g is live, every physical page g references
/// stays out of the free list (see the retire-list rules in the file
/// comment), so reads through the pin are immune to writer CoW, commit,
/// and reclamation. Pins are movable, not copyable; dropping the last pin
/// on the oldest pinned generation triggers a reclaim pass. A pin must not
/// outlive its BagFile (debug builds abort in ~BagFile).
///
/// As a PageVersionView, a pin plugs into BufferPool::FetchSnapshot: tree
/// handles constructed with the pin's roots and view answer queries
/// byte-identical to the moment the generation was published.
class GenerationPin : public PageVersionView {
 public:
  GenerationPin() = default;
  ~GenerationPin() override { Release(); }

  GenerationPin(GenerationPin&& o) noexcept { *this = std::move(o); }
  GenerationPin& operator=(GenerationPin&& o) noexcept {
    if (this != &o) {
      Release();
      bag_ = o.bag_;
      snap_ = std::move(o.snap_);
      o.bag_ = nullptr;
      o.snap_.reset();
    }
    return *this;
  }
  GenerationPin(const GenerationPin&) = delete;
  GenerationPin& operator=(const GenerationPin&) = delete;

  [[nodiscard]] bool valid() const { return snap_ != nullptr; }
  [[nodiscard]] uint64_t generation() const { return snap_->generation; }
  /// Root array as of the pinned generation.
  [[nodiscard]] const std::vector<PageId>& roots() const {
    return snap_->roots;
  }
  /// Logical address-space size of the pinned generation.
  [[nodiscard]] uint64_t logical_pages() const { return snap_->map.size(); }
  /// Translation for one logical page in the pinned generation.
  [[nodiscard]] BagMapEntry map_entry(PageId logical) const {
    return logical < snap_->map.size() ? snap_->map[logical] : BagMapEntry{};
  }
  /// Physical ids of the pinned generation's map chain (torture tests
  /// guard these alongside the mapped data pages).
  [[nodiscard]] const std::vector<PageId>& map_pages() const {
    return snap_->map_pages;
  }

  /// Drops the pin early (also done by the destructor).
  void Release();

  // -- PageVersionView ------------------------------------------------------
  [[nodiscard]] uint64_t VersionKey(PageId logical) const override;
  Status ReadVersioned(PageId logical, Page* page) const override;
  [[nodiscard]] uint64_t version_id() const override {
    return snap_->generation;
  }

 private:
  friend class BagFile;
  GenerationPin(BagFile* bag, std::shared_ptr<const GenerationSnapshot> snap)
      : bag_(bag), snap_(std::move(snap)) {}

  BagFile* bag_ = nullptr;
  std::shared_ptr<const GenerationSnapshot> snap_;
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

  /// Debug builds abort if any GenerationPin is still live: a pin holds a
  /// pointer into this object, so outliving it is a use-after-free.
  ~BagFile() override;

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
  /// at any later point recovers to exactly this state. Pages the commit
  /// supersedes are retired, not freed; the trailing reclaim pass frees
  /// whatever no pin still protects. Runs on the single writer thread,
  /// concurrently with any number of pinned readers.
  Status Commit(const std::vector<PageId>& roots);

  // -- MVCC: pins and reclamation -------------------------------------------
  /// Pins the currently published generation. Thread-safe; wait-free with
  /// respect to the writer (one short mutex hold, no I/O).
  Status PinCurrent(GenerationPin* out);

  /// Live pin handles across all generations.
  [[nodiscard]] size_t live_pins() const;

  /// Oldest pinned generation, or generation() when nothing is pinned.
  [[nodiscard]] uint64_t min_pinned_generation() const;

  /// Frees every retired page no pin can still reach (retired_at <= min
  /// pinned generation). Thread-safe; safe to call from a dedicated
  /// reclaimer thread concurrently with the writer and with readers.
  /// `reclaimed` (optional) receives the number of pages freed.
  Status ReclaimRetired(size_t* reclaimed = nullptr);

  /// Pages currently parked on the retire list (awaiting pin release).
  [[nodiscard]] size_t retired_pages() const;

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
  friend class GenerationPin;

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

  /// All physical allocation/free traffic funnels through these two, which
  /// serialize on retire_mu_: the writer's CoW allocations and a
  /// reclaimer's (or unpinning reader's) frees share the inner file's
  /// free list.
  Status AllocPhysical(PageId* out);
  Status FreePhysical(PageId id);

  /// Publishes the current generation's immutable image for future pins.
  void InstallSnapshot();

  /// Drops one pin on `gen`; the last pin of a generation triggers a
  /// reclaim pass. Called by GenerationPin::Release from any thread.
  void Unpin(uint64_t gen);

  struct RetiredPage {
    PageId physical;
    uint64_t retired_at;  ///< generation whose commit retired the page
  };

  PageFile* physical_;  // not owned
  uint64_t generation_ = 0;
  uint32_t dims_ = 0;
  std::vector<PageId> roots_;

  std::vector<BagMapEntry> map_;   // logical id -> {physical, epoch}
  std::vector<bool> fresh_;        // logical page CoW'd this epoch
  std::vector<PageId> map_page_ids_;       // published map chain (physical)
  std::vector<PageId> deferred_frees_;     // physical pages of the published
                                           // generation, retired at Commit

  /// Generation table: pin refcount per generation and the published
  /// snapshot. Ordered map so begin() is the oldest pinned generation.
  mutable sync::Mutex gen_mu_{"bagfile.gen", sync::lock_rank::kGenerationTable};
  std::map<uint64_t, uint64_t> pin_counts_ GUARDED_BY(gen_mu_);
  std::shared_ptr<const GenerationSnapshot> current_snap_ GUARDED_BY(gen_mu_);

  /// Retire list, append-ordered by retired_at (commits are monotone), so
  /// reclaimable entries always form a prefix. Also serializes the inner
  /// file's Allocate/Free (see AllocPhysical/FreePhysical).
  mutable sync::Mutex retire_mu_{"bagfile.retire",
                                 sync::lock_rank::kRetireList};
  std::vector<RetiredPage> retired_ GUARDED_BY(retire_mu_);
};

}  // namespace boxagg

#endif  // BOXAGG_CORE_BAG_FILE_H_
