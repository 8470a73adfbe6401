// boxagg_fsck core: opens a .bag index file (recovering it, exactly like a
// normal open) and runs every validator over it in two sweeps. A store at
// rest holds exactly one generation, the committed one: the superseded
// generation's pages were freed at commit or by the open's orphan sweep. fsck checks that one generation and never walks
// the other superblock slot.
//
//   Physical sweep — every slot of the backing file is read through the
//   CRC32C page layer. A verification failure on a page the recovered
//   generation depends on (a superblock in use, a map page, a mapped page
//   image) is corruption; a failure on any other page is only a note,
//   because torn writes of an interrupted commit and reclaimed pages of the
//   superseded generation legitimately litter unreferenced slots. Mapped
//   pages additionally cross-check the epoch stamped in the slot header
//   against the map's expectation: a mismatch means a lost write left a
//   stale older-generation version on the platter (note by default,
//   corruption under strict).
//
//   Logical sweep — each root tree runs its CheckConsistency pass against
//   one shared page-visit set (catching cross-tree page sharing), errors
//   collected per structure rather than aborting at the first, followed by
//   buffer-pool / page-file accounting audits and an orphan sweep for
//   mapped logical pages reachable from no root.
//
// Library form so the CLI (tools/boxagg_fsck.cpp), the corruption-injection
// tests, and the crash-torture harness share one implementation. The root
// checker is pluggable: the CLI verifies PackedBaTree roots (what
// boxagg_cli builds), crash_torture plugs in its own mixed-tree checker.

#ifndef BOXAGG_CHECK_FSCK_H_
#define BOXAGG_CHECK_FSCK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "storage/page.h"
#include "storage/status.h"

namespace boxagg {

class BufferPool;
class PageFile;
struct CheckContext;

struct FsckOptions {
  /// Run each tree's query self-oracle on top of the structural checks.
  bool check_oracle = true;
  /// Treat mapped-but-unreachable logical pages as corruption instead of a
  /// note. Off by default: a crashed build legitimately leaves dead pages
  /// behind, and the trees over the reachable pages are still fully usable.
  bool strict_orphans = false;
  /// Treat stale reachable pages (slot epoch older than the map expects —
  /// a lost write) as corruption instead of a note.
  bool strict_stale = false;
  uint32_t page_size = kDefaultPageSize;
};

struct FsckReport {
  bool opened = false;         ///< recovery read the store; else all zero
  uint64_t generation = 0;     ///< generation the file recovered to
  uint64_t file_pages = 0;     ///< physical pages (incl. superblock slots)
  uint64_t logical_pages = 0;  ///< logical address-space size
  uint64_t mapped_pages = 0;   ///< logical pages with live contents
  uint64_t visited_pages = 0;  ///< logical pages owned by some root tree
  uint64_t orphan_pages = 0;   ///< mapped but reachable from no root
  /// Physical slots failing CRC/magic/id verification, split by whether
  /// the recovered generation depends on them.
  uint64_t checksum_failures_live = 0;
  uint64_t checksum_failures_free = 0;
  uint64_t stale_pages = 0;    ///< mapped pages holding an older epoch
  uint32_t dims = 0;
  std::vector<PageId> roots;
  /// One entry per corrupt root: "root <i>: <diagnosis>". Empty when every
  /// structure checks out.
  std::vector<std::string> root_errors;
  std::vector<std::string> notes;  ///< non-fatal observations
};

/// Verifies one root tree. `root` is never kInvalidPageId (empty roots are
/// skipped before the checker runs); `ctx` carries the shared visit set.
using FsckRootChecker = std::function<Status(
    BufferPool* pool, uint32_t dims, size_t root_index, PageId root,
    CheckContext* ctx)>;

/// Verifies the .bag store in `physical` (both sweeps above). OK if every
/// check passes; Status::Corruption summarizing all violations otherwise;
/// `report` (optional) is filled with whatever was learned before the
/// verdict, so callers can print context even for corrupt files. With no
/// `root_checker`, roots are verified as PackedBaTree structures (the
/// boxagg_cli layout).
Status FsckBag(PageFile* physical, const FsckOptions& options,
               FsckReport* report = nullptr,
               const FsckRootChecker& root_checker = {});

/// FsckBag over the file at `path`; IoError if it cannot be opened.
Status FsckIndexFile(const std::string& path, const FsckOptions& options,
                     FsckReport* report = nullptr);

}  // namespace boxagg

#endif  // BOXAGG_CHECK_FSCK_H_
