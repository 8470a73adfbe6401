#include "check/fsck.h"

#include <memory>
#include <string>
#include <unordered_map>

#include "batree/packed_ba_tree.h"
#include "check/checkable.h"
#include "core/bag_file.h"
#include "replica/compact_replica.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace boxagg {

namespace {

// Role of a physical page in the recovered generation; decides whether a
// verification failure there is corruption or an expected crash artifact.
// The recovered generation is the only one at rest, so every page it does
// not reference is free (see fsck.h).
enum PhysClass : uint8_t {
  kPhysFree = 0,   // unreferenced: torn or reclaimed leftovers are legitimate
  kPhysSuper,      // superblock slot (one may hold a torn in-flight commit)
  kPhysMap,        // map-chain page of the recovered generation
  kPhysData,       // image of a mapped logical page
};

Status DefaultRootChecker(BufferPool* pool, uint32_t dims,
                          size_t /*root_index*/, PageId root,
                          CheckContext* ctx) {
  bool is_replica = false;
  BOXAGG_RETURN_NOT_OK(IsReplicaRoot(pool, root, &is_replica));
  if (is_replica) {
    CompactReplica<double> rep(pool, static_cast<int>(dims), root);
    return rep.CheckConsistency(ctx);
  }
  PackedBaTree<double> tree(pool, static_cast<int>(dims), root);
  return tree.CheckConsistency(ctx);
}

}  // namespace

Status FsckBag(PageFile* physical, const FsckOptions& options,
               FsckReport* report, const FsckRootChecker& root_checker) {
  FsckReport local_report;
  if (report == nullptr) report = &local_report;
  *report = FsckReport{};
  report->file_pages = physical->page_count();

  // Opening IS recovery: superblock selection, map load, duplicate-
  // reference detection, free-list rebuild all happen (and can fail) here.
  std::unique_ptr<BagFile> bag;
  BagRecoveryReport rec;
  BOXAGG_RETURN_NOT_OK(BagFile::Open(physical, &bag, &rec));
  report->opened = true;
  report->generation = rec.generation;
  report->logical_pages = rec.logical_pages;
  report->mapped_pages = rec.mapped_pages;
  report->dims = bag->dims();
  report->roots = bag->roots();
  if (rec.fell_back) {
    report->notes.push_back(
        "newer superblock slot invalid (interrupted commit); recovered to "
        "generation " + std::to_string(rec.generation));
  }
  if (rec.orphaned_physical > 0) {
    report->notes.push_back(std::to_string(rec.orphaned_physical) +
                            " unreachable physical page(s) swept to the "
                            "free list");
  }

  std::vector<std::string> errors;

  // -- physical sweep: verify every slot's checksum envelope --------------
  std::vector<uint8_t> cls(physical->page_count(), kPhysFree);
  cls[0] = cls[1] = kPhysSuper;
  for (PageId id : bag->map_page_ids()) cls[id] = kPhysMap;
  std::unordered_map<PageId, PageId> phys_to_logical;
  for (PageId logical = 0; logical < bag->page_count(); ++logical) {
    const BagMapEntry e = bag->MapEntry(logical);
    if (!e.mapped()) continue;
    cls[e.physical] = kPhysData;
    phys_to_logical.emplace(e.physical, logical);
  }

  Page scan(physical->page_size());
  for (PageId id = 0; id < physical->page_count(); ++id) {
    uint64_t epoch = 0;
    Status st = physical->ReadPageEx(id, &scan, &epoch);
    if (!st.ok()) {
      switch (cls[id]) {
        case kPhysSuper:
          // BagFile::Open read the *active* slot successfully, so this can
          // only be the inactive slot — a torn in-flight commit is normal.
          report->notes.push_back("superblock slot " + std::to_string(id) +
                                  " fails verification (interrupted-commit "
                                  "artifact): " + st.message());
          break;
        case kPhysFree:
          ++report->checksum_failures_free;
          report->notes.push_back("free physical page " + std::to_string(id) +
                                  " fails verification (torn or reclaimed): " +
                                  st.message());
          break;
        default:
          ++report->checksum_failures_live;
          errors.push_back("physical page " + std::to_string(id) +
                           (cls[id] == kPhysMap ? " (map page): "
                                                : " (mapped image): ") +
                           st.message());
          break;
      }
      continue;
    }
    if (cls[id] == kPhysData && epoch != bag->MapEntry(
                                             phys_to_logical[id]).epoch) {
      ++report->stale_pages;
      const std::string what =
          "physical page " + std::to_string(id) + " (logical " +
          std::to_string(phys_to_logical[id]) + ") holds epoch " +
          std::to_string(epoch) + ", map expects " +
          std::to_string(bag->MapEntry(phys_to_logical[id]).epoch) +
          " (lost write)";
      if (options.strict_stale) {
        errors.push_back(what);
      } else {
        report->notes.push_back(what);
      }
    }
  }

  // -- logical sweep: per-root structural checks --------------------------
  // The pool must hold a root-to-leaf pin chain per nesting level of border
  // trees; 16 MB is far beyond any tree the format can describe.
  BufferPool pool(bag.get(),
                  BufferPool::CapacityForMegabytes(16, options.page_size));
  const FsckRootChecker& checker =
      root_checker ? root_checker : FsckRootChecker(DefaultRootChecker);
  CheckContext ctx;
  ctx.check_oracle = options.check_oracle;
  const std::vector<PageId>& roots = bag->roots();
  for (size_t i = 0; i < roots.size(); ++i) {
    if (roots[i] == kInvalidPageId) {
      report->notes.push_back("root " + std::to_string(i) +
                              " is empty (no pages)");
      continue;
    }
    std::string err;
    if (roots[i] >= bag->page_count()) {
      err = "points beyond the logical space";
    } else if (!bag->IsMapped(roots[i])) {
      err = "points at an unmapped logical page";
    } else if (Status st = checker(&pool, bag->dims(), i, roots[i], &ctx);
               !st.ok()) {
      err = st.message();
    }
    if (!err.empty()) {
      report->root_errors.push_back("root " + std::to_string(i) + ": " + err);
    }
  }
  report->visited_pages = ctx.visited.size();

  for (const std::string& e : report->root_errors) errors.push_back(e);

  if (!report->root_errors.empty()) {
    report->notes.push_back(
        "accounting and orphan checks skipped (structural errors present)");
  } else {
    // Storage-engine accounting. Every fsck guard is released by now, so
    // any surviving pin would be a leak inside the checkers themselves.
    // (Skipped when structures are corrupt: an aborted checker tells us
    // nothing new about the pool.)
    ctx.expect_unpinned = true;
    if (Status st = pool.CheckConsistency(&ctx); !st.ok()) {
      errors.push_back("buffer pool: " + st.message());
    }
    if (Status st = bag->CheckConsistency(&ctx); !st.ok()) {
      errors.push_back("logical allocation: " + st.message());
    }
    if (Status st = physical->CheckConsistency(&ctx); !st.ok()) {
      errors.push_back("physical allocation: " + st.message());
    }

    // Orphan sweep: every mapped logical page should be owned by a tree.
    uint64_t orphans = 0;
    PageId first_orphan = kInvalidPageId;
    for (PageId pid = 0; pid < bag->page_count(); ++pid) {
      if (!bag->IsMapped(pid) || ctx.visited.count(pid) != 0) continue;
      if (first_orphan == kInvalidPageId) first_orphan = pid;
      ++orphans;
    }
    report->orphan_pages = orphans;
    if (orphans > 0) {
      const std::string what =
          std::to_string(orphans) +
          " mapped page(s) reachable from no root (first: page " +
          std::to_string(first_orphan) + ")";
      if (options.strict_orphans) {
        errors.push_back(what);
      } else {
        report->notes.push_back(what);
      }
    }
  }

  if (!errors.empty()) {
    std::string msg = errors.front();
    if (errors.size() > 1) {
      msg += " (+" + std::to_string(errors.size() - 1) +
             " more; see report)";
    }
    return Status::Corruption(msg);
  }
  return Status::OK();
}

Status FsckIndexFile(const std::string& path, const FsckOptions& options,
                     FsckReport* report) {
  std::unique_ptr<FilePageFile> file;
  BOXAGG_RETURN_NOT_OK(
      FilePageFile::Open(path, options.page_size, /*truncate=*/false, &file));
  return FsckBag(file.get(), options, report);
}

}  // namespace boxagg
