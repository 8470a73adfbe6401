#include "core/bag_file.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "geom/point.h"

namespace boxagg {

void BagFile::SetEpochAfter(uint64_t gen) {
  // Writes made after generation `gen` is published belong to the
  // in-flight generation gen + 1; both the logical layer and the inner
  // file stamp that epoch so recovery can tell the two apart.
  write_epoch_ = gen + 1;
  physical_->set_write_epoch(gen + 1);
}

Status BagFile::Create(PageFile* physical, uint32_t dims, uint32_t num_roots,
                       std::unique_ptr<BagFile>* out) {
  if (physical->page_count() != 0) {
    return Status::InvalidArgument("BagFile::Create needs an empty file");
  }
  if (dims < 1 || dims > static_cast<uint32_t>(kMaxDims)) {
    return Status::InvalidArgument("dims outside [1, kMaxDims]");
  }
  if (num_roots > BagMaxRoots(physical->page_size())) {
    return Status::InvalidArgument("num_roots exceeds superblock capacity");
  }
  auto bag = std::unique_ptr<BagFile>(new BagFile(physical));
  bag->dims_ = dims;
  bag->roots_.assign(num_roots, kInvalidPageId);

  // Reserve the two ping-pong superblock slots; slot 1 stays never-written
  // (its all-zero slot fails the magic check, so it is not a candidate).
  physical->set_write_epoch(0);
  PageId slot0 = kInvalidPageId;
  PageId slot1 = kInvalidPageId;
  BOXAGG_RETURN_NOT_OK(physical->Allocate(&slot0));
  BOXAGG_RETURN_NOT_OK(physical->Allocate(&slot1));
  assert(slot0 == 0 && slot1 == 1);
  (void)slot1;

  BagSuperblock sb;
  sb.generation = 0;
  sb.dims = dims;
  sb.roots = bag->roots_;
  Page p(physical->page_size());
  WriteBagSuperblock(&p, sb);
  BOXAGG_RETURN_NOT_OK(physical->WritePage(slot0, p));
  BOXAGG_RETURN_NOT_OK(physical->Sync());

  bag->SetEpochAfter(0);
  *out = std::move(bag);
  return Status::OK();
}

Status BagFile::Open(PageFile* physical, std::unique_ptr<BagFile>* out,
                     BagRecoveryReport* report) {
  if (physical->page_count() < kBagSuperblockSlots) {
    return Status::Corruption("file too small for a superblock");
  }

  // Read both ping-pong slots through the checksummed page layer. A slot
  // is a candidate only if its CRC, magic, and generation parity all hold.
  BagSuperblock sbs[kBagSuperblockSlots];
  bool valid[kBagSuperblockSlots] = {false, false};
  Page p(physical->page_size());
  for (PageId slot = 0; slot < kBagSuperblockSlots; ++slot) {
    if (!physical->ReadPage(slot, &p).ok()) continue;  // torn/corrupt slot
    if (!ReadBagSuperblock(p, &sbs[slot]).ok()) continue;
    if (sbs[slot].generation % kBagSuperblockSlots != slot) continue;
    valid[slot] = true;
  }
  if (!valid[0] && !valid[1]) {
    return Status::Corruption("no valid superblock in either slot");
  }
  int chosen;
  if (valid[0] && valid[1]) {
    chosen = sbs[1].generation > sbs[0].generation ? 1 : 0;
  } else {
    chosen = valid[1] ? 1 : 0;
  }
  const BagSuperblock& sb = sbs[chosen];
  // The invalid slot is an interrupted commit only if it is the slot the
  // *next* generation would have used; otherwise it is just still empty.
  const bool fell_back =
      !valid[1 - chosen] &&
      (sb.generation + 1) % kBagSuperblockSlots ==
          static_cast<uint64_t>(1 - chosen);

  auto bag = std::unique_ptr<BagFile>(new BagFile(physical));
  bag->generation_ = sb.generation;
  bag->dims_ = sb.dims;
  bag->roots_ = sb.roots;
  bag->page_count_ = sb.logical_pages;
  BOXAGG_RETURN_NOT_OK(bag->LoadMapChain(sb));
  bag->fresh_.assign(sb.logical_pages, false);

  // Rebuild the logical free list: every unmapped id is free. Pushed in
  // descending order so pop_back hands out ascending ids.
  std::vector<PageId> logical_free;
  for (PageId id = sb.logical_pages; id-- > 0;) {
    if (!bag->map_[id].mapped()) logical_free.push_back(id);
  }
  bag->SetFreeList(std::move(logical_free));

  // Orphan sweep: any physical page not reachable from the recovered
  // generation (superblocks, map chain, mapped page images) is leftover
  // from an interrupted commit or a superseded generation — reclaim it.
  // A physical page referenced twice is structural corruption.
  std::vector<uint8_t> live(physical->page_count(), 0);
  live[0] = live[1] = 1;
  for (PageId id : bag->map_page_ids_) {
    if (live[id] != 0) {
      return Status::Corruption("map page " + std::to_string(id) +
                                " referenced twice");
    }
    live[id] = 1;
  }
  for (PageId logical = 0; logical < bag->map_.size(); ++logical) {
    const BagMapEntry& e = bag->map_[logical];
    if (!e.mapped()) continue;
    if (e.physical >= physical->page_count()) {
      return Status::Corruption("logical page " + std::to_string(logical) +
                                " maps past the end of the file");
    }
    if (live[e.physical] != 0) {
      return Status::Corruption("physical page " +
                                std::to_string(e.physical) +
                                " referenced twice");
    }
    live[e.physical] = 1;
  }
  std::vector<PageId> orphans;
  for (PageId id = physical->page_count(); id-- > 0;) {
    if (live[id] == 0) orphans.push_back(id);
  }
  const uint64_t orphan_count = orphans.size();
  physical->SetFreeList(std::move(orphans));
  bag->SetEpochAfter(bag->generation_);

  if (report != nullptr) {
    report->generation = bag->generation_;
    report->fell_back = fell_back;
    report->logical_pages = sb.logical_pages;
    report->mapped_pages = sb.logical_pages - bag->free_list().size();
    report->orphaned_physical = orphan_count;
  }
  *out = std::move(bag);
  return Status::OK();
}

Status BagFile::LoadMapChain(const BagSuperblock& sb) {
  map_.assign(sb.logical_pages, BagMapEntry{});
  map_page_ids_.clear();
  const uint32_t per_page = BagMapEntriesPerPage(page_size_);
  Page p(page_size_);
  PageId current = sb.map_head;
  uint64_t loaded = 0;
  for (uint64_t i = 0; i < sb.map_pages; ++i) {
    if (current == kInvalidPageId || current >= physical_->page_count()) {
      return Status::Corruption("map chain truncated at page " +
                                std::to_string(i));
    }
    BOXAGG_RETURN_NOT_OK(physical_->ReadPage(current, &p));
    if (p.ReadAt<uint64_t>(kBagMapOffMagic) != kBagMapMagic) {
      return Status::Corruption("map page magic mismatch at physical " +
                                std::to_string(current));
    }
    if (p.ReadAt<uint64_t>(kBagMapOffFirstLogical) != loaded) {
      return Status::Corruption("map chain out of order at physical " +
                                std::to_string(current));
    }
    const uint64_t n = p.ReadAt<uint64_t>(kBagMapOffEntryCount);
    if (n > per_page || loaded + n > sb.logical_pages) {
      return Status::Corruption("map page entry count out of range");
    }
    for (uint64_t k = 0; k < n; ++k) {
      const uint32_t off =
          kBagMapOffEntries + static_cast<uint32_t>(k) * kBagMapEntrySize;
      map_[loaded + k].physical = p.ReadAt<uint64_t>(off);
      map_[loaded + k].epoch = p.ReadAt<uint64_t>(off + 8);
    }
    loaded += n;
    map_page_ids_.push_back(current);
    current = p.ReadAt<uint64_t>(kBagMapOffNext);
  }
  if (loaded != sb.logical_pages || current != kInvalidPageId) {
    return Status::Corruption("map chain does not cover the logical space");
  }
  return Status::OK();
}

Status BagFile::Extend(uint64_t new_count) {
  map_.resize(new_count);
  fresh_.resize(new_count, false);
  return Status::OK();
}

Status BagFile::ReadPageEx(PageId id, Page* page, uint64_t* epoch_out) {
  if (id >= page_count_) return Status::NotFound("logical page out of range");
  const BagMapEntry& e = map_[id];
  if (!e.mapped()) {
    page->Zero();  // allocated but never written
    if (epoch_out != nullptr) *epoch_out = 0;
    return Status::OK();
  }
  uint64_t hdr_epoch = 0;
  BOXAGG_RETURN_NOT_OK(physical_->ReadPageEx(e.physical, page, &hdr_epoch));
  if (hdr_epoch != e.epoch) {
    // The platter holds a different version than the one the map points
    // at: a write this store was told is durable never arrived.
    return Status::Corruption(
        "logical page " + std::to_string(id) + ": stale version (epoch " +
        std::to_string(hdr_epoch) + ", map expects " +
        std::to_string(e.epoch) + ") — lost write");
  }
  if (epoch_out != nullptr) *epoch_out = hdr_epoch;
  return Status::OK();
}

Status BagFile::WritePage(PageId id, const Page& page) {
  if (id >= page_count_) return Status::NotFound("logical page out of range");
  BagMapEntry& e = map_[id];
  if (e.mapped() && fresh_[id]) {
    // Already copied this epoch; overwriting the copy in place is safe.
    e.epoch = write_epoch_;
    return physical_->WritePage(e.physical, page);
  }
  // Copy-on-write: the published image (if any) must survive a crash until
  // the next commit, so the new version goes to a fresh physical page.
  PageId fresh_phys = kInvalidPageId;
  BOXAGG_RETURN_NOT_OK(physical_->Allocate(&fresh_phys));
  Status st = physical_->WritePage(fresh_phys, page);
  if (!st.ok()) {
    // why: undo of a failed write; the fresh page was never referenced, and
    // the write error below is the one the caller must see.
    IgnoreStatus(physical_->Free(fresh_phys));
    return st;
  }
  if (e.mapped()) deferred_frees_.push_back(e.physical);
  e.physical = fresh_phys;
  e.epoch = write_epoch_;
  fresh_[id] = true;
  return Status::OK();
}

Status BagFile::Free(PageId id) {
  if (id >= page_count_) {
    return Status::InvalidArgument("Free of unallocated logical page");
  }
  BagMapEntry& e = map_[id];
  if (e.mapped()) {
    if (fresh_[id]) {
      // Written this epoch only; no committed state depends on it.
      BOXAGG_RETURN_NOT_OK(physical_->Free(e.physical));
    } else {
      // Part of the published generation: recycle only after the next
      // commit, when no crash can roll back to a state that needs it.
      deferred_frees_.push_back(e.physical);
    }
    e = BagMapEntry{};
    fresh_[id] = false;
  }
  return PageFile::Free(id);
}

Status BagFile::WriteMapChain(std::vector<PageId>* new_ids) {
  new_ids->clear();
  const uint32_t per_page = BagMapEntriesPerPage(page_size_);
  const uint64_t n_pages = (map_.size() + per_page - 1) / per_page;
  // Allocate the whole chain first so each page can point at its successor.
  for (uint64_t i = 0; i < n_pages; ++i) {
    PageId id = kInvalidPageId;
    BOXAGG_RETURN_NOT_OK(physical_->Allocate(&id));
    new_ids->push_back(id);
  }
  Page p(page_size_);
  for (uint64_t i = 0; i < n_pages; ++i) {
    const uint64_t first = i * per_page;
    const uint64_t n =
        std::min<uint64_t>(per_page, map_.size() - first);
    p.Zero();
    p.WriteAt<uint64_t>(kBagMapOffMagic, kBagMapMagic);
    p.WriteAt<uint64_t>(kBagMapOffNext,
                        i + 1 < n_pages ? (*new_ids)[i + 1] : kInvalidPageId);
    p.WriteAt<uint64_t>(kBagMapOffFirstLogical, first);
    p.WriteAt<uint64_t>(kBagMapOffEntryCount, n);
    for (uint64_t k = 0; k < n; ++k) {
      const uint32_t off =
          kBagMapOffEntries + static_cast<uint32_t>(k) * kBagMapEntrySize;
      p.WriteAt<uint64_t>(off, map_[first + k].physical);
      p.WriteAt<uint64_t>(off + 8, map_[first + k].epoch);
    }
    BOXAGG_RETURN_NOT_OK(physical_->WritePage((*new_ids)[i], p));
  }
  return Status::OK();
}

Status BagFile::Commit(const std::vector<PageId>& roots) {
  if (roots.size() != roots_.size()) {
    return Status::InvalidArgument("Commit root count mismatch");
  }
  const uint64_t new_gen = generation_ + 1;

  // 1. Data barrier: every CoW page image of this epoch reaches the
  //    platter before anything references it.
  BOXAGG_RETURN_NOT_OK(physical_->Sync());

  // 2. Write the new map chain to fresh physical pages, then barrier it.
  std::vector<PageId> new_map_ids;
  BOXAGG_RETURN_NOT_OK(WriteMapChain(&new_map_ids));
  BOXAGG_RETURN_NOT_OK(physical_->Sync());

  // 3. Publish: the new superblock goes to the slot the OLD generation is
  //    not using. Until the final sync returns, the old superblock (and
  //    every page it references) is untouched on the platter, so a crash
  //    anywhere in steps 1-3 recovers cleanly to the old generation.
  BagSuperblock sb;
  sb.generation = new_gen;
  sb.dims = dims_;
  sb.logical_pages = map_.size();
  sb.map_head = new_map_ids.empty() ? kInvalidPageId : new_map_ids.front();
  sb.map_pages = new_map_ids.size();
  sb.roots = roots;
  Page p(page_size_);
  WriteBagSuperblock(&p, sb);
  BOXAGG_RETURN_NOT_OK(physical_->WritePage(new_gen % kBagSuperblockSlots, p));
  BOXAGG_RETURN_NOT_OK(physical_->Sync());

  // 4. The old generation is now unreachable *on the platter*; advance the
  //    in-memory state.
  const std::vector<PageId> old_map_pages = std::move(map_page_ids_);
  map_page_ids_ = std::move(new_map_ids);
  fresh_.assign(map_.size(), false);
  generation_ = new_gen;
  roots_ = roots;
  SetEpochAfter(new_gen);

  // 5. Free the old generation's private pages: its map chain, then every
  //    page image superseded or freed this epoch. Nothing references them
  //    any more; if we crash before they are reused, recovery's orphan
  //    sweep reclaims them again.
  for (PageId id : old_map_pages) {
    BOXAGG_RETURN_NOT_OK(physical_->Free(id));
  }
  for (PageId id : deferred_frees_) {
    BOXAGG_RETURN_NOT_OK(physical_->Free(id));
  }
  deferred_frees_.clear();
  return Status::OK();
}

}  // namespace boxagg
