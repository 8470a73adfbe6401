// RStarTree: a disk-based R*-tree ([7]) over box objects, optionally
// augmented with per-entry aggregates — the aR-tree of [21, 25] that the
// paper benchmarks against (Sec. 6).
//
// The tree indexes the objects themselves (unlike the aggregate indexes,
// which store only sums), so it supports both the plain range-search
// evaluation ("visit every intersecting object") and the aR-tree evaluation
// ("add the stored aggregate of any entry whose MBR is contained in the
// query box and prune its subtree").
//
// Insertion implements the R* heuristics: ChooseSubtree by minimum overlap
// enlargement at the leaf level and minimum area enlargement above it,
// forced reinsertion of the 30% farthest entries on first overflow per
// level, and the R* split (axis by minimum margin sum, index by minimum
// overlap). Sort-Tile-Recursive (STR) bulk loading packs static datasets.
//
// The Traits parameter decides what a leaf stores and how an object
// contributes to a query:
//   - SimpleObjectTraits: payload is the object's value; contribution is the
//     whole value whenever the object intersects the query (simple box-sum).
//   - FunctionalObjectTraits: payload is the object's polynomial value
//     function; contribution is its integral over the intersection with the
//     query box (functional box-sum, Sec. 3).
//
// Page layout:
//   node (type 7 leaf / 8 internal): u16 type, u16 level, u32 count
//   internal entry: Box, u64 child, f64 aggregate
//   leaf entry:     Box, Traits::Payload
// Aggregates of internal entries are the sum of their subtrees' full object
// aggregates and are maintained on every structural change.

#ifndef BOXAGG_RTREE_RSTAR_TREE_H_
#define BOXAGG_RTREE_RSTAR_TREE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "check/checkable.h"
#include "geom/box.h"
#include "poly/corner_updates.h"
#include "poly/poly2.h"
#include "storage/buffer_pool.h"

namespace boxagg {

/// \brief Traits for the simple box-sum problem: leaf payload is the value.
struct SimpleObjectTraits {
  using Payload = double;
  static double FullAggregate(const Box&, const Payload& v, int) { return v; }
  /// Contribution of an intersecting object to query `q`.
  static double Contribution(const Box&, const Payload& v, const Box&, int) {
    return v;
  }
};

/// \brief Traits for the functional box-sum problem (2-d): leaf payload is a
/// polynomial value function with per-variable degree <= 2.
struct FunctionalObjectTraits {
  using Payload = Poly2<2>;
  static double FullAggregate(const Box& obj, const Payload& f, int) {
    return IntegralOverGrid(obj, f);
  }
  static double Contribution(const Box& obj, const Payload& f, const Box& q,
                             int dims) {
    return IntegralOverGrid(obj.Intersection(q, dims), f);
  }

 private:
  static double IntegralOverGrid(const Box& b, const Poly2<2>& f) {
    double total = 0;
    for (int p = 0; p <= 2; ++p) {
      for (int qe = 0; qe <= 2; ++qe) {
        double a = f.At(p, qe);
        if (a == 0.0) continue;
        total += a * FullIntegral1D(p, b.lo[0], b.hi[0]) *
                 FullIntegral1D(qe, b.lo[1], b.hi[1]);
      }
    }
    return total;
  }
};

/// \brief Disk-based R*-tree / aR-tree handle.
template <class Traits = SimpleObjectTraits>
class RStarTree {
 public:
  using Payload = typename Traits::Payload;

  /// An object as stored in a leaf.
  struct Object {
    Box box;
    Payload payload{};
  };

  RStarTree(BufferPool* pool, int dims, PageId root = kInvalidPageId,
            uint16_t root_level = 0)
      : pool_(pool), dims_(dims), root_(root), root_level_(root_level) {
    assert(dims_ >= 1 && dims_ <= kMaxDims);
  }

  [[nodiscard]] PageId root() const { return root_; }
  [[nodiscard]] uint16_t root_level() const { return root_level_; }
  [[nodiscard]] bool empty() const { return root_ == kInvalidPageId; }
  [[nodiscard]] int dims() const { return dims_; }

  uint32_t LeafCapacity() const {
    return (pool_->file()->page_size() - kHeaderSize) / kLeafEntrySize;
  }
  uint32_t InternalCapacity() const {
    return (pool_->file()->page_size() - kHeaderSize) / kInternalEntrySize;
  }

  /// Inserts one object (R* insertion with forced reinsertion).
  Status Insert(const Box& box, const Payload& payload) {
    if (LeafCapacity() < 4 || InternalCapacity() < 4) {
      return Status::InvalidArgument("page size too small for payload type");
    }
    if (root_ == kInvalidPageId) {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetHeader(g.page(), kLeafType, 0, 1);
      WriteLeafEntry(g.page(), 0, box, payload);
      g.MarkDirty();
      root_ = g.id();
      root_level_ = 0;
      return Status::OK();
    }
    reinserted_levels_ = 0;
    PendingEntry initial;
    initial.box = box;
    initial.is_leaf_entry = true;
    initial.leaf_payload = payload;
    initial.level = 0;
    std::vector<PendingEntry> pending{initial};
    while (!pending.empty()) {
      PendingEntry e = pending.back();
      pending.pop_back();
      BOXAGG_RETURN_NOT_OK(InsertPending(e, &pending));
    }
    return Status::OK();
  }

  /// Aggregate of all objects intersecting `q`.
  ///
  /// With `use_aggregates` (the aR-tree mode), subtrees whose MBR is fully
  /// contained in `q` contribute their stored aggregate without being
  /// visited — for SimpleObjectTraits this equals the sum of their objects'
  /// values, for FunctionalObjectTraits the sum of full integrals (an object
  /// inside `q` contributes its whole integral). Without it (plain R*-tree
  /// range search) every intersecting leaf is visited.
  Status AggregateQuery(const Box& q, bool use_aggregates,
                        double* out) const {
    *out = 0;
    if (root_ == kInvalidPageId) return Status::OK();
    return QueryRec(root_, q, use_aggregates, out);
  }

  /// Number of objects intersecting `q` (always visits leaves).
  Status CountQuery(const Box& q, uint64_t* out) const {
    *out = 0;
    if (root_ == kInvalidPageId) return Status::OK();
    return CountRec(root_, q, out);
  }

  /// Sort-Tile-Recursive bulk load of an empty tree.
  Status BulkLoad(std::vector<Object> objects) {
    if (root_ != kInvalidPageId) {
      return Status::InvalidArgument("BulkLoad into non-empty tree");
    }
    if (LeafCapacity() < 4 || InternalCapacity() < 4) {
      return Status::InvalidArgument("page size too small for payload type");
    }
    if (objects.empty()) return Status::OK();
    // Level 0: STR-pack objects into leaves.
    struct Up {
      Box box;
      PageId pid;
      double agg;
    };
    std::vector<Up> level;
    {
      const uint32_t cap = LeafCapacity() * 9 / 10;
      StrSort<Object>(&objects, cap);
      size_t i = 0;
      while (i < objects.size()) {
        size_t take = std::min<size_t>(cap, objects.size() - i);
        PageGuard g;
        BOXAGG_RETURN_NOT_OK(pool_->New(&g));
        SetHeader(g.page(), kLeafType, 0, static_cast<uint32_t>(take));
        Box mbr = objects[i].box;
        double agg = 0;
        for (size_t k = 0; k < take; ++k) {
          WriteLeafEntry(g.page(), static_cast<uint32_t>(k),
                         objects[i + k].box, objects[i + k].payload);
          mbr = mbr.Union(objects[i + k].box, dims_);
          agg += Traits::FullAggregate(objects[i + k].box,
                                       objects[i + k].payload, dims_);
        }
        g.MarkDirty();
        level.push_back(Up{mbr, g.id(), agg});
        i += take;
      }
    }
    uint16_t lvl = 0;
    const uint32_t icap = InternalCapacity() * 9 / 10;
    while (level.size() > 1) {
      ++lvl;
      StrSort<Up>(&level, icap);
      std::vector<Up> next;
      size_t i = 0;
      while (i < level.size()) {
        size_t take = std::min<size_t>(icap, level.size() - i);
        PageGuard g;
        BOXAGG_RETURN_NOT_OK(pool_->New(&g));
        SetHeader(g.page(), kInternalType, lvl, static_cast<uint32_t>(take));
        Box mbr = level[i].box;
        double agg = 0;
        for (size_t k = 0; k < take; ++k) {
          WriteInternalEntry(g.page(), static_cast<uint32_t>(k),
                             level[i + k].box, level[i + k].pid,
                             level[i + k].agg);
          mbr = mbr.Union(level[i + k].box, dims_);
          agg += level[i + k].agg;
        }
        g.MarkDirty();
        next.push_back(Up{mbr, g.id(), agg});
        i += take;
      }
      level = std::move(next);
    }
    root_ = level[0].pid;
    root_level_ = lvl;
    return Status::OK();
  }

  /// Total aggregate over every object.
  Status TotalAggregate(double* out) const {
    *out = 0;
    if (root_ == kInvalidPageId) return Status::OK();
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(root_, &g));
    const Page* p = g.page();
    uint32_t n = Count(p);
    if (Type(p) == kLeafType) {
      for (uint32_t i = 0; i < n; ++i) {
        Box b = LeafBox(p, i);
        Payload pl;
        ReadLeafPayload(p, i, &pl);
        *out += Traits::FullAggregate(b, pl, dims_);
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) *out += InternalAgg(p, i);
    }
    return Status::OK();
  }

  /// Pages owned by the tree.
  Status PageCount(uint64_t* out) const {
    *out = 0;
    if (root_ == kInvalidPageId) return Status::OK();
    return PageCountRec(root_, out);
  }

  /// Number of stored objects.
  Status CountObjects(uint64_t* out) const {
    *out = 0;
    if (root_ == kInvalidPageId) return Status::OK();
    return CountObjectsRec(root_, out);
  }

  /// Frees every page.
  Status Destroy() {
    if (root_ == kInvalidPageId) return Status::OK();
    BOXAGG_RETURN_NOT_OK(DestroyRec(root_));
    root_ = kInvalidPageId;
    root_level_ = 0;
    return Status::OK();
  }

  /// Deep structural audit: node types and the level chain (leaf iff level
  /// 0, child level == parent level - 1, root level matches the handle),
  /// fan-out bounds, the MBR identity, and the aggregate identity the
  /// aR-tree pruning shortcut depends on (a pruned subtree contributes its
  /// stored aggregate unvisited). R* maintenance recomputes parent boxes as
  /// exact unions, so the MBR check demands equality over the tree's `dims`
  /// coordinates, not mere containment — a merely-containing stale box
  /// still answers queries but breaks aR pruning tightness silently.
  Status CheckConsistency(CheckContext* ctx = nullptr) const {
    CheckContext local;
    if (ctx == nullptr) ctx = &local;
    if (root_ == kInvalidPageId) return Status::OK();
    Box mbr;
    double agg = 0;
    return CheckRec(root_, static_cast<int>(root_level_), /*is_root=*/true,
                    ctx, &mbr, &agg);
  }

 private:
  static constexpr uint16_t kLeafType = 7;
  static constexpr uint16_t kInternalType = 8;
  static constexpr uint32_t kHeaderSize = 8;
  static constexpr uint32_t kLeafEntrySize = sizeof(Box) + sizeof(Payload);
  static constexpr uint32_t kInternalEntrySize = sizeof(Box) + 16;
  /// R* parameters: minimum fill fraction and reinsert fraction.
  static constexpr double kMinFill = 0.4;
  static constexpr double kReinsertFrac = 0.3;

  /// An entry waiting to be (re)inserted at a given level.
  struct PendingEntry {
    Box box;
    int level = 0;            // node level this entry belongs at
    bool is_leaf_entry = false;
    Payload leaf_payload{};   // when is_leaf_entry
    PageId child = kInvalidPageId;  // when !is_leaf_entry
    double agg = 0;                 // when !is_leaf_entry
  };

  // ---- page accessors -----------------------------------------------------

  static void SetHeader(Page* p, uint16_t type, uint16_t level,
                        uint32_t count) {
    p->WriteAt<uint16_t>(0, type);
    p->WriteAt<uint16_t>(2, level);
    p->WriteAt<uint32_t>(4, count);
  }
  static uint16_t Type(const Page* p) { return p->ReadAt<uint16_t>(0); }
  static uint16_t Level(const Page* p) { return p->ReadAt<uint16_t>(2); }
  static uint32_t Count(const Page* p) { return p->ReadAt<uint32_t>(4); }
  static void SetCount(Page* p, uint32_t c) { p->WriteAt<uint32_t>(4, c); }

  static uint32_t LeafOff(uint32_t i) {
    return kHeaderSize + i * kLeafEntrySize;
  }
  static uint32_t IntOff(uint32_t i) {
    return kHeaderSize + i * kInternalEntrySize;
  }

  static Box LeafBox(const Page* p, uint32_t i) {
    return p->ReadAt<Box>(LeafOff(i));
  }
  static void ReadLeafPayload(const Page* p, uint32_t i, Payload* out) {
    p->ReadBytes(LeafOff(i) + sizeof(Box), out, sizeof(Payload));
  }
  static void WriteLeafEntry(Page* p, uint32_t i, const Box& b,
                             const Payload& pl) {
    p->WriteAt<Box>(LeafOff(i), b);
    p->WriteBytes(LeafOff(i) + sizeof(Box), &pl, sizeof(Payload));
  }

  static Box InternalBox(const Page* p, uint32_t i) {
    return p->ReadAt<Box>(IntOff(i));
  }
  static PageId InternalChild(const Page* p, uint32_t i) {
    return p->ReadAt<uint64_t>(IntOff(i) + sizeof(Box));
  }
  static double InternalAgg(const Page* p, uint32_t i) {
    return p->ReadAt<double>(IntOff(i) + sizeof(Box) + 8);
  }
  static void WriteInternalEntry(Page* p, uint32_t i, const Box& b,
                                 PageId child, double agg) {
    p->WriteAt<Box>(IntOff(i), b);
    p->WriteAt<uint64_t>(IntOff(i) + sizeof(Box), child);
    p->WriteAt<double>(IntOff(i) + sizeof(Box) + 8, agg);
  }

  // ---- STR helper ---------------------------------------------------------

  /// Sorts items (having a `box` member) into the STR tile order for 2-d
  /// (falls back to a plain x-sort for other dimensionalities).
  template <class Item>
  void StrSort(std::vector<Item>* items, uint32_t cap) const {
    auto center = [this](const Box& b, int d) {
      return (b.lo[d] + b.hi[d]) / 2;
    };
    std::sort(items->begin(), items->end(),
              [&](const Item& a, const Item& b) {
                return center(a.box, 0) < center(b.box, 0);
              });
    if (dims_ < 2) return;
    size_t n = items->size();
    size_t leaves = (n + cap - 1) / cap;
    size_t slabs = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(leaves))));
    if (slabs < 1) slabs = 1;
    size_t per_slab = (n + slabs - 1) / slabs;
    for (size_t s = 0; s * per_slab < n; ++s) {
      auto first = items->begin() + static_cast<ptrdiff_t>(s * per_slab);
      auto last = items->begin() + static_cast<ptrdiff_t>(
                                       std::min(n, (s + 1) * per_slab));
      std::sort(first, last, [&](const Item& a, const Item& b) {
        return center(a.box, 1) < center(b.box, 1);
      });
    }
  }

  // ---- query --------------------------------------------------------------

  Status QueryRec(PageId pid, const Box& q, bool use_aggregates,
                  double* out) const {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    const Page* p = g.page();
    uint32_t n = Count(p);
    if (Type(p) == kLeafType) {
      for (uint32_t i = 0; i < n; ++i) {
        Box b = LeafBox(p, i);
        if (!b.Intersects(q, dims_)) continue;
        Payload pl;
        ReadLeafPayload(p, i, &pl);
        *out += Traits::Contribution(b, pl, q, dims_);
      }
      return Status::OK();
    }
    std::vector<PageId> to_visit;
    for (uint32_t i = 0; i < n; ++i) {
      Box b = InternalBox(p, i);
      if (!b.Intersects(q, dims_)) continue;
      if (use_aggregates && q.Contains(b, dims_)) {
        *out += InternalAgg(p, i);
      } else {
        to_visit.push_back(InternalChild(p, i));
      }
    }
    g.Release();
    for (PageId c : to_visit) {
      BOXAGG_RETURN_NOT_OK(QueryRec(c, q, use_aggregates, out));
    }
    return Status::OK();
  }

  Status CountRec(PageId pid, const Box& q, uint64_t* out) const {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    const Page* p = g.page();
    uint32_t n = Count(p);
    if (Type(p) == kLeafType) {
      for (uint32_t i = 0; i < n; ++i) {
        if (LeafBox(p, i).Intersects(q, dims_)) ++(*out);
      }
      return Status::OK();
    }
    std::vector<PageId> to_visit;
    for (uint32_t i = 0; i < n; ++i) {
      if (InternalBox(p, i).Intersects(q, dims_)) {
        to_visit.push_back(InternalChild(p, i));
      }
    }
    g.Release();
    for (PageId c : to_visit) {
      BOXAGG_RETURN_NOT_OK(CountRec(c, q, out));
    }
    return Status::OK();
  }

  // ---- insertion ----------------------------------------------------------

  /// Inserts one pending entry at its level; overflow either reinserts 30%
  /// of the node (once per level per Insert call) or splits, propagating up.
  Status InsertPending(const PendingEntry& e,
                       std::vector<PendingEntry>* pending) {
    SplitUp split;
    BOXAGG_RETURN_NOT_OK(
        InsertAtLevel(root_, root_level_, e, pending, &split));
    if (split.happened) {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetHeader(g.page(), kInternalType,
                static_cast<uint16_t>(root_level_ + 1), 2);
      WriteInternalEntry(g.page(), 0, split.left_box, root_, split.left_agg);
      WriteInternalEntry(g.page(), 1, split.right_box, split.right_page,
                         split.right_agg);
      g.MarkDirty();
      root_ = g.id();
      ++root_level_;
    }
    return Status::OK();
  }

  struct SplitUp {
    bool happened = false;
    Box left_box, right_box;
    double left_agg = 0, right_agg = 0;
    PageId right_page = kInvalidPageId;
  };

  /// An in-memory node entry used while manipulating overflowing nodes.
  struct FlatEntry {
    Box box;
    PageId child = kInvalidPageId;
    double agg = 0;
    Payload payload{};
  };

  Status InsertAtLevel(PageId pid, int node_level, const PendingEntry& e,
                       std::vector<PendingEntry>* pending, SplitUp* split) {
    split->happened = false;
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    Page* page = g.page();
    uint32_t n = Count(page);

    if (node_level == e.level) {
      // Place the entry here.
      const bool leaf = Type(page) == kLeafType;
      const uint32_t cap = leaf ? LeafCapacity() : InternalCapacity();
      if (n < cap) {
        if (leaf) {
          WriteLeafEntry(page, n, e.box, e.leaf_payload);
        } else {
          WriteInternalEntry(page, n, e.box, e.child, e.agg);
        }
        SetCount(page, n + 1);
        g.MarkDirty();
        return Status::OK();
      }
      // Overflow treatment.
      std::vector<FlatEntry> all = ReadAll(page, leaf, n);
      FlatEntry fe;
      fe.box = e.box;
      if (leaf) {
        fe.payload = e.leaf_payload;
      } else {
        fe.child = e.child;
        fe.agg = e.agg;
      }
      all.push_back(fe);
      const uint32_t level_bit = 1u << node_level;
      if (node_level != root_level_ && !(reinserted_levels_ & level_bit)) {
        reinserted_levels_ |= level_bit;
        ReinsertFarthest(&all, node_level, leaf, pending);
        WriteAll(page, leaf, static_cast<uint16_t>(node_level), all);
        g.MarkDirty();
        return Status::OK();
      }
      BOXAGG_RETURN_NOT_OK(
          SplitNode(page, &g, leaf, node_level, std::move(all), split));
      return Status::OK();
    }

    // Descend via R* ChooseSubtree.
    uint32_t best = ChooseSubtree(page, n, e.box, node_level == e.level + 1);
    Box old_box = InternalBox(page, best);
    PageId child = InternalChild(page, best);
    double old_agg = InternalAgg(page, best);
    SplitUp child_split;
    BOXAGG_RETURN_NOT_OK(
        InsertAtLevel(child, node_level - 1, e, pending, &child_split));
    double added_agg = EntryAggregate(e);
    if (!child_split.happened) {
      // Note: a reinsertion below may have shrunk the child; recompute its
      // MBR/aggregate exactly.
      Box nb;
      double na = 0;
      BOXAGG_RETURN_NOT_OK(NodeSummary(child, &nb, &na));
      WriteInternalEntry(page, best, nb, child, na);
      g.MarkDirty();
      (void)old_box;
      (void)old_agg;
      (void)added_agg;
      return Status::OK();
    }
    // Child split: update entry `best`, then add the new sibling here.
    WriteInternalEntry(page, best, child_split.left_box, child,
                       child_split.left_agg);
    g.MarkDirty();
    PendingEntry sibling;
    sibling.box = child_split.right_box;
    sibling.level = node_level;
    sibling.is_leaf_entry = false;
    sibling.child = child_split.right_page;
    sibling.agg = child_split.right_agg;
    if (n < InternalCapacity()) {
      WriteInternalEntry(page, n, sibling.box, sibling.child, sibling.agg);
      SetCount(page, n + 1);
      return Status::OK();
    }
    std::vector<FlatEntry> all = ReadAll(page, /*leaf=*/false, n);
    FlatEntry fe;
    fe.box = sibling.box;
    fe.child = sibling.child;
    fe.agg = sibling.agg;
    all.push_back(fe);
    const uint32_t level_bit = 1u << node_level;
    if (node_level != root_level_ && !(reinserted_levels_ & level_bit)) {
      reinserted_levels_ |= level_bit;
      ReinsertFarthest(&all, node_level, /*leaf=*/false, pending);
      WriteAll(page, /*leaf=*/false, static_cast<uint16_t>(node_level), all);
      g.MarkDirty();
      return Status::OK();
    }
    BOXAGG_RETURN_NOT_OK(SplitNode(page, &g, /*leaf=*/false, node_level,
                                   std::move(all), split));
    return Status::OK();
  }

  double EntryAggregate(const PendingEntry& e) const {
    return e.is_leaf_entry
               ? Traits::FullAggregate(e.box, e.leaf_payload, dims_)
               : e.agg;
  }

  std::vector<FlatEntry> ReadAll(const Page* p, bool leaf, uint32_t n) const {
    std::vector<FlatEntry> out(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (leaf) {
        out[i].box = LeafBox(p, i);
        ReadLeafPayload(p, i, &out[i].payload);
      } else {
        out[i].box = InternalBox(p, i);
        out[i].child = InternalChild(p, i);
        out[i].agg = InternalAgg(p, i);
      }
    }
    return out;
  }

  void WriteAll(Page* p, bool leaf, uint16_t level,
                const std::vector<FlatEntry>& all) const {
    SetHeader(p, leaf ? kLeafType : kInternalType, level,
              static_cast<uint32_t>(all.size()));
    for (uint32_t i = 0; i < all.size(); ++i) {
      if (leaf) {
        WriteLeafEntry(p, i, all[i].box, all[i].payload);
      } else {
        WriteInternalEntry(p, i, all[i].box, all[i].child, all[i].agg);
      }
    }
  }

  /// Removes the kReinsertFrac entries farthest from the node centroid and
  /// queues them for reinsertion (R* forced reinsert).
  void ReinsertFarthest(std::vector<FlatEntry>* all, int node_level,
                        bool leaf, std::vector<PendingEntry>* pending) const {
    Box mbr = (*all)[0].box;
    for (const auto& fe : *all) mbr = mbr.Union(fe.box, dims_);
    Point center;
    for (int d = 0; d < dims_; ++d) center[d] = (mbr.lo[d] + mbr.hi[d]) / 2;
    auto dist2 = [&](const FlatEntry& fe) {
      double s = 0;
      for (int d = 0; d < dims_; ++d) {
        double c = (fe.box.lo[d] + fe.box.hi[d]) / 2 - center[d];
        s += c * c;
      }
      return s;
    };
    std::sort(all->begin(), all->end(),
              [&](const FlatEntry& a, const FlatEntry& b) {
                return dist2(a) < dist2(b);
              });
    size_t keep = all->size() -
                  static_cast<size_t>(std::floor(
                      static_cast<double>(all->size()) * kReinsertFrac));
    if (keep < 2) keep = 2;
    for (size_t i = keep; i < all->size(); ++i) {
      PendingEntry pe;
      pe.box = (*all)[i].box;
      pe.level = node_level;
      if (leaf) {
        pe.is_leaf_entry = true;
        pe.leaf_payload = (*all)[i].payload;
      } else {
        pe.child = (*all)[i].child;
        pe.agg = (*all)[i].agg;
      }
      pending->push_back(pe);
    }
    all->resize(keep);
  }

  /// R* split of an overflowing node's entries; `page` keeps the left group.
  Status SplitNode(Page* page, PageGuard* g, bool leaf, int node_level,
                   std::vector<FlatEntry> all, SplitUp* split) {
    const size_t total = all.size();
    const size_t min_fill = std::max<size_t>(
        2, static_cast<size_t>(static_cast<double>(total) * kMinFill));

    // ChooseSplitAxis: minimize the margin sum over all distributions.
    int best_axis = 0;
    bool best_by_hi = false;
    double best_margin = std::numeric_limits<double>::infinity();
    for (int d = 0; d < dims_; ++d) {
      for (int by_hi = 0; by_hi < 2; ++by_hi) {
        SortEntries(&all, d, by_hi != 0);
        double margin = 0;
        for (size_t k = min_fill; k + min_fill <= total; ++k) {
          margin += GroupBox(all, 0, k).Margin(dims_) +
                    GroupBox(all, k, total).Margin(dims_);
        }
        if (margin < best_margin) {
          best_margin = margin;
          best_axis = d;
          best_by_hi = by_hi != 0;
        }
      }
    }
    SortEntries(&all, best_axis, best_by_hi);
    // ChooseSplitIndex: minimal overlap, ties by minimal total area.
    size_t best_k = min_fill;
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t k = min_fill; k + min_fill <= total; ++k) {
      Box lb = GroupBox(all, 0, k);
      Box rb = GroupBox(all, k, total);
      double overlap =
          lb.Intersects(rb, dims_) ? lb.Intersection(rb, dims_).Volume(dims_)
                                   : 0.0;
      double area = lb.Volume(dims_) + rb.Volume(dims_);
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_k = k;
      }
    }

    std::vector<FlatEntry> left(all.begin(),
                                all.begin() + static_cast<ptrdiff_t>(best_k));
    std::vector<FlatEntry> right(all.begin() + static_cast<ptrdiff_t>(best_k),
                                 all.end());
    WriteAll(page, leaf, static_cast<uint16_t>(node_level), left);
    g->MarkDirty();
    PageGuard rg;
    BOXAGG_RETURN_NOT_OK(pool_->New(&rg));
    WriteAll(rg.page(), leaf, static_cast<uint16_t>(node_level), right);
    rg.MarkDirty();

    split->happened = true;
    split->left_box = GroupBox(left, 0, left.size());
    split->right_box = GroupBox(right, 0, right.size());
    split->left_agg = GroupAgg(left, leaf);
    split->right_agg = GroupAgg(right, leaf);
    split->right_page = rg.id();
    return Status::OK();
  }

  void SortEntries(std::vector<FlatEntry>* all, int d, bool by_hi) const {
    std::sort(all->begin(), all->end(),
              [d, by_hi](const FlatEntry& a, const FlatEntry& b) {
                return by_hi ? a.box.hi[d] < b.box.hi[d]
                             : a.box.lo[d] < b.box.lo[d];
              });
  }

  Box GroupBox(const std::vector<FlatEntry>& all, size_t lo,
               size_t hi) const {
    Box b = all[lo].box;
    for (size_t i = lo + 1; i < hi; ++i) b = b.Union(all[i].box, dims_);
    return b;
  }

  double GroupAgg(const std::vector<FlatEntry>& all, bool leaf) const {
    double s = 0;
    for (const auto& fe : all) {
      s += leaf ? Traits::FullAggregate(fe.box, fe.payload, dims_) : fe.agg;
    }
    return s;
  }

  /// R* ChooseSubtree: minimum overlap enlargement just above the leaves,
  /// minimum area enlargement elsewhere.
  uint32_t ChooseSubtree(const Page* p, uint32_t n, const Box& box,
                         bool children_are_leaves) const {
    uint32_t best = 0;
    double best_primary = std::numeric_limits<double>::infinity();
    double best_secondary = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (uint32_t i = 0; i < n; ++i) {
      Box b = InternalBox(p, i);
      Box enlarged = b.Union(box, dims_);
      double area = b.Volume(dims_);
      double enlargement = enlarged.Volume(dims_) - area;
      double primary, secondary;
      if (children_are_leaves) {
        // Overlap enlargement against the sibling entries.
        double before = 0, after = 0;
        for (uint32_t j = 0; j < n; ++j) {
          if (j == i) continue;
          Box o = InternalBox(p, j);
          if (b.Intersects(o, dims_)) {
            before += b.Intersection(o, dims_).Volume(dims_);
          }
          if (enlarged.Intersects(o, dims_)) {
            after += enlarged.Intersection(o, dims_).Volume(dims_);
          }
        }
        primary = after - before;
        secondary = enlargement;
      } else {
        primary = enlargement;
        secondary = area;
      }
      if (primary < best_primary ||
          (primary == best_primary && secondary < best_secondary) ||
          (primary == best_primary && secondary == best_secondary &&
           area < best_area)) {
        best_primary = primary;
        best_secondary = secondary;
        best_area = area;
        best = i;
      }
    }
    return best;
  }

  /// Recomputes a node's MBR and aggregate from its entries.
  Status NodeSummary(PageId pid, Box* box, double* agg) const {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    const Page* p = g.page();
    uint32_t n = Count(p);
    *agg = 0;
    if (n == 0) {
      *box = Box(Point::MaxPoint(dims_), Point::MinPoint(dims_));
      return Status::OK();
    }
    if (Type(p) == kLeafType) {
      *box = LeafBox(p, 0);
      for (uint32_t i = 0; i < n; ++i) {
        Box b = LeafBox(p, i);
        *box = box->Union(b, dims_);
        Payload pl;
        ReadLeafPayload(p, i, &pl);
        *agg += Traits::FullAggregate(b, pl, dims_);
      }
    } else {
      *box = InternalBox(p, 0);
      for (uint32_t i = 0; i < n; ++i) {
        *box = box->Union(InternalBox(p, i), dims_);
        *agg += InternalAgg(p, i);
      }
    }
    return Status::OK();
  }

  // ---- verification -------------------------------------------------------

  /// Exact equality of two boxes over the first `dims_` coordinates (unused
  /// trailing coordinates of the fixed-size Box may legitimately differ).
  bool BoxesEqual(const Box& a, const Box& b) const {
    for (int d = 0; d < dims_; ++d) {
      if (a.lo[d] != b.lo[d] || a.hi[d] != b.hi[d]) return false;
    }
    return true;
  }

  Status CheckRec(PageId pid, int level, bool is_root, CheckContext* ctx,
                  Box* mbr, double* agg) const {
    BOXAGG_RETURN_NOT_OK(ctx->Visit(pid, "rstar-tree"));
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    const Page* p = g.page();
    const uint16_t type = Type(p);
    if (type != kLeafType && type != kInternalType) {
      return CorruptionAt(pid,
                          "rstar-tree: bad node type " + std::to_string(type));
    }
    if ((type == kLeafType) != (level == 0)) {
      return CorruptionAt(pid, "rstar-tree: node type does not match level " +
                                   std::to_string(level));
    }
    if (Level(p) != level) {
      return CorruptionAt(
          pid, "rstar-tree: stored level " + std::to_string(Level(p)) +
                   " != expected " + std::to_string(level));
    }
    const uint32_t cap =
        type == kLeafType ? LeafCapacity() : InternalCapacity();
    const uint32_t n = Count(p);
    if (n == 0 || n > cap) {
      return CorruptionAt(pid, "rstar-tree: entry count " + std::to_string(n) +
                                   " outside [1, " + std::to_string(cap) +
                                   "]");
    }
    if (!is_root && n < 2) {
      return CorruptionAt(pid, "rstar-tree: underfull non-root node");
    }

    *agg = 0;
    if (type == kLeafType) {
      *mbr = LeafBox(p, 0);
      for (uint32_t i = 0; i < n; ++i) {
        Box b = LeafBox(p, i);
        for (int d = 0; d < dims_; ++d) {
          if (!(b.lo[d] <= b.hi[d])) {
            return CorruptionAt(pid, "rstar-tree: inverted object box at "
                                     "entry " +
                                         std::to_string(i));
          }
        }
        *mbr = mbr->Union(b, dims_);
        Payload pl;
        ReadLeafPayload(p, i, &pl);
        *agg += Traits::FullAggregate(b, pl, dims_);
      }
      return Status::OK();
    }

    *mbr = InternalBox(p, 0);
    for (uint32_t i = 0; i < n; ++i) {
      Box child_mbr;
      double child_agg = 0;
      BOXAGG_RETURN_NOT_OK(CheckRec(InternalChild(p, i), level - 1,
                                    /*is_root=*/false, ctx, &child_mbr,
                                    &child_agg));
      if (!BoxesEqual(InternalBox(p, i), child_mbr)) {
        return CorruptionAt(pid, "rstar-tree: entry " + std::to_string(i) +
                                     " box != exact union of child entries "
                                     "(stale MBR)");
      }
      if (std::abs(InternalAgg(p, i) - child_agg) > kAggDriftTolerance) {
        return CorruptionAt(pid, "rstar-tree: entry " + std::to_string(i) +
                                     " aggregate != recomputed subtree "
                                     "aggregate");
      }
      *mbr = mbr->Union(child_mbr, dims_);
      *agg += child_agg;
    }
    return Status::OK();
  }

  // ---- maintenance --------------------------------------------------------

  Status PageCountRec(PageId pid, uint64_t* out) const {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    *out += 1;
    if (Type(g.page()) == kLeafType) return Status::OK();
    uint32_t n = Count(g.page());
    std::vector<PageId> kids(n);
    for (uint32_t i = 0; i < n; ++i) kids[i] = InternalChild(g.page(), i);
    g.Release();
    for (PageId c : kids) {
      BOXAGG_RETURN_NOT_OK(PageCountRec(c, out));
    }
    return Status::OK();
  }

  Status CountObjectsRec(PageId pid, uint64_t* out) const {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    if (Type(g.page()) == kLeafType) {
      *out += Count(g.page());
      return Status::OK();
    }
    uint32_t n = Count(g.page());
    std::vector<PageId> kids(n);
    for (uint32_t i = 0; i < n; ++i) kids[i] = InternalChild(g.page(), i);
    g.Release();
    for (PageId c : kids) {
      BOXAGG_RETURN_NOT_OK(CountObjectsRec(c, out));
    }
    return Status::OK();
  }

  Status DestroyRec(PageId pid) {
    std::vector<PageId> kids;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
      if (Type(g.page()) == kInternalType) {
        uint32_t n = Count(g.page());
        for (uint32_t i = 0; i < n; ++i) {
          kids.push_back(InternalChild(g.page(), i));
        }
      }
    }
    for (PageId c : kids) {
      BOXAGG_RETURN_NOT_OK(DestroyRec(c));
    }
    return pool_->Delete(pid);
  }

  BufferPool* pool_;
  int dims_;
  PageId root_;
  uint16_t root_level_;
  uint32_t reinserted_levels_ = 0;  // per-Insert forced-reinsert bookkeeping
};

}  // namespace boxagg

#endif  // BOXAGG_RTREE_RSTAR_TREE_H_
