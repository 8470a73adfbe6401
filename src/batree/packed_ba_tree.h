// PackedBaTree: the Box Aggregation Tree (Sec. 5) — the paper's main index —
// with the paper's border-packing remedy.
//
// A d-dimensional BA-tree is a k-d-B-tree ([28]) whose index records are
// augmented with aggregate information so a dominance-sum query follows a
// single root-to-leaf path. Each index record r (box + child pointer) also
// carries:
//   - subtotal: total value of in-scope points dominated by r.box's low
//     corner in every dimension;
//   - d borders: border i is a (d-1)-dimensional dominance-sum set (stored
//     in the node page or as its own tree, see "Border packing" below)
//     holding in-scope points whose FIRST deficient dimension is i
//     (p_i < r.lo_i, p_j >= r.lo_j for j < i), projected by dropping
//     dimension i.
//
// "In scope" means points routed through r's node that satisfy
// p_j < r.hi_j in every dimension (others can never be dominated by a query
// inside r.box). This classification partitions all in-scope points and
// reduces, at every node on the path, the outside contribution to one
// subtotal plus d (d-1)-dimensional dominance-sums — the paper's Fig. 7
// picture, generalized beyond two dimensions.
//
// Split maintenance follows Fig. 8. When a record r splits along dimension m
// at x into r1 (low) and r2 (high):
//   - r1 keeps r.subtotal and border_m; its other borders drop entries with
//     coordinate_m >= x (they fall outside r1's scope).
//   - r2 starts from r.subtotal and reclassifies every border entry against
//     its raised low corner; entries deficient in a dimension j < i migrate
//     to border_j with the dropped coordinate i re-inserted as -infinity
//     (sound: that coordinate is below every low corner the record lineage
//     will ever have, so it is dominated by every reachable query).
//   - If the split child is a LEAF, the points of the low half additionally
//     enter border_m of r2 (Fig. 8b); if it is an index node they are
//     already accounted for by the child's own records (Fig. 8d).
// Index-node splits force-split crossing child records recursively, as in
// the k-d-B-tree.
//
// Border packing. Sec. 4/5 of the paper note that keeping every border as a
// separate tree "costs one I/O to retrieve" and is wasteful when borders are
// small; the proposed remedy is to "use a single disk page to keep multiple
// borders, preferably the borders in the same index page". This tree
// implements exactly that: every index node page carries, next to its
// fixed-size records, a heap of *inline borders* — sorted runs of projected
// (point, value) entries answered by an in-page scan. A dominance-sum query
// that visits the node reads its subtotal and all of its inline borders with
// ZERO additional I/Os. Only borders too large to share the node page spill
// into their own (d-1)-dimensional trees (an aggregate B+-tree at d-1 == 1,
// recursively a PackedBaTree above that).
//
// Page layout:
//   leaf (type 5):     u16 type, u16 pad, u32 count; entries {Point, V}
//   internal (type 10): u16 type, u16 pad, u32 count, u32 heap_start,
//                       u32 reserved;
//     records at 16 + i * RecordSize: {Box, u64 child, V subtotal,
//                                      u64 border_ref[dims]}
//     border_ref: kEmptyRef            = empty border
//                 MSB set              = inline: low 32 bits are the byte
//                                        offset of a heap block in this page
//                 otherwise            = root PageId of a spilled tree
//     heap block: u16 entry_count, u16 reserved;
//                 entries {f64 coord[dims-1], V} in lexicographic order

#ifndef BOXAGG_BATREE_PACKED_BA_TREE_H_
#define BOXAGG_BATREE_PACKED_BA_TREE_H_

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bptree/agg_btree.h"
#include "check/checkable.h"
#include "core/arena.h"
#include "core/point_entry.h"
#include "geom/box.h"
#include "obs/query_obs.h"
#include "simd/simd.h"
#include "storage/buffer_pool.h"

namespace boxagg {

/// \brief BA-tree with in-node border packing (the paper's space remedy).
template <class V>
class PackedBaTree {
 public:
  using Entry = PointEntry<V>;

  /// `view` non-null binds the handle to a pinned generation snapshot (MVCC):
  /// every node read resolves through the view's version map and the handle
  /// rejects mutation. Null (default) reads/writes the live tree.
  PackedBaTree(BufferPool* pool, int dims, PageId root = kInvalidPageId,
               const PageVersionView* view = nullptr)
      : pool_(pool), dims_(dims), root_(root), view_(view) {
    assert(dims_ >= 1 && dims_ <= kMaxDims);
  }

  [[nodiscard]] PageId root() const { return root_; }
  [[nodiscard]] bool empty() const { return root_ == kInvalidPageId; }
  [[nodiscard]] int dims() const { return dims_; }

  uint32_t LeafCapacity() const {
    return (pool_->file()->page_size() - kLeafHeader) / kLeafEntrySize;
  }
  /// Target fan-out: leave room for roughly kReserveEntriesPerBorder inline
  /// border entries per record next to the fixed record array.
  uint32_t FanoutTarget() const {
    uint32_t per_record =
        RecordSize() + kReserveEntriesPerBorder *
                           static_cast<uint32_t>(dims_) * BorderEntrySize();
    uint32_t t = (pool_->file()->page_size() - kIntHeader) / per_record;
    return t < 4 ? 4 : t;
  }
  bool PageSizeViable() const {
    return LeafCapacity() >= 4 &&
           (pool_->file()->page_size() - kIntHeader) / RecordSize() >= 4 &&
           AggBTree<V>::PageSizeViable(pool_->file()->page_size());
  }

  /// Adds `v` at point `p`.
  Status Insert(const Point& p, const V& v) {
    BOXAGG_RETURN_NOT_OK(RequireWritable());
    if (!PageSizeViable()) {
      return Status::InvalidArgument("page size too small for value type");
    }
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      BOXAGG_RETURN_NOT_OK(base.Insert(p[0], v));
      root_ = base.root();
      return Status::OK();
    }
    if (root_ == kInvalidPageId) {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetLeafHeader(g.page(), 1);
      WriteLeafEntry(g.page(), 0, p, v);
      g.MarkDirty();
      root_ = g.id();
      return Status::OK();
    }
    SplitResult split;
    BOXAGG_RETURN_NOT_OK(InsertRec(root_, p, v, &split));
    if (split.happened) {
      RecImage virt;
      virt.box = Box::Universe(dims_);
      virt.child = root_;
      RecImage r1, r2;
      BOXAGG_RETURN_NOT_OK(SplitRecord(virt, split.dim, split.value, root_,
                                       split.right_page, split.child_was_leaf,
                                       &r1, &r2));
      std::vector<RecImage> recs;
      recs.push_back(std::move(r1));
      recs.push_back(std::move(r2));
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      PageId pid = g.id();
      g.Release();
      BOXAGG_RETURN_NOT_OK(StoreNode(pid, &recs));
      root_ = pid;
    }
    return Status::OK();
  }

  // LINT:hot-path — descent: no heap allocation past warm-up (lint.sh)
  /// Total value of all points dominated by `q`. A +infinity coordinate
  /// (an unbounded query side) is clamped to the largest finite double,
  /// which dominates every storable point, so half-space and whole-space
  /// queries work.
  Status DominanceSum(const Point& query, V* out,
                      unsigned obs_level = 0) const {
    *out = V{};
    if (root_ == kInvalidPageId) return Status::OK();
    Point q = query;
    for (int d = 0; d < dims_; ++d) {
      q[d] = std::min(q[d], std::numeric_limits<double>::max());
    }
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      return base.DominanceSum(q[0], out, obs_level);
    }
    PageId pid = root_;
    for (unsigned level = obs_level;; ++level) {
      // Spilled-border queries below need their own pins; collect them while
      // the node page is mapped, then run them unpinned.
      core::ArenaScope scope(core::ScratchArena());
      core::ArenaVector<std::pair<int, PageId>> tree_borders;
      PageId next = kInvalidPageId;
      {
        PageGuard g;
        BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
        obs::NoteNodeVisit(level);
        const Page* page = g.page();
        if (PageType(page) == kLeaf) {
          uint32_t n = LeafCount(page);
          for (uint32_t i = 0; i < n; ++i) {
            Point pt = LeafPoint(page, i);
            if (simd::Dominates(q, pt, dims_)) {
              V v;
              ReadLeafValue(page, i, &v);
              *out += v;
            }
          }
          return Status::OK();
        }
        uint32_t n = IntCount(page);
        bool found = false;
        for (uint32_t i = 0; i < n && !found; ++i) {
          Box box = RecBox(page, i);
          if (!simd::ContainsHalfOpen(box, q, dims_)) continue;
          found = true;
          V sub;
          ReadRecSubtotal(page, i, &sub);
          *out += sub;
          for (int b = 0; b < dims_; ++b) {
            uint64_t ref = RecBorderRef(page, i, b);
            if (ref == kEmptyRef) continue;
            Point projected = q.DropDim(b, dims_);
            if (IsInlineRef(ref)) {
              // In-page scan: zero extra I/O — the packing payoff. Entries
              // are copied out (ReadBlockEntry) before the vector compare:
              // a packed block near the page end may hold fewer than
              // kMaxDims doubles per entry, so in-place loads could overrun.
              uint32_t off = InlineOffset(ref);
              uint32_t cnt = BlockCount(page, off);
              for (uint32_t k = 0; k < cnt; ++k) {
                Point pt;
                V v;
                ReadBlockEntry(page, off, k, &pt, &v);
                if (simd::Dominates(projected, pt, dims_ - 1)) *out += v;
              }
            } else {
              tree_borders.push_back({b, static_cast<PageId>(ref)});
            }
          }
          next = RecChild(page, i);
        }
        if (!found) {
          return Status::Corruption("query point not covered by any record");
        }
      }
      for (auto [b, tree_root] : tree_borders) {
        obs::NoteBorderProbes(1);
        V part;
        BOXAGG_RETURN_NOT_OK(
            BorderTreeQuery(tree_root, q.DropDim(b, dims_), &part, level + 1));
        *out += part;
      }
      pid = next;
    }
  }

  /// Batched dominance sums: outs[i] = DominanceSum(queries[i]),
  /// bit-identical to `count` independent calls — each probe performs the
  /// same subtotal, inline-border, spilled-border, and leaf additions in the
  /// same order; only the traversal order across probes and the page-fetch
  /// count change. Probes are gathered per record in page order (first
  /// containing record wins, like the sequential scan); inline borders are
  /// scanned in-page while the node is pinned, spilled border trees are
  /// probed with sub-batches after the pin is dropped — mirroring the
  /// sequential pin discipline exactly, so count == 1 reproduces seed I/O.
  Status DominanceSumBatch(const Point* queries, size_t count, V* outs,
                           unsigned obs_level = 0) const {
    for (size_t i = 0; i < count; ++i) outs[i] = V{};
    if (root_ == kInvalidPageId || count == 0) return Status::OK();
    core::ArenaScope scope(core::ScratchArena());
    core::ArenaVector<Point> qs(queries, queries + count);
    for (auto& q : qs) {
      for (int d = 0; d < dims_; ++d) {
        q[d] = std::min(q[d], std::numeric_limits<double>::max());
      }
    }
    if (dims_ == 1) {
      core::ArenaVector<double> keys(count);
      for (size_t i = 0; i < count; ++i) keys[i] = qs[i][0];
      AggBTree<V> base(pool_, root_, view_);
      return base.DominanceSumBatch(keys.data(), count, outs, obs_level);
    }
    core::ArenaVector<uint32_t> order(count);
    for (size_t i = 0; i < count; ++i) order[i] = static_cast<uint32_t>(i);
    const core::ArenaVector<Point>& q_ref = qs;
    std::sort(order.begin(), order.end(),
              [this, &q_ref](uint32_t a, uint32_t b) {
                if (LexLess(q_ref[a], q_ref[b], dims_)) return true;
                if (LexLess(q_ref[b], q_ref[a], dims_)) return false;
                return a < b;
              });
    return DominanceBatchRec(root_, order.data(), count, qs.data(), outs,
                             obs_level);
  }

  // LINT:hot-path-end
  /// Collects every (point, value) in main-branch leaves, sorted.
  Status ScanAll(std::vector<Entry>* out) const {
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      std::vector<typename AggBTree<V>::Entry> flat;
      BOXAGG_RETURN_NOT_OK(base.ScanAll(&flat));
      for (const auto& e : flat) out->push_back(Entry{Point(e.key), e.value});
      return Status::OK();
    }
    BOXAGG_RETURN_NOT_OK(ScanRec(root_, out));
    std::sort(out->begin(), out->end(),
              [this](const Entry& a, const Entry& b) {
                return LexLess(a.pt, b.pt, dims_);
              });
    return Status::OK();
  }

  /// Pages owned by the tree (main branch + spilled borders).
  Status PageCount(uint64_t* out) const {
    *out = 0;
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      return base.PageCount(out);
    }
    return PageCountRec(root_, out);
  }

  /// Bulk-loads an empty tree: recursive median partitioning builds the
  /// k-d-B structure top-down; each node's record borders are classified
  /// directly from the node's full point set.
  Status BulkLoad(std::vector<Entry> entries) {
    BOXAGG_RETURN_NOT_OK(RequireWritable());
    if (root_ != kInvalidPageId) {
      return Status::InvalidArgument("BulkLoad into non-empty tree");
    }
    if (!PageSizeViable()) {
      return Status::InvalidArgument("page size too small for value type");
    }
    SortAndCoalesce(&entries, dims_);
    if (entries.empty()) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_);
      std::vector<typename AggBTree<V>::Entry> flat;
      flat.reserve(entries.size());
      for (const auto& e : entries) flat.push_back({e.pt[0], e.value});
      BOXAGG_RETURN_NOT_OK(base.BulkLoad(flat));
      root_ = base.root();
      return Status::OK();
    }
    return BuildRec(&entries, 0, entries.size(), Box::Universe(dims_),
                    &root_);
  }

  /// Deep structural audit (test/debug aid and fsck entry point). Checks
  /// the invariants that are reconstructible from the current state:
  ///  (a) every leaf point lies inside the half-open box of every record on
  ///      its root-to-leaf path, and in exactly one record per node;
  ///  (b) when ctx->check_oracle (the default), a self-oracle: DominanceSum
  ///      at a sample of probe points (data points and perturbations)
  ///      equals a linear scan over the tree's own leaves;
  ///  (c) raw packed-page layout — record array and border heap must not
  ///      overlap, every inline border block must lie inside the heap with
  ///      a sane entry count and strictly sorted entries, and spilled border
  ///      trees are audited recursively down to the AggBTree base case.
  /// Per-record aggregates cannot be re-derived by classifying the node's
  /// point set: after an index-record split the high half's borders
  /// legitimately exclude sibling points that predate the split (Fig. 8d) —
  /// those are counted deeper, which only a query observes (hence (b)).
  /// `ctx` threads the page ownership set across structures (see
  /// src/check/checkable.h).
  Status CheckConsistency(CheckContext* ctx = nullptr) const {
    CheckContext local;
    if (ctx == nullptr) ctx = &local;
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      return base.CheckConsistency(ctx);
    }
    std::vector<Entry> pts;
    BOXAGG_RETURN_NOT_OK(CheckRec(root_, ctx, &pts));
    if (ctx->check_oracle) return SelfOracle(pts);
    return Status::OK();
  }

  /// Frees every page.
  Status Destroy() {
    BOXAGG_RETURN_NOT_OK(RequireWritable());
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_, view_);
      BOXAGG_RETURN_NOT_OK(base.Destroy());
    } else {
      BOXAGG_RETURN_NOT_OK(DestroyRec(root_));
    }
    root_ = kInvalidPageId;
    return Status::OK();
  }

 private:
  // The replica builder snapshots nodes through the raw accessors below.
  template <class>
  friend class ReplicaBuilder;

  static constexpr uint16_t kLeaf = 5;
  static constexpr uint16_t kInternal = 10;
  static constexpr uint32_t kLeafHeader = 8;
  static constexpr uint32_t kIntHeader = 16;
  static constexpr uint32_t kLeafEntrySize = sizeof(Point) + sizeof(V);
  static constexpr uint32_t kBlockHeader = 4;
  static constexpr uint64_t kEmptyRef = ~uint64_t{0};
  static constexpr uint64_t kInlineTag = uint64_t{1} << 63;
  /// Inline borders beyond this many entries spill to their own tree even if
  /// they would fit (keeps in-page scans short).
  static constexpr uint32_t kMaxInlineEntries = 192;
  /// Fan-out sizing reserve (entries per border per record).
  static constexpr uint32_t kReserveEntriesPerBorder = 6;

  struct BorderImage {
    PageId tree = kInvalidPageId;           // spilled tree root, or
    std::vector<Entry> inline_entries;      // packed entries (sorted)
    bool IsTree() const { return tree != kInvalidPageId; }
    bool Empty() const {
      return tree == kInvalidPageId && inline_entries.empty();
    }
  };

  struct RecImage {
    Box box;
    PageId child = kInvalidPageId;
    V subtotal{};
    std::array<BorderImage, kMaxDims> border;
  };

  struct SplitResult {
    bool happened = false;
    int dim = 0;
    double value = 0.0;
    PageId right_page = kInvalidPageId;
    bool child_was_leaf = false;
  };

  uint32_t RecordSize() const {
    return sizeof(Box) + 8 + sizeof(V) + 8 * static_cast<uint32_t>(dims_);
  }
  uint32_t BorderEntrySize() const {
    return 8 * static_cast<uint32_t>(dims_ - 1) + sizeof(V);
  }

  // ---- MVCC plumbing ------------------------------------------------------

  /// Mutations are only legal on a live (view-less) handle; a snapshot-bound
  /// tree is immutable by construction.
  Status RequireWritable() const {
    if (view_ != nullptr) {
      return Status::InvalidArgument(
          "mutation through a snapshot-bound tree handle");
    }
    return Status::OK();
  }
  /// Routes a node read through the pinned snapshot when bound to one.
  Status FetchNode(PageId pid, PageGuard* g) const {
    return view_ != nullptr ? pool_->FetchSnapshot(*view_, pid, g)
                            : pool_->Fetch(pid, g);
  }
  void PrefetchNode(PageId pid) const {
    if (view_ != nullptr) {
      pool_->PrefetchSnapshotHint(*view_, pid);
    } else {
      pool_->PrefetchHint(pid);
    }
  }

  // ---- raw page accessors -------------------------------------------------

  static uint16_t PageType(const Page* p) { return p->ReadAt<uint16_t>(0); }

  static void SetLeafHeader(Page* p, uint32_t count) {
    p->WriteAt<uint16_t>(0, kLeaf);
    p->WriteAt<uint16_t>(2, 0);
    p->WriteAt<uint32_t>(4, count);
  }
  static uint32_t LeafCount(const Page* p) { return p->ReadAt<uint32_t>(4); }
  static void SetLeafCount(Page* p, uint32_t c) { p->WriteAt<uint32_t>(4, c); }
  static uint32_t LeafOff(uint32_t i) {
    return kLeafHeader + i * kLeafEntrySize;
  }
  static Point LeafPoint(const Page* p, uint32_t i) {
    return p->ReadAt<Point>(LeafOff(i));
  }
  static void ReadLeafValue(const Page* p, uint32_t i, V* v) {
    p->ReadBytes(LeafOff(i) + sizeof(Point), v, sizeof(V));
  }
  static void WriteLeafEntry(Page* p, uint32_t i, const Point& pt,
                             const V& v) {
    p->WriteAt<Point>(LeafOff(i), pt);
    p->WriteBytes(LeafOff(i) + sizeof(Point), &v, sizeof(V));
  }

  static uint32_t IntCount(const Page* p) { return p->ReadAt<uint32_t>(4); }
  uint32_t RecOff(uint32_t i) const { return kIntHeader + i * RecordSize(); }
  Box RecBox(const Page* p, uint32_t i) const {
    return p->ReadAt<Box>(RecOff(i));
  }
  PageId RecChild(const Page* p, uint32_t i) const {
    return p->ReadAt<uint64_t>(RecOff(i) + sizeof(Box));
  }
  void ReadRecSubtotal(const Page* p, uint32_t i, V* v) const {
    p->ReadBytes(RecOff(i) + sizeof(Box) + 8, v, sizeof(V));
  }
  uint64_t RecBorderRef(const Page* p, uint32_t i, int b) const {
    return p->ReadAt<uint64_t>(RecOff(i) + sizeof(Box) + 8 + sizeof(V) +
                               8 * static_cast<uint32_t>(b));
  }

  static bool IsInlineRef(uint64_t ref) {
    return ref != kEmptyRef && (ref & kInlineTag) != 0;
  }
  static uint32_t InlineOffset(uint64_t ref) {
    return static_cast<uint32_t>(ref & 0xffffffffu);
  }

  static uint32_t BlockCount(const Page* p, uint32_t off) {
    return p->ReadAt<uint16_t>(off);
  }
  void ReadBlockEntry(const Page* p, uint32_t block_off, uint32_t k,
                      Point* pt, V* v) const {
    uint32_t off = block_off + kBlockHeader + k * BorderEntrySize();
    *pt = Point{};
    for (int d = 0; d < dims_ - 1; ++d) {
      (*pt)[d] = p->ReadAt<double>(off + 8 * static_cast<uint32_t>(d));
    }
    p->ReadBytes(off + 8 * static_cast<uint32_t>(dims_ - 1), v, sizeof(V));
  }

  // ---- node image load/store ---------------------------------------------

  Status LoadNode(PageId pid, std::vector<RecImage>* recs) const {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
    const Page* p = g.page();
    if (PageType(p) != kInternal) {
      return Status::Corruption("expected packed internal node");
    }
    uint32_t n = IntCount(p);
    recs->clear();
    recs->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      RecImage& r = (*recs)[i];
      r.box = RecBox(p, i);
      r.child = RecChild(p, i);
      ReadRecSubtotal(p, i, &r.subtotal);
      for (int b = 0; b < dims_; ++b) {
        uint64_t ref = RecBorderRef(p, i, b);
        BorderImage& bi = r.border[static_cast<size_t>(b)];
        if (ref == kEmptyRef) continue;
        if (IsInlineRef(ref)) {
          uint32_t off = InlineOffset(ref);
          uint32_t cnt = BlockCount(p, off);
          bi.inline_entries.resize(cnt);
          for (uint32_t k = 0; k < cnt; ++k) {
            ReadBlockEntry(p, off, k, &bi.inline_entries[k].pt,
                           &bi.inline_entries[k].value);
          }
        } else {
          bi.tree = static_cast<PageId>(ref);
        }
      }
    }
    return Status::OK();
  }

  /// Serializes the node, spilling oversized inline borders to trees (the
  /// images are updated accordingly). Everything is rewritten compactly.
  Status StoreNode(PageId pid, std::vector<RecImage>* recs) {
    const uint32_t page_size = pool_->file()->page_size();
    const uint32_t esz = BorderEntrySize();
    auto inline_bytes = [&](const BorderImage& b) -> uint32_t {
      return b.IsTree() || b.inline_entries.empty()
                 ? 0
                 : kBlockHeader +
                       static_cast<uint32_t>(b.inline_entries.size()) * esz;
    };
    // Spill until the node fits: first anything over the entry cap, then the
    // largest inline borders.
    for (auto& r : *recs) {
      for (int b = 0; b < dims_; ++b) {
        BorderImage& bi = r.border[static_cast<size_t>(b)];
        if (!bi.IsTree() && bi.inline_entries.size() > kMaxInlineEntries) {
          BOXAGG_RETURN_NOT_OK(SpillBorder(&bi));
        }
      }
    }
    for (;;) {
      uint64_t total = kIntHeader +
                       static_cast<uint64_t>(recs->size()) * RecordSize();
      BorderImage* largest = nullptr;
      for (auto& r : *recs) {
        for (int b = 0; b < dims_; ++b) {
          BorderImage& bi = r.border[static_cast<size_t>(b)];
          total += inline_bytes(bi);
          if (!bi.IsTree() && !bi.inline_entries.empty() &&
              (largest == nullptr || bi.inline_entries.size() >
                                         largest->inline_entries.size())) {
            largest = &bi;
          }
        }
      }
      if (total <= page_size) break;
      if (largest == nullptr) {
        return Status::Corruption("internal node records exceed page size");
      }
      BOXAGG_RETURN_NOT_OK(SpillBorder(largest));
    }

    PageGuard g;
    BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
    Page* p = g.page();
    p->Zero();
    p->WriteAt<uint16_t>(0, kInternal);
    p->WriteAt<uint32_t>(4, static_cast<uint32_t>(recs->size()));
    uint32_t heap = page_size;
    for (uint32_t i = 0; i < recs->size(); ++i) {
      const RecImage& r = (*recs)[i];
      uint32_t off = RecOff(i);
      p->WriteAt<Box>(off, r.box);
      p->WriteAt<uint64_t>(off + sizeof(Box), r.child);
      p->WriteBytes(off + sizeof(Box) + 8, &r.subtotal, sizeof(V));
      for (int b = 0; b < dims_; ++b) {
        const BorderImage& bi = r.border[static_cast<size_t>(b)];
        uint64_t ref;
        if (bi.IsTree()) {
          ref = bi.tree;
        } else if (bi.inline_entries.empty()) {
          ref = kEmptyRef;
        } else {
          uint32_t bytes =
              kBlockHeader +
              static_cast<uint32_t>(bi.inline_entries.size()) * esz;
          heap -= bytes;
          p->WriteAt<uint16_t>(heap,
                               static_cast<uint16_t>(bi.inline_entries.size()));
          p->WriteAt<uint16_t>(heap + 2, 0);
          for (uint32_t k = 0; k < bi.inline_entries.size(); ++k) {
            uint32_t eo = heap + kBlockHeader + k * esz;
            for (int d = 0; d < dims_ - 1; ++d) {
              p->WriteAt<double>(eo + 8 * static_cast<uint32_t>(d),
                                 bi.inline_entries[k].pt[d]);
            }
            p->WriteBytes(eo + 8 * static_cast<uint32_t>(dims_ - 1),
                          &bi.inline_entries[k].value, sizeof(V));
          }
          ref = kInlineTag | heap;
        }
        p->WriteAt<uint64_t>(
            off + sizeof(Box) + 8 + sizeof(V) + 8 * static_cast<uint32_t>(b),
            ref);
      }
    }
    p->WriteAt<uint32_t>(8, heap);
    g.MarkDirty();
    return Status::OK();
  }

  /// Converts an inline border to a spilled (d-1)-dim tree.
  Status SpillBorder(BorderImage* b) {
    PackedBaTree sub(pool_, dims_ - 1);
    BOXAGG_RETURN_NOT_OK(sub.BulkLoad(std::move(b->inline_entries)));
    b->inline_entries.clear();
    b->tree = sub.root();
    return Status::OK();
  }

  // LINT:hot-path — descent: no heap allocation past warm-up (lint.sh)
  /// One node of the batched descent: `idx[0..m)` are probe indices (already
  /// clamped queries) whose paths all pass through `pid`. Probes are
  /// assigned to the FIRST record whose box contains them, in page order.
  /// Per-probe arithmetic matches DominanceSum exactly: subtotal, inline
  /// borders scanned in ascending dimension order while the node is pinned,
  /// then spilled border trees in the same dimension order after the pin is
  /// dropped, then the descent's contributions.
  Status DominanceBatchRec(PageId pid, const uint32_t* idx, size_t m,
                           const Point* qs, V* outs,
                           unsigned obs_level = 0) const {
    struct Spill {
      int b;
      PageId tree_root;
    };
    struct Group {
      PageId child;
      core::ArenaVector<uint32_t> members;  // original probe indices
      core::ArenaVector<Spill> spills;
    };
    core::ArenaScope scope(core::ScratchArena());
    core::ArenaVector<Group> groups;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
      obs::NoteNodeVisit(obs_level);
      if (m > 1) pool_->NoteProbeFetchesSaved(m - 1);
      const Page* page = g.page();
      if (PageType(page) == kLeaf) {
        uint32_t n = LeafCount(page);
        for (size_t j = 0; j < m; ++j) {
          const Point& q = qs[idx[j]];
          V* out = &outs[idx[j]];
          for (uint32_t i = 0; i < n; ++i) {
            Point pt = LeafPoint(page, i);
            if (simd::Dominates(q, pt, dims_)) {
              V v;
              ReadLeafValue(page, i, &v);
              *out += v;
            }
          }
        }
        return Status::OK();
      }
      uint32_t n = IntCount(page);
      core::ArenaVector<uint8_t> taken(m, 0);
      size_t assigned = 0;
      for (uint32_t i = 0; i < n && assigned < m; ++i) {
        Box box = RecBox(page, i);
        core::ArenaVector<uint32_t> members;
        for (size_t j = 0; j < m; ++j) {
          if (taken[j]) continue;
          if (simd::ContainsHalfOpen(box, qs[idx[j]], dims_)) {
            taken[j] = 1;
            ++assigned;
            members.push_back(idx[j]);
          }
        }
        if (members.empty()) continue;
        V sub;
        ReadRecSubtotal(page, i, &sub);
        for (uint32_t probe : members) outs[probe] += sub;
        core::ArenaVector<Spill> spills;
        for (int b = 0; b < dims_; ++b) {
          uint64_t ref = RecBorderRef(page, i, b);
          if (ref == kEmptyRef) continue;
          if (IsInlineRef(ref)) {
            // In-page scan: zero extra I/O — the packing payoff.
            uint32_t off = InlineOffset(ref);
            uint32_t cnt = BlockCount(page, off);
            for (uint32_t probe : members) {
              Point projected = qs[probe].DropDim(b, dims_);
              for (uint32_t k = 0; k < cnt; ++k) {
                Point pt;  // copied out: packed entries can be < kMaxDims
                V v;
                ReadBlockEntry(page, off, k, &pt, &v);
                if (simd::Dominates(projected, pt, dims_ - 1)) outs[probe] += v;
              }
            }
          } else {
            spills.push_back(Spill{b, static_cast<PageId>(ref)});
          }
        }
        groups.push_back(
            Group{RecChild(page, i), std::move(members), std::move(spills)});
      }
      if (assigned != m) {
        return Status::Corruption("query point not covered by any record");
      }
    }
    // Spilled borders of this node before any descent, like the sequential
    // loop's per-level tree_borders pass.
    core::ArenaVector<Point> pts;
    core::ArenaVector<V> parts;
    for (const Group& gr : groups) {
      const size_t gs = gr.members.size();
      for (const Spill& sp : gr.spills) {
        pts.resize(gs);
        parts.resize(gs);
        for (size_t t = 0; t < gs; ++t) {
          pts[t] = qs[gr.members[t]].DropDim(sp.b, dims_);
        }
        obs::NoteBorderProbes(gs);
        PackedBaTree sub(pool_, dims_ - 1, sp.tree_root, view_);
        BOXAGG_RETURN_NOT_OK(sub.DominanceSumBatch(pts.data(), gs,
                                                   parts.data(),
                                                   obs_level + 1));
        for (size_t t = 0; t < gs; ++t) outs[gr.members[t]] += parts[t];
      }
    }
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      if (gi + 1 < groups.size()) PrefetchNode(groups[gi + 1].child);
      const Group& gr = groups[gi];
      BOXAGG_RETURN_NOT_OK(DominanceBatchRec(gr.child, gr.members.data(),
                                             gr.members.size(), qs, outs,
                                             obs_level + 1));
    }
    return Status::OK();
  }

  // LINT:hot-path-end
  // ---- border image operations --------------------------------------------

  Status BorderTreeQuery(PageId tree_root, const Point& q, V* out,
                         unsigned obs_level = 0) const {
    PackedBaTree sub(pool_, dims_ - 1, tree_root, view_);
    return sub.DominanceSum(q, out, obs_level);
  }

  Status BorderImageInsert(BorderImage* b, const Point& projected,
                           const V& v) {
    if (b->IsTree()) {
      PackedBaTree sub(pool_, dims_ - 1, b->tree);
      BOXAGG_RETURN_NOT_OK(sub.Insert(projected, v));
      b->tree = sub.root();
      return Status::OK();
    }
    auto& es = b->inline_entries;
    auto it = std::lower_bound(es.begin(), es.end(), projected,
                               [this](const Entry& e, const Point& p) {
                                 return LexLess(e.pt, p, dims_ - 1);
                               });
    if (it != es.end() && LexEqual(it->pt, projected, dims_ - 1)) {
      it->value += v;
    } else {
      es.insert(it, Entry{projected, v});
    }
    return Status::OK();
  }

  Status BorderImageScan(const BorderImage& b, std::vector<Entry>* out) const {
    if (b.IsTree()) {
      PackedBaTree sub(pool_, dims_ - 1, b.tree);
      return sub.ScanAll(out);
    }
    out->insert(out->end(), b.inline_entries.begin(), b.inline_entries.end());
    return Status::OK();
  }

  Status BorderImageDestroy(BorderImage* b) {
    if (b->IsTree()) {
      PackedBaTree sub(pool_, dims_ - 1, b->tree);
      BOXAGG_RETURN_NOT_OK(sub.Destroy());
      b->tree = kInvalidPageId;
    }
    b->inline_entries.clear();
    return Status::OK();
  }

  // ---- classification ------------------------------------------------------

  static constexpr int kSkip = -1;
  static constexpr int kInside = -2;
  int Classify(const Box& rbox, const Point& p) const {
    int first = kInside;
    int deficits = 0;
    for (int j = 0; j < dims_; ++j) {
      if (p[j] >= rbox.hi[j]) return kSkip;
      if (p[j] < rbox.lo[j]) {
        ++deficits;
        if (first == kInside) first = j;
      }
    }
    if (deficits == 0) return kInside;
    if (deficits == dims_) return dims_;
    return first;
  }

  // ---- split machinery -----------------------------------------------------

  /// Fig. 8 record split; border data flows through images (in-page or
  /// spilled transparently).
  Status SplitRecord(const RecImage& r, int m, double x, PageId left_child,
                     PageId right_child, bool child_is_leaf, RecImage* r1,
                     RecImage* r2) {
    r1->box = r.box;
    r1->box.hi[m] = x;
    r1->child = left_child;
    r1->subtotal = r.subtotal;
    r2->box = r.box;
    r2->box.lo[m] = x;
    r2->child = right_child;
    r2->subtotal = r.subtotal;

    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    for (int i = 0; i < dims_; ++i) {
      const BorderImage& src = r.border[static_cast<size_t>(i)];
      if (src.Empty()) continue;
      std::vector<Entry> entries;
      BOXAGG_RETURN_NOT_OK(BorderImageScan(src, &entries));
      for (const Entry& e : entries) {
        Point full = e.pt.InsertDim(i, kNegInf, dims_);
        int c1 = Classify(r1->box, full);
        if (c1 == i) {
          r1->border[static_cast<size_t>(i)].inline_entries.push_back(e);
        }
        int c2 = Classify(r2->box, full);
        if (c2 == dims_) {
          r2->subtotal += e.value;
        } else if (c2 == i) {
          r2->border[static_cast<size_t>(i)].inline_entries.push_back(e);
        } else {
          r2->border[static_cast<size_t>(c2)].inline_entries.push_back(
              Entry{full.DropDim(c2, dims_), e.value});
        }
      }
      BorderImage victim = src;
      BOXAGG_RETURN_NOT_OK(BorderImageDestroy(&victim));
    }
    if (child_is_leaf) {
      std::vector<Entry> pts;
      BOXAGG_RETURN_NOT_OK(ScanRec(left_child, &pts));
      for (const Entry& e : pts) {
        r2->border[static_cast<size_t>(m)].inline_entries.push_back(
            Entry{e.pt.DropDim(m, dims_), e.value});
      }
    }
    // Keep inline runs sorted/coalesced; StoreNode spills oversized ones.
    for (int i = 0; i < dims_; ++i) {
      SortAndCoalesce(&r1->border[static_cast<size_t>(i)].inline_entries,
                      dims_ - 1);
      SortAndCoalesce(&r2->border[static_cast<size_t>(i)].inline_entries,
                      dims_ - 1);
    }
    return Status::OK();
  }

  /// Splits the subtree at `pid` by plane (m, x); forced splits recurse.
  Status SplitSubtree(PageId pid, int m, double x, PageId* right,
                      bool* was_leaf) {
    uint16_t type;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
      type = PageType(g.page());
    }
    if (type == kLeaf) {
      *was_leaf = true;
      std::vector<Entry> low, high;
      {
        PageGuard g;
        BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
        uint32_t n = LeafCount(g.page());
        for (uint32_t i = 0; i < n; ++i) {
          Entry e;
          e.pt = LeafPoint(g.page(), i);
          ReadLeafValue(g.page(), i, &e.value);
          (e.pt[m] < x ? low : high).push_back(e);
        }
        SetLeafHeader(g.page(), static_cast<uint32_t>(low.size()));
        for (uint32_t i = 0; i < low.size(); ++i) {
          WriteLeafEntry(g.page(), i, low[i].pt, low[i].value);
        }
        g.MarkDirty();
      }
      PageGuard rg;
      BOXAGG_RETURN_NOT_OK(pool_->New(&rg));
      SetLeafHeader(rg.page(), static_cast<uint32_t>(high.size()));
      for (uint32_t i = 0; i < high.size(); ++i) {
        WriteLeafEntry(rg.page(), i, high[i].pt, high[i].value);
      }
      rg.MarkDirty();
      *right = rg.id();
      return Status::OK();
    }

    *was_leaf = false;
    std::vector<RecImage> recs;
    BOXAGG_RETURN_NOT_OK(LoadNode(pid, &recs));
    std::vector<RecImage> low, high;
    BOXAGG_RETURN_NOT_OK(PartitionRecords(&recs, m, x, &low, &high));
    BOXAGG_RETURN_NOT_OK(StoreNode(pid, &low));
    PageGuard rg;
    BOXAGG_RETURN_NOT_OK(pool_->New(&rg));
    PageId rid = rg.id();
    rg.Release();
    BOXAGG_RETURN_NOT_OK(StoreNode(rid, &high));
    *right = rid;
    return Status::OK();
  }

  Status PartitionRecords(std::vector<RecImage>* recs, int m, double x,
                          std::vector<RecImage>* low,
                          std::vector<RecImage>* high) {
    for (RecImage& r : *recs) {
      if (r.box.hi[m] <= x) {
        low->push_back(std::move(r));
      } else if (r.box.lo[m] >= x) {
        high->push_back(std::move(r));
      } else {
        PageId right_child;
        bool leaf_child;
        BOXAGG_RETURN_NOT_OK(
            SplitSubtree(r.child, m, x, &right_child, &leaf_child));
        RecImage r1, r2;
        BOXAGG_RETURN_NOT_OK(SplitRecord(r, m, x, r.child, right_child,
                                         leaf_child, &r1, &r2));
        low->push_back(std::move(r1));
        high->push_back(std::move(r2));
      }
    }
    return Status::OK();
  }

  Status ChooseLeafSplit(const std::vector<Entry>& entries, int* m,
                         double* x) const {
    int best_dim = -1;
    double best_spread = -1;
    for (int d = 0; d < dims_; ++d) {
      double lo = entries[0].pt[d], hi = entries[0].pt[d];
      for (const Entry& e : entries) {
        lo = std::min(lo, e.pt[d]);
        hi = std::max(hi, e.pt[d]);
      }
      if (hi - lo > best_spread) {
        best_spread = hi - lo;
        best_dim = d;
      }
    }
    for (int attempt = 0; attempt < dims_; ++attempt) {
      int d = (best_dim + attempt) % dims_;
      std::vector<double> coords;
      coords.reserve(entries.size());
      for (const Entry& e : entries) coords.push_back(e.pt[d]);
      std::sort(coords.begin(), coords.end());
      double cand = coords[coords.size() / 2];
      if (cand == coords.front()) {
        auto it = std::upper_bound(coords.begin(), coords.end(), cand);
        if (it == coords.end()) continue;
        cand = *it;
      }
      *m = d;
      *x = cand;
      return Status::OK();
    }
    return Status::Corruption("leaf entries degenerate in all dimensions");
  }

  Status ChooseIndexSplit(const std::vector<RecImage>& recs, int* m,
                          double* x) const {
    int best_dim = -1;
    double best_value = 0;
    size_t best_distinct = 0;
    for (int d = 0; d < dims_; ++d) {
      std::vector<double> los;
      double min_lo = recs[0].box.lo[d];
      for (const RecImage& r : recs) min_lo = std::min(min_lo, r.box.lo[d]);
      for (const RecImage& r : recs) {
        if (r.box.lo[d] > min_lo) los.push_back(r.box.lo[d]);
      }
      if (los.empty()) continue;
      std::sort(los.begin(), los.end());
      los.erase(std::unique(los.begin(), los.end()), los.end());
      if (los.size() > best_distinct) {
        best_distinct = los.size();
        best_dim = d;
        best_value = los[los.size() / 2];
      }
    }
    if (best_dim < 0) {
      return Status::Corruption("index records degenerate in all dimensions");
    }
    *m = best_dim;
    *x = best_value;
    return Status::OK();
  }

  // ---- insertion -----------------------------------------------------------

  Status InsertRec(PageId pid, const Point& p, const V& v,
                   SplitResult* split) {
    split->happened = false;
    uint16_t type;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
      type = PageType(g.page());
    }
    if (type == kLeaf) {
      return InsertLeaf(pid, p, v, split);
    }

    std::vector<RecImage> recs;
    BOXAGG_RETURN_NOT_OK(LoadNode(pid, &recs));
    int target = -1;
    for (size_t i = 0; i < recs.size(); ++i) {
      RecImage& r = recs[i];
      int c = Classify(r.box, p);
      if (c == kSkip) continue;
      if (c == kInside) {
        target = static_cast<int>(i);
        continue;
      }
      if (c == dims_) {
        r.subtotal += v;
      } else {
        BOXAGG_RETURN_NOT_OK(BorderImageInsert(
            &r.border[static_cast<size_t>(c)], p.DropDim(c, dims_), v));
      }
    }
    if (target < 0) {
      return Status::Corruption("insert point not covered by any record");
    }
    RecImage& tr = recs[static_cast<size_t>(target)];
    SplitResult child_split;
    BOXAGG_RETURN_NOT_OK(InsertRec(tr.child, p, v, &child_split));
    if (!child_split.happened) {
      return StoreNode(pid, &recs);
    }
    RecImage r1, r2;
    BOXAGG_RETURN_NOT_OK(SplitRecord(tr, child_split.dim, child_split.value,
                                     tr.child, child_split.right_page,
                                     child_split.child_was_leaf, &r1, &r2));
    recs[static_cast<size_t>(target)] = std::move(r1);
    recs.insert(recs.begin() + target + 1, std::move(r2));
    if (recs.size() <= FanoutTarget()) {
      return StoreNode(pid, &recs);
    }
    // Node overflow: split this node too.
    int m;
    double x;
    BOXAGG_RETURN_NOT_OK(ChooseIndexSplit(recs, &m, &x));
    std::vector<RecImage> low, high;
    BOXAGG_RETURN_NOT_OK(PartitionRecords(&recs, m, x, &low, &high));
    BOXAGG_RETURN_NOT_OK(StoreNode(pid, &low));
    PageGuard rg;
    BOXAGG_RETURN_NOT_OK(pool_->New(&rg));
    PageId rid = rg.id();
    rg.Release();
    BOXAGG_RETURN_NOT_OK(StoreNode(rid, &high));
    split->happened = true;
    split->dim = m;
    split->value = x;
    split->right_page = rid;
    split->child_was_leaf = false;
    return Status::OK();
  }

  Status InsertLeaf(PageId pid, const Point& p, const V& v,
                    SplitResult* split) {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
    Page* page = g.page();
    uint32_t n = LeafCount(page);
    for (uint32_t i = 0; i < n; ++i) {
      if (LexEqual(LeafPoint(page, i), p, dims_)) {
        V cur;
        ReadLeafValue(page, i, &cur);
        cur += v;
        WriteLeafEntry(page, i, p, cur);
        g.MarkDirty();
        return Status::OK();
      }
    }
    if (n < LeafCapacity()) {
      WriteLeafEntry(page, n, p, v);
      SetLeafCount(page, n + 1);
      g.MarkDirty();
      return Status::OK();
    }
    std::vector<Entry> all(n);
    for (uint32_t i = 0; i < n; ++i) {
      all[i].pt = LeafPoint(page, i);
      ReadLeafValue(page, i, &all[i].value);
    }
    all.push_back(Entry{p, v});
    int m;
    double x;
    BOXAGG_RETURN_NOT_OK(ChooseLeafSplit(all, &m, &x));
    std::vector<Entry> low, high;
    for (const Entry& e : all) (e.pt[m] < x ? low : high).push_back(e);
    SetLeafHeader(page, static_cast<uint32_t>(low.size()));
    for (uint32_t i = 0; i < low.size(); ++i) {
      WriteLeafEntry(page, i, low[i].pt, low[i].value);
    }
    g.MarkDirty();
    PageGuard rg;
    BOXAGG_RETURN_NOT_OK(pool_->New(&rg));
    SetLeafHeader(rg.page(), static_cast<uint32_t>(high.size()));
    for (uint32_t i = 0; i < high.size(); ++i) {
      WriteLeafEntry(rg.page(), i, high[i].pt, high[i].value);
    }
    rg.MarkDirty();
    split->happened = true;
    split->dim = m;
    split->value = x;
    split->right_page = rg.id();
    split->child_was_leaf = true;
    return Status::OK();
  }

  // ---- bulk loading --------------------------------------------------------

  Status BuildRec(std::vector<Entry>* entries, size_t lo, size_t hi,
                  const Box& box, PageId* out) {
    const size_t n = hi - lo;
    const size_t leaf_target = std::max<size_t>(4, LeafCapacity() * 9 / 10);
    if (n <= leaf_target) {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetLeafHeader(g.page(), static_cast<uint32_t>(n));
      for (size_t i = 0; i < n; ++i) {
        WriteLeafEntry(g.page(), static_cast<uint32_t>(i),
                       (*entries)[lo + i].pt, (*entries)[lo + i].value);
      }
      g.MarkDirty();
      *out = g.id();
      return Status::OK();
    }
    const size_t int_target = std::max<size_t>(2, FanoutTarget() * 9 / 10);
    size_t fanout = (n + leaf_target - 1) / leaf_target;
    fanout = std::min(fanout, int_target);
    fanout = std::max<size_t>(fanout, 2);

    struct Region {
      Box box;
      size_t lo, hi;
    };
    std::vector<Region> regions{{box, lo, hi}};
    while (regions.size() < fanout) {
      size_t biggest = 0;
      for (size_t i = 1; i < regions.size(); ++i) {
        if (regions[i].hi - regions[i].lo >
            regions[biggest].hi - regions[biggest].lo) {
          biggest = i;
        }
      }
      Region reg = regions[biggest];
      if (reg.hi - reg.lo < 2) break;
      int m = -1;
      double x = 0;
      size_t mid = 0;
      if (!ChooseRegionSplit(entries, reg.lo, reg.hi, &m, &x, &mid)) break;
      Region lo_r = reg, hi_r = reg;
      lo_r.hi = mid;
      lo_r.box.hi[m] = x;
      hi_r.lo = mid;
      hi_r.box.lo[m] = x;
      regions[biggest] = lo_r;
      regions.push_back(hi_r);
    }
    if (regions.size() < 2) {
      return Status::Corruption("bulk load failed to partition region");
    }

    std::vector<RecImage> recs(regions.size());
    for (size_t i = 0; i < regions.size(); ++i) {
      recs[i].box = regions[i].box;
      BOXAGG_RETURN_NOT_OK(BuildRec(entries, regions[i].lo, regions[i].hi,
                                    regions[i].box, &recs[i].child));
    }
    for (size_t i = 0; i < regions.size(); ++i) {
      for (size_t k = lo; k < hi; ++k) {
        const Entry& e = (*entries)[k];
        int c = Classify(recs[i].box, e.pt);
        if (c == kSkip || c == kInside) continue;
        if (c == dims_) {
          recs[i].subtotal += e.value;
        } else {
          recs[i].border[static_cast<size_t>(c)].inline_entries.push_back(
              Entry{e.pt.DropDim(c, dims_), e.value});
        }
      }
      for (int b = 0; b < dims_; ++b) {
        SortAndCoalesce(
            &recs[i].border[static_cast<size_t>(b)].inline_entries,
            dims_ - 1);
      }
    }
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->New(&g));
    PageId pid = g.id();
    g.Release();
    BOXAGG_RETURN_NOT_OK(StoreNode(pid, &recs));
    *out = pid;
    return Status::OK();
  }

  bool ChooseRegionSplit(std::vector<Entry>* entries, size_t lo, size_t hi,
                         int* m, double* x, size_t* mid) const {
    std::array<double, kMaxDims> spread{};
    for (int d = 0; d < dims_; ++d) {
      double mn = (*entries)[lo].pt[d], mx = (*entries)[lo].pt[d];
      for (size_t i = lo; i < hi; ++i) {
        mn = std::min(mn, (*entries)[i].pt[d]);
        mx = std::max(mx, (*entries)[i].pt[d]);
      }
      spread[static_cast<size_t>(d)] = mx - mn;
    }
    std::vector<int> order(static_cast<size_t>(dims_));
    for (int d = 0; d < dims_; ++d) order[static_cast<size_t>(d)] = d;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return spread[static_cast<size_t>(a)] > spread[static_cast<size_t>(b)];
    });
    for (int attempt = 0; attempt < dims_; ++attempt) {
      int d = order[static_cast<size_t>(attempt)];
      if (spread[static_cast<size_t>(d)] <= 0) continue;
      std::sort(entries->begin() + static_cast<ptrdiff_t>(lo),
                entries->begin() + static_cast<ptrdiff_t>(hi),
                [d](const Entry& a, const Entry& b) {
                  return a.pt[d] < b.pt[d];
                });
      size_t half = lo + (hi - lo) / 2;
      double cand = (*entries)[half].pt[d];
      if (cand == (*entries)[lo].pt[d]) {
        size_t i = half;
        while (i < hi && (*entries)[i].pt[d] == cand) ++i;
        if (i == hi) continue;
        cand = (*entries)[i].pt[d];
        half = i;
      } else {
        while ((*entries)[half - 1].pt[d] == cand) --half;
      }
      *m = d;
      *x = cand;
      *mid = half;
      return true;
    }
    return false;
  }

  // ---- traversal -----------------------------------------------------------

  Status ScanRec(PageId pid, std::vector<Entry>* out) const {
    uint16_t type;
    std::vector<PageId> children;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
      const Page* p = g.page();
      type = PageType(p);
      if (type == kLeaf) {
        uint32_t n = LeafCount(p);
        for (uint32_t i = 0; i < n; ++i) {
          Entry e;
          e.pt = LeafPoint(p, i);
          ReadLeafValue(p, i, &e.value);
          out->push_back(e);
        }
        return Status::OK();
      }
      uint32_t n = IntCount(p);
      children.resize(n);
      for (uint32_t i = 0; i < n; ++i) children[i] = RecChild(p, i);
    }
    for (PageId c : children) {
      BOXAGG_RETURN_NOT_OK(ScanRec(c, out));
    }
    return Status::OK();
  }

  Status PageCountRec(PageId pid, uint64_t* out) const {
    std::vector<std::pair<PageId, bool>> kids;  // (pid-or-border, is_border)
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
      const Page* p = g.page();
      *out += 1;
      if (PageType(p) == kLeaf) return Status::OK();
      uint32_t n = IntCount(p);
      for (uint32_t i = 0; i < n; ++i) {
        kids.push_back({RecChild(p, i), false});
        for (int b = 0; b < dims_; ++b) {
          uint64_t ref = RecBorderRef(p, i, b);
          if (ref != kEmptyRef && !IsInlineRef(ref)) {
            kids.push_back({static_cast<PageId>(ref), true});
          }
        }
      }
    }
    for (auto [kid, is_border] : kids) {
      if (is_border) {
        PackedBaTree sub(pool_, dims_ - 1, kid, view_);
        uint64_t cnt = 0;
        BOXAGG_RETURN_NOT_OK(sub.PageCount(&cnt));
        *out += cnt;
      } else {
        BOXAGG_RETURN_NOT_OK(PageCountRec(kid, out));
      }
    }
    return Status::OK();
  }

  // ---- verification --------------------------------------------------------

  /// Raw-layout checks of one packed internal page, then the containment
  /// and tiling walk with border recursion. Collects the leaf points of the
  /// subtree into *out for the self-oracle.
  Status CheckRec(PageId pid, CheckContext* ctx,
                  std::vector<Entry>* out) const {
    BOXAGG_RETURN_NOT_OK(ctx->Visit(pid, "packed-ba-tree"));
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
      const Page* p = g.page();
      const uint16_t type = PageType(p);
      if (type == kLeaf) {
        uint32_t n = LeafCount(p);
        if (n > LeafCapacity()) {
          return CorruptionAt(
              pid, "packed-ba-tree: leaf count " + std::to_string(n) +
                       " exceeds capacity " + std::to_string(LeafCapacity()));
        }
        for (uint32_t i = 0; i < n; ++i) {
          Entry e;
          e.pt = LeafPoint(p, i);
          ReadLeafValue(p, i, &e.value);
          out->push_back(e);
        }
        return Status::OK();
      }
      if (type != kInternal) {
        return CorruptionAt(
            pid, "packed-ba-tree: bad node type " + std::to_string(type));
      }
      BOXAGG_RETURN_NOT_OK(CheckPackedLayout(pid, p));
    }
    std::vector<RecImage> recs;
    BOXAGG_RETURN_NOT_OK(LoadNode(pid, &recs));
    const size_t begin = out->size();
    for (const RecImage& r : recs) {
      const size_t lo = out->size();
      BOXAGG_RETURN_NOT_OK(CheckRec(r.child, ctx, out));
      for (size_t k = lo; k < out->size(); ++k) {
        if (!r.box.ContainsPointHalfOpen((*out)[k].pt, dims_)) {
          return CorruptionAt(
              pid, "packed-ba-tree: subtree point escapes its record box");
        }
      }
      for (int b = 0; b < dims_; ++b) {
        const BorderImage& bi = r.border[static_cast<size_t>(b)];
        if (bi.IsTree()) {
          BOXAGG_RETURN_NOT_OK(CheckBorderTree(bi.tree, ctx));
        }
      }
    }
    for (size_t k = begin; k < out->size(); ++k) {
      int owners = 0;
      for (const RecImage& r : recs) {
        if (r.box.ContainsPointHalfOpen((*out)[k].pt, dims_)) ++owners;
      }
      if (owners != 1) {
        return CorruptionAt(
            pid, "packed-ba-tree: record boxes do not tile the node scope");
      }
    }
    return Status::OK();
  }

  /// Byte-level invariants of a packed internal page: records below the
  /// heap, heap blocks inside [heap_start, page_size), counts within the
  /// inline cap, blocks pairwise disjoint, entries strictly sorted.
  Status CheckPackedLayout(PageId pid, const Page* p) const {
    const uint32_t page_size = pool_->file()->page_size();
    const uint32_t n = IntCount(p);
    const uint32_t heap = p->ReadAt<uint32_t>(8);
    if (n == 0) {
      return CorruptionAt(pid, "packed-ba-tree: empty internal node");
    }
    if (RecOff(n) > heap || heap > page_size) {
      return CorruptionAt(
          pid, "packed-ba-tree: record array (" + std::to_string(RecOff(n)) +
                   " bytes) overlaps border heap at " + std::to_string(heap));
    }
    std::vector<std::pair<uint32_t, uint32_t>> blocks;  // (off, end)
    for (uint32_t i = 0; i < n; ++i) {
      for (int b = 0; b < dims_; ++b) {
        const uint64_t ref = RecBorderRef(p, i, b);
        if (ref == kEmptyRef || !IsInlineRef(ref)) continue;
        const uint32_t off = InlineOffset(ref);
        if (off < heap || off + kBlockHeader > page_size) {
          return CorruptionAt(pid,
                              "packed-ba-tree: inline border block at " +
                                  std::to_string(off) + " outside the heap");
        }
        const uint32_t cnt = BlockCount(p, off);
        if (cnt == 0 || cnt > kMaxInlineEntries) {
          return CorruptionAt(
              pid, "packed-ba-tree: inline border entry count " +
                       std::to_string(cnt) + " outside [1, " +
                       std::to_string(kMaxInlineEntries) + "]");
        }
        const uint32_t end = off + kBlockHeader + cnt * BorderEntrySize();
        if (end > page_size) {
          return CorruptionAt(
              pid, "packed-ba-tree: inline border block overruns the page");
        }
        blocks.push_back({off, end});
        Point prev;
        for (uint32_t k = 0; k < cnt; ++k) {
          Point pt;
          V v;
          ReadBlockEntry(p, off, k, &pt, &v);
          if (k > 0 && !LexLess(prev, pt, dims_ - 1)) {
            return CorruptionAt(
                pid, "packed-ba-tree: inline border entries not strictly "
                     "sorted");
          }
          prev = pt;
        }
      }
    }
    std::sort(blocks.begin(), blocks.end());
    for (size_t i = 1; i < blocks.size(); ++i) {
      if (blocks[i].first < blocks[i - 1].second) {
        return CorruptionAt(
            pid, "packed-ba-tree: inline border blocks overlap at " +
                     std::to_string(blocks[i].first));
      }
    }
    return Status::OK();
  }

  /// Structural audit of a spilled border tree; no oracle here — the
  /// top-level oracle's queries exercise border sums end to end.
  Status CheckBorderTree(PageId broot, CheckContext* ctx) const {
    if (broot == kInvalidPageId) return Status::OK();
    if (dims_ - 1 == 1) {
      AggBTree<V> base(pool_, broot, view_);
      return base.CheckConsistency(ctx);
    }
    PackedBaTree sub(pool_, dims_ - 1, broot, view_);
    std::vector<Entry> scratch;
    return sub.CheckRec(broot, ctx, &scratch);
  }

  Status SelfOracle(const std::vector<Entry>& pts) const {
    const size_t step = pts.size() <= 400 ? 1 : pts.size() / 400;
    for (size_t k = 0; k < pts.size(); k += step) {
      for (double jitter : {0.0, 0.25}) {
        Point q = pts[k].pt;
        for (int d = 0; d < dims_; ++d) q[d] += jitter;
        V got;
        BOXAGG_RETURN_NOT_OK(DominanceSum(q, &got));
        V want{};
        for (const Entry& e : pts) {
          if (q.Dominates(e.pt, dims_)) want += e.value;
        }
        want -= got;
        double drift = 0;
        if constexpr (std::is_same_v<V, double>) {
          drift = std::abs(want);
        } else {
          for (double c : want.c) drift += std::abs(c);
        }
        if (drift > 1e-6) {
          return Status::Corruption("self-oracle dominance-sum mismatch");
        }
      }
    }
    return Status::OK();
  }

  Status DestroyRec(PageId pid) {
    std::vector<std::pair<PageId, bool>> kids;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(FetchNode(pid, &g));
      const Page* p = g.page();
      if (PageType(p) == kInternal) {
        uint32_t n = IntCount(p);
        for (uint32_t i = 0; i < n; ++i) {
          kids.push_back({RecChild(p, i), false});
          for (int b = 0; b < dims_; ++b) {
            uint64_t ref = RecBorderRef(p, i, b);
            if (ref != kEmptyRef && !IsInlineRef(ref)) {
              kids.push_back({static_cast<PageId>(ref), true});
            }
          }
        }
      }
    }
    for (auto [kid, is_border] : kids) {
      if (is_border) {
        PackedBaTree sub(pool_, dims_ - 1, kid);
        BOXAGG_RETURN_NOT_OK(sub.Destroy());
      } else {
        BOXAGG_RETURN_NOT_OK(DestroyRec(kid));
      }
    }
    return pool_->Delete(pid);
  }

  BufferPool* pool_;
  int dims_;
  PageId root_;
  const PageVersionView* view_ = nullptr;  // non-null: snapshot-bound reads
};

}  // namespace boxagg

#endif  // BOXAGG_BATREE_PACKED_BA_TREE_H_
