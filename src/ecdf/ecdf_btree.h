// EcdfBTree: the paper's disk-based, dynamic extensions of the ECDF-tree
// (Sec. 4) — the ECDF-Bu-tree and the ECDF-Bq-tree.
//
// A d-dimensional ECDF-B-tree is a B+-tree (the *main branch*) over the
// points' first coordinate. Every internal record carries a *border*: a
// (d-1)-dimensional ECDF-B-tree over projected points. The two variants
// differ in what a border contains (Fig. 6):
//
//   - ECDF-Bu ("update-optimized"): border i holds the points of
//     subtree(e_i). An insert touches ONE border per level; a query must add
//     up the borders of ALL children left of the search path.
//   - ECDF-Bq ("query-optimized"): border i holds the points of subtrees
//     e_0..e_i (a prefix). A query adds ONE border per level; an insert must
//     update every border at or right of the search path, and splits rebuild
//     prefix borders wholesale — the price of O(log_B^d n) queries.
//
// The base case (dims == 1) is the aggregate B+-tree. Bulk-loading builds
// the main branch bottom-up and bulk-loads each border from the contiguous
// sorted range of points it covers, exactly as sketched in Sec. 4.
//
// Like all aggregate indexes here, the tree stores group sums; deleting a
// point is inserting its inverse value.
//
// Page layout (dims >= 2). Internal nodes are structure-of-arrays: the
// dim-0 routing keys sit in one contiguous strip right after the header so
// the in-node search (simd::FirstGreater) touches nothing else; capacities
// and fan-out are identical to the interleaved layout:
//   leaf (type 3):     u16 type, u16 pad, u32 count; entries {Point, V}
//   internal (type 4): u16 type, u16 pad, u32 count;
//                      f64 lowkey[InternalCapacity],
//                      then { u64 child, u64 border_root, V sum }[InternalCapacity]
// Internal record i routes dim-0 keys in [lowkey_i, lowkey_{i+1}); record 0's
// lowkey acts as -infinity.

#ifndef BOXAGG_ECDF_ECDF_BTREE_H_
#define BOXAGG_ECDF_ECDF_BTREE_H_

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bptree/agg_btree.h"
#include "check/checkable.h"
#include "core/arena.h"
#include "core/batch_descent.h"
#include "core/point_entry.h"
#include "core/value_ops.h"
#include "geom/point.h"
#include "simd/simd.h"
#include "storage/buffer_pool.h"

namespace boxagg {

/// Which border scheme an ECDF-B-tree uses (Sec. 4, Fig. 6).
enum class EcdfVariant {
  kUpdateOptimized,  ///< ECDF-Bu: border i = subtree(e_i)
  kQueryOptimized,   ///< ECDF-Bq: border i = subtrees e_0..e_i
};

/// \brief Handle to a disk-resident d-dimensional ECDF-B-tree.
template <class V>
class EcdfBTree {
 public:
  using Entry = PointEntry<V>;

  EcdfBTree(BufferPool* pool, int dims, EcdfVariant variant,
            PageId root = kInvalidPageId)
      : pool_(pool), dims_(dims), variant_(variant), root_(root) {
    assert(dims_ >= 1 && dims_ <= kMaxDims);
  }

  [[nodiscard]] PageId root() const { return root_; }
  [[nodiscard]] bool empty() const { return root_ == kInvalidPageId; }
  [[nodiscard]] int dims() const { return dims_; }
  [[nodiscard]] EcdfVariant variant() const { return variant_; }

  static uint32_t LeafCapacity(uint32_t page_size) {
    return (page_size - kHeaderSize) / kLeafEntrySize;
  }
  static uint32_t InternalCapacity(uint32_t page_size) {
    return (page_size - kHeaderSize) / kInternalEntrySize;
  }
  static bool PageSizeViable(uint32_t page_size) {
    return LeafCapacity(page_size) >= 4 && InternalCapacity(page_size) >= 4 &&
           AggBTree<V>::PageSizeViable(page_size);
  }

  // Public layout map of the internal-node SoA strips (used by the
  // corruption-injection tests; see also AggBTree's public layout map).
  static uint32_t InternalLowKeyOffset(uint32_t i) {
    return kHeaderSize + i * 8;
  }
  static uint32_t InternalChildOffset(uint32_t page_size, uint32_t i) {
    return kHeaderSize + 8 * InternalCapacity(page_size) + i * kInternalRec;
  }
  static uint32_t InternalBorderOffset(uint32_t page_size, uint32_t i) {
    return InternalChildOffset(page_size, i) + 8;
  }
  static uint32_t InternalSumOffset(uint32_t page_size, uint32_t i) {
    return InternalChildOffset(page_size, i) + 16;
  }

  /// Adds `v` at point `p` (coalescing identical points in the main branch).
  Status Insert(const Point& p, const V& v) {
    if (!PageSizeViable(pool_->file()->page_size())) {
      return Status::InvalidArgument("page size too small for value type");
    }
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_);
      BOXAGG_RETURN_NOT_OK(base.Insert(p[0], v));
      root_ = base.root();
      return Status::OK();
    }
    if (root_ == kInvalidPageId) {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetHeader(g.page(), kLeaf, 1);
      WriteLeafEntry(g.page(), 0, p, v);
      g.MarkDirty();
      root_ = g.id();
      return Status::OK();
    }
    SplitResult split;
    BOXAGG_RETURN_NOT_OK(InsertRec(root_, p, v, &split));
    if (split.happened) {
      // Build a new root over the two halves, with fresh borders.
      PageId left = root_;
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetHeader(g.page(), kInternal, 2);
      PageId border0, border1;
      std::vector<Entry> left_pts;
      BOXAGG_RETURN_NOT_OK(ScanRec(left, &left_pts));
      BOXAGG_RETURN_NOT_OK(BuildBorder(left_pts, &border0));
      if (variant_ == EcdfVariant::kUpdateOptimized) {
        std::vector<Entry> right_pts;
        BOXAGG_RETURN_NOT_OK(ScanRec(split.right_page, &right_pts));
        BOXAGG_RETURN_NOT_OK(BuildBorder(right_pts, &border1));
      } else {
        BOXAGG_RETURN_NOT_OK(ScanRec(split.right_page, &left_pts));
        BOXAGG_RETURN_NOT_OK(BuildBorder(left_pts, &border1));
      }
      WriteInternalEntry(g.page(), 0, split.left_lowkey, left, border0,
                         split.left_sum);
      WriteInternalEntry(g.page(), 1, split.right_lowkey, split.right_page,
                         border1, split.right_sum);
      g.MarkDirty();
      root_ = g.id();
    }
    return Status::OK();
  }

  // LINT:hot-path — descent: no heap allocation past warm-up (lint.sh)
  /// Total value of all points dominated by `q` (Sec. 2 semantics): a
  /// one-probe DominanceSumBatch, i.e. the single root-to-leaf walk.
  /// `obs_level` offsets the node-visit attribution as in AggBTree.
  Status DominanceSum(const Point& q, V* out, unsigned obs_level = 0) const {
    return DominanceSumBatch(&q, 1, out, obs_level);
  }

  /// Batched dominance sums: outs[i] = total value of all points dominated
  /// by qs[i], bit-identical for any batching; each page is fetched at most
  /// once per batch (core/batch_descent.h).
  Status DominanceSumBatch(const Point* qs, size_t count, V* outs,
                           unsigned obs_level = 0) const {
    return BatchDescent<BatchOps>::Run(
        {{pool_, &core::ScratchArena(), qs, outs}, this}, root_, count,
        obs_level);
  }

  // LINT:hot-path-end
  /// Sum of every value in the tree.
  Status TotalSum(V* out) const {
    *out = V{};
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) return AggBTree<V>(pool_, root_).TotalSum(out);
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(root_, &g));
    const Page* p = g.page();
    if (Type(p) == kLeaf) {
      ValueOps<V>::AddStrided(out, p->data() + LeafValueOff(0), Count(p),
                              kLeafEntrySize);
    } else {
      ValueOps<V>::AddStrided(out, p->data() + InternalSumOffset(PageSz(), 0),
                              Count(p), kInternalRec);
    }
    return Status::OK();
  }

  /// Collects every (point, value) of the main branch, sorted
  /// lexicographically.
  Status ScanAll(std::vector<Entry>* out) const {
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) {
      AggBTree<V> base(pool_, root_);
      std::vector<typename AggBTree<V>::Entry> flat;
      BOXAGG_RETURN_NOT_OK(base.ScanAll(&flat));
      for (const auto& e : flat) {
        out->push_back(Entry{Point(e.key), e.value});
      }
      return Status::OK();
    }
    return ScanRec(root_, out);
  }

  /// Pages owned by this tree, including every border recursively. This is
  /// the index-size metric of Fig. 9a.
  Status PageCount(uint64_t* out) const {
    *out = 0;
    return ForEachOwnedPage([out](PageId) {
      ++*out;
      return Status::OK();
    });
  }

  /// Calls fn(pid), which returns a Status, once for every page the tree
  /// owns, post-order: for each record its child subtree, then its border,
  /// then the node. A node is released before its subtrees are walked, so
  /// `fn` may free the page it is handed. A 1-d tree is an AggBTree's walk.
  template <class Fn>
  Status ForEachOwnedPage(Fn&& fn) const {
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) return AggBTree<V>(pool_, root_).ForEachOwnedPage(fn);
    std::vector<std::pair<PageId, PageId>> kids;  // (child, border)
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(root_, &g));
      const Page* p = g.page();
      if (Type(p) == kInternal) {
        for (uint32_t i = 0; i < Count(p); ++i) {
          kids.emplace_back(InternalChild(p, i), InternalBorder(p, i));
        }
      }
    }
    for (auto [child, border] : kids) {
      BOXAGG_RETURN_NOT_OK(
          EcdfBTree(pool_, dims_, variant_, child).ForEachOwnedPage(fn));
      BOXAGG_RETURN_NOT_OK(
          EcdfBTree(pool_, dims_ - 1, variant_, border).ForEachOwnedPage(fn));
    }
    return fn(root_);
  }

  /// Bulk-loads the tree (must be empty) from `entries`; sorts and coalesces
  /// internally. Borders are bulk-loaded from contiguous sorted ranges.
  Status BulkLoad(std::vector<Entry> entries) {
    if (root_ != kInvalidPageId) {
      return Status::InvalidArgument("BulkLoad into non-empty tree");
    }
    if (!PageSizeViable(pool_->file()->page_size())) {
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

    const uint32_t page_size = pool_->file()->page_size();
    struct Up {
      double lowkey;
      PageId pid;
      V sum{};
      size_t begin;  // covered range in `entries`
      size_t end;
    };
    // Level 0: leaves.
    std::vector<Up> level;
    const uint32_t leaf_cap = LeafCapacity(page_size);
    size_t i = 0;
    while (i < entries.size()) {
      const size_t take =
          AggBTree<V>::Loader::Take(entries.size() - i, leaf_cap);
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetHeader(g.page(), kLeaf, static_cast<uint32_t>(take));
      V sum{};
      for (size_t k = 0; k < take; ++k) {
        WriteLeafEntry(g.page(), static_cast<uint32_t>(k), entries[i + k].pt,
                       entries[i + k].value);
        sum += entries[i + k].value;
      }
      g.MarkDirty();
      level.push_back(Up{entries[i].pt[0], g.id(), sum, i, i + take});
      i += take;
    }
    // Upper levels, with borders.
    const uint32_t int_cap = InternalCapacity(page_size);
    while (level.size() > 1) {
      std::vector<Up> next;
      size_t j = 0;
      while (j < level.size()) {
        const size_t take =
            AggBTree<V>::Loader::Take(level.size() - j, int_cap);
        PageGuard g;
        BOXAGG_RETURN_NOT_OK(pool_->New(&g));
        SetHeader(g.page(), kInternal, static_cast<uint32_t>(take));
        V sum{};
        const size_t node_begin = level[j].begin;
        for (size_t k = 0; k < take; ++k) {
          const Up& u = level[j + k];
          size_t bb = variant_ == EcdfVariant::kUpdateOptimized ? u.begin
                                                                : node_begin;
          std::vector<Entry> pts(
              entries.begin() + static_cast<ptrdiff_t>(bb),
              entries.begin() + static_cast<ptrdiff_t>(u.end));
          PageId border = kInvalidPageId;
          BOXAGG_RETURN_NOT_OK(BuildBorder(pts, &border));
          WriteInternalEntry(g.page(), static_cast<uint32_t>(k), u.lowkey,
                             u.pid, border, u.sum);
          sum += u.sum;
        }
        g.MarkDirty();
        next.push_back(Up{level[j].lowkey, g.id(), sum, node_begin,
                          level[j + take - 1].end});
        j += take;
      }
      level = std::move(next);
    }
    root_ = level[0].pid;
    return Status::OK();
  }

  /// Frees every page (main branch and all borders); the handle becomes
  /// empty.
  Status Destroy() {
    BOXAGG_RETURN_NOT_OK(
        ForEachOwnedPage([this](PageId pid) { return pool_->Delete(pid); }));
    root_ = kInvalidPageId;
    return Status::OK();
  }

  /// Deep structural audit of the main branch and every border, recursively
  /// down to the 1-d AggBTree base case. Beyond the B+-tree invariants
  /// (types, fill, ordering, routing bounds, depth uniformity, record sums),
  /// this verifies the variant's border identity of Sec. 4 / Fig. 6: a Bu
  /// border's total equals its own record's subtree sum; a Bq border's total
  /// equals the prefix sum of records 0..i. A drifted border answers
  /// dominance queries plausibly but wrong — no query-level test catches it.
  Status CheckConsistency(CheckContext* ctx = nullptr) const {
    CheckContext local;
    if (ctx == nullptr) ctx = &local;
    if (root_ == kInvalidPageId) return Status::OK();
    if (dims_ == 1) return AggBTree<V>(pool_, root_).CheckConsistency(ctx);
    SubtreeFacts facts;
    return CheckRec(root_, /*is_root=*/true, ctx, &facts);
  }

 private:
  static constexpr uint16_t kLeaf = 3;
  static constexpr uint16_t kInternal = 4;
  static constexpr uint32_t kHeaderSize = 8;
  static constexpr uint32_t kLeafEntrySize = sizeof(Point) + sizeof(V);
  // Per-record page budget (determines capacity) and the stride of one
  // { child, border, sum } record in the internal payload strip.
  static constexpr uint32_t kInternalEntrySize = 24 + sizeof(V);
  static constexpr uint32_t kInternalRec = 16 + sizeof(V);

  using SplitResult = typename AggBTree<V>::SplitResult;

  // ---- page accessors -----------------------------------------------------

  static void SetHeader(Page* p, uint16_t type, uint32_t count) {
    p->WriteAt<uint16_t>(0, type);
    p->WriteAt<uint16_t>(2, 0);
    p->WriteAt<uint32_t>(4, count);
  }
  static uint16_t Type(const Page* p) { return p->ReadAt<uint16_t>(0); }
  static uint32_t Count(const Page* p) { return p->ReadAt<uint32_t>(4); }
  static void SetCount(Page* p, uint32_t c) { p->WriteAt<uint32_t>(4, c); }

  static uint32_t LeafOff(uint32_t i) {
    return kHeaderSize + i * kLeafEntrySize;
  }

  [[nodiscard]] uint32_t PageSz() const { return pool_->file()->page_size(); }

  static Point LeafPoint(const Page* p, uint32_t i) {
    return p->ReadAt<Point>(LeafOff(i));
  }
  static uint32_t LeafValueOff(uint32_t i) {
    return LeafOff(i) + sizeof(Point);
  }
  static void WriteLeafEntry(Page* p, uint32_t i, const Point& pt,
                             const V& v) {
    p->WriteAt<Point>(LeafOff(i), pt);
    p->WriteAt<V>(LeafValueOff(i), v);
  }

  static double InternalLowKey(const Page* p, uint32_t i) {
    return p->ReadAt<double>(InternalLowKeyOffset(i));
  }
  PageId InternalChild(const Page* p, uint32_t i) const {
    return p->ReadAt<uint64_t>(InternalChildOffset(PageSz(), i));
  }
  void SetInternalChild(Page* p, uint32_t i, PageId c) const {
    p->WriteAt<uint64_t>(InternalChildOffset(PageSz(), i), c);
  }
  PageId InternalBorder(const Page* p, uint32_t i) const {
    return p->ReadAt<uint64_t>(InternalBorderOffset(PageSz(), i));
  }
  void SetInternalBorder(Page* p, uint32_t i, PageId b) const {
    p->WriteAt<uint64_t>(InternalBorderOffset(PageSz(), i), b);
  }
  void WriteInternalEntry(Page* p, uint32_t i, double lowkey, PageId child,
                          PageId border, const V& sum) const {
    p->WriteAt<double>(InternalLowKeyOffset(i), lowkey);
    p->WriteAt<uint64_t>(InternalChildOffset(PageSz(), i), child);
    p->WriteAt<uint64_t>(InternalBorderOffset(PageSz(), i), border);
    p->WriteAt<V>(InternalSumOffset(PageSz(), i), sum);
  }

  /// Last record with lowkey <= q (record 0's lowkey acts as -infinity):
  /// simd::FirstGreater over the lowkey strip entries [1, n) returns exactly
  /// that record's index (same contract as AggBTree::RouteInternal).
  static uint32_t RouteInternal(const Page* p, uint32_t n, double q) {
    const double* lowkeys =
        reinterpret_cast<const double*>(p->data() + kHeaderSize);
    return simd::FirstGreater(lowkeys + 1, n - 1, q);
  }

  // ---- verification -------------------------------------------------------

  using SubtreeFacts = typename AggBTree<V>::SubtreeFacts;

  Status CheckRec(PageId pid, bool is_root, CheckContext* ctx,
                  SubtreeFacts* out) const {
    BOXAGG_RETURN_NOT_OK(ctx->Visit(pid, "ecdf-btree"));
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    const Page* p = g.page();
    const uint16_t type = Type(p);
    if (type != kLeaf && type != kInternal) {
      return CorruptionAt(pid,
                          "ecdf-btree: bad node type " + std::to_string(type));
    }
    const uint32_t page_size = pool_->file()->page_size();
    const uint32_t cap =
        type == kLeaf ? LeafCapacity(page_size) : InternalCapacity(page_size);
    const uint32_t n = Count(p);
    if (n == 0 || n > cap) {
      return CorruptionAt(pid, "ecdf-btree: entry count " + std::to_string(n) +
                                   " outside [1, " + std::to_string(cap) +
                                   "]");
    }
    if (!is_root && n < 2) {
      return CorruptionAt(pid, "ecdf-btree: underfull non-root node");
    }

    if (type == kLeaf) {
      for (uint32_t i = 1; i < n; ++i) {
        if (!LexLess(LeafPoint(p, i - 1), LeafPoint(p, i), dims_)) {
          return CorruptionAt(
              pid, "ecdf-btree: leaf points not strictly increasing "
                   "(lexicographic) at entry " +
                       std::to_string(i));
        }
      }
      out->sum = V{};
      ValueOps<V>::AddStrided(&out->sum, p->data() + LeafValueOff(0), n,
                              kLeafEntrySize);
      out->min_key = LeafPoint(p, 0)[0];
      out->max_key = LeafPoint(p, n - 1)[0];
      out->depth = 0;
      return Status::OK();
    }

    out->sum = V{};
    V prefix{};  // running sum of records 0..i, the Bq border identity target
    for (uint32_t i = 0; i < n; ++i) {
      const double lowkey = InternalLowKey(p, i);
      // Points sharing a dim-0 coordinate may straddle a split boundary, so
      // lowkeys are only non-decreasing (unlike the coalesced 1-d tree).
      if (i > 0 && InternalLowKey(p, i - 1) > lowkey) {
        return CorruptionAt(
            pid, "ecdf-btree: internal lowkeys decreasing at entry " +
                     std::to_string(i));
      }
      SubtreeFacts child;
      BOXAGG_RETURN_NOT_OK(
          CheckRec(InternalChild(p, i), /*is_root=*/false, ctx, &child));
      if (i > 0 && child.min_key < lowkey) {
        return CorruptionAt(pid, "ecdf-btree: subtree of entry " +
                                     std::to_string(i) +
                                     " holds a key below its lowkey");
      }
      if (i + 1 < n && child.max_key > InternalLowKey(p, i + 1)) {
        return CorruptionAt(pid, "ecdf-btree: subtree of entry " +
                                     std::to_string(i) +
                                     " reaches past the next record's lowkey");
      }
      const V stored = p->ReadAt<V>(InternalSumOffset(page_size, i));
      if (AggDrift(stored, child.sum) > kAggDriftTolerance) {
        return CorruptionAt(pid, "ecdf-btree: record aggregate of entry " +
                                     std::to_string(i) +
                                     " != recomputed subtree sum");
      }
      if (i == 0) {
        out->depth = child.depth + 1;
        out->min_key = child.min_key;
      } else if (child.depth + 1 != out->depth) {
        return CorruptionAt(pid, "ecdf-btree: leaves at unequal depths");
      }
      out->max_key = child.max_key;
      out->sum += child.sum;
      prefix += child.sum;

      // Border: audit its own structure, then the variant identity.
      EcdfBTree border(pool_, dims_ - 1, variant_, InternalBorder(p, i));
      BOXAGG_RETURN_NOT_OK(border.CheckConsistency(ctx));
      V border_total;
      BOXAGG_RETURN_NOT_OK(border.TotalSum(&border_total));
      const V& want =
          variant_ == EcdfVariant::kUpdateOptimized ? child.sum : prefix;
      if (AggDrift(border_total, want) > kAggDriftTolerance) {
        return CorruptionAt(
            pid, std::string("ecdf-btree: border of entry ") +
                     std::to_string(i) + " total != covered subtree sum (" +
                     (variant_ == EcdfVariant::kUpdateOptimized
                          ? "Bu: subtree(e_i)"
                          : "Bq: prefix e_0..e_i") +
                     ")");
      }
    }
    return Status::OK();
  }

  // ---- border helpers -----------------------------------------------------

  /// Bulk-loads a (dims-1)-dim border from `pts` (full-dimension points; the
  /// first coordinate is dropped here).
  Status BuildBorder(const std::vector<Entry>& pts, PageId* out) {
    EcdfBTree sub(pool_, dims_ - 1, variant_);
    std::vector<Entry> projected;
    projected.reserve(pts.size());
    for (const auto& e : pts) {
      projected.push_back(Entry{e.pt.DropDim(0, dims_), e.value});
    }
    BOXAGG_RETURN_NOT_OK(sub.BulkLoad(std::move(projected)));
    *out = sub.root();
    return Status::OK();
  }

  /// Inserts an (already projected) point into the border rooted at
  /// `*border_root`, updating the root in place.
  Status BorderInsert(PageId* border_root, const Point& projected,
                      const V& v) {
    EcdfBTree sub(pool_, dims_ - 1, variant_, *border_root);
    BOXAGG_RETURN_NOT_OK(sub.Insert(projected, v));
    *border_root = sub.root();
    return Status::OK();
  }

  /// Deep-copies the border rooted at `src` (kInvalidPageId copies to
  /// kInvalidPageId).
  Status CloneBorder(PageId src, PageId* out) {
    if (src == kInvalidPageId) {
      *out = kInvalidPageId;
      return Status::OK();
    }
    EcdfBTree sub(pool_, dims_ - 1, variant_, src);
    return sub.CloneInto(out);
  }

  /// Deep page copy of this tree; returns the copy's root.
  Status CloneInto(PageId* out) {
    if (root_ == kInvalidPageId) {
      *out = kInvalidPageId;
      return Status::OK();
    }
    if (dims_ == 1) return AggBTree<V>(pool_, root_).CloneInto(out);
    return CloneRec(root_, out);
  }

  Status CloneRec(PageId pid, PageId* out) {
    {
      PageGuard src, dst;
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &src));
      BOXAGG_RETURN_NOT_OK(pool_->New(&dst));
      std::memcpy(dst.page()->data(), src.page()->data(),
                  pool_->file()->page_size());
      dst.MarkDirty();
      *out = dst.id();
      if (Type(src.page()) == kLeaf) return Status::OK();
    }
    PageGuard d;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(*out, &d));
    uint32_t n = Count(d.page());
    d.Release();
    for (uint32_t i = 0; i < n; ++i) {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(*out, &g));
      PageId child = InternalChild(g.page(), i);
      PageId border = InternalBorder(g.page(), i);
      g.Release();
      PageId child_copy, border_copy;
      BOXAGG_RETURN_NOT_OK(CloneRec(child, &child_copy));
      BOXAGG_RETURN_NOT_OK(CloneBorder(border, &border_copy));
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(*out, &g));
      SetInternalChild(g.page(), i, child_copy);
      SetInternalBorder(g.page(), i, border_copy);
      g.MarkDirty();
    }
    return Status::OK();
  }

  // ---- mutation -----------------------------------------------------------

  Status InsertRec(PageId pid, const Point& p, const V& v,
                   SplitResult* split) {
    split->happened = false;
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    Page* page = g.page();
    uint32_t n = Count(page);
    const uint32_t page_size = pool_->file()->page_size();

    if (Type(page) == kLeaf) {
      // Position by lexicographic order.
      uint32_t lo = 0;
      while (lo < n && LexLess(LeafPoint(page, lo), p, dims_)) ++lo;
      if (lo < n && LexEqual(LeafPoint(page, lo), p, dims_)) {
        V cur = page->ReadAt<V>(LeafValueOff(lo));
        cur += v;
        WriteLeafEntry(page, lo, p, cur);
        g.MarkDirty();
        return Status::OK();
      }
      if (n < LeafCapacity(page_size)) {
        std::memmove(page->data() + LeafOff(lo + 1),
                     page->data() + LeafOff(lo), (n - lo) * kLeafEntrySize);
        WriteLeafEntry(page, lo, p, v);
        SetCount(page, n + 1);
        g.MarkDirty();
        return Status::OK();
      }
      // Leaf split.
      std::vector<Entry> all(n);
      for (uint32_t i = 0; i < n; ++i) {
        all[i] = {LeafPoint(page, i), page->ReadAt<V>(LeafValueOff(i))};
      }
      all.insert(all.begin() + lo, Entry{p, v});
      return AggBTree<V>::SplitNode(
          pool_, &g, kLeaf, all,
          [](Page* q, uint32_t i, const Entry& e) {
            WriteLeafEntry(q, i, e.pt, e.value);
            return std::pair{e.pt[0], e.value};
          },
          split);
    }

    // Internal node: first maintain borders for the incoming point, then
    // recurse.
    uint32_t idx = RouteInternal(page, n, p[0]);
    Point projected = p.DropDim(0, dims_);
    if (variant_ == EcdfVariant::kUpdateOptimized) {
      PageId b = InternalBorder(page, idx);
      BOXAGG_RETURN_NOT_OK(BorderInsert(&b, projected, v));
      SetInternalBorder(page, idx, b);
    } else {
      for (uint32_t i = idx; i < n; ++i) {
        PageId b = InternalBorder(page, i);
        BOXAGG_RETURN_NOT_OK(BorderInsert(&b, projected, v));
        SetInternalBorder(page, i, b);
      }
    }
    g.MarkDirty();

    PageId child = InternalChild(page, idx);
    SplitResult child_split;
    BOXAGG_RETURN_NOT_OK(InsertRec(child, p, v, &child_split));
    if (!child_split.happened) {
      V s = page->ReadAt<V>(InternalSumOffset(page_size, idx));
      s += v;
      page->WriteAt<V>(InternalSumOffset(page_size, idx), s);
      g.MarkDirty();
      return Status::OK();
    }

    // The child split into (child, right_page): replace record idx with two
    // records and rebuild/move their borders per variant.
    PageId old_border = InternalBorder(page, idx);
    PageId border1 = kInvalidPageId, border2 = kInvalidPageId;
    if (variant_ == EcdfVariant::kUpdateOptimized) {
      std::vector<Entry> pts;
      BOXAGG_RETURN_NOT_OK(ScanRec(child, &pts));
      BOXAGG_RETURN_NOT_OK(BuildBorder(pts, &border1));
      pts.clear();
      BOXAGG_RETURN_NOT_OK(ScanRec(child_split.right_page, &pts));
      BOXAGG_RETURN_NOT_OK(BuildBorder(pts, &border2));
      BOXAGG_RETURN_NOT_OK(
          EcdfBTree(pool_, dims_ - 1, variant_, old_border).Destroy());
    } else {
      // Bq: the old border (prefix through the whole old child) is exactly
      // the prefix through the new right half -> reuse it as border2.
      border2 = old_border;
      // border1 = prefix through the left half = clone of the left
      // neighbour's border plus the left half's points.
      if (idx == 0) {
        border1 = kInvalidPageId;
      } else {
        BOXAGG_RETURN_NOT_OK(
            CloneBorder(InternalBorder(page, idx - 1), &border1));
      }
      std::vector<Entry> pts;
      BOXAGG_RETURN_NOT_OK(ScanRec(child, &pts));
      for (const auto& e : pts) {
        BOXAGG_RETURN_NOT_OK(
            BorderInsert(&border1, e.pt.DropDim(0, dims_), e.value));
      }
    }
    WriteInternalEntry(page, idx, child_split.left_lowkey, child, border1,
                       child_split.left_sum);
    if (n < InternalCapacity(page_size)) {
      AggBTree<V>::OpenInternalSlot(page, InternalCapacity(page_size),
                                    kInternalRec, idx + 1, n);
      WriteInternalEntry(page, idx + 1, child_split.right_lowkey,
                         child_split.right_page, border2,
                         child_split.right_sum);
      SetCount(page, n + 1);
      g.MarkDirty();
      return Status::OK();
    }

    // This internal node overflows: split its records.
    struct IEntry {
      double lowkey;
      PageId child;
      PageId border;
      V sum;
    };
    std::vector<IEntry> all(n);
    for (uint32_t i = 0; i < n; ++i) {
      all[i] = {InternalLowKey(page, i), InternalChild(page, i),
                InternalBorder(page, i),
                page->ReadAt<V>(InternalSumOffset(page_size, i))};
    }
    all.insert(all.begin() + idx + 1,
               IEntry{child_split.right_lowkey, child_split.right_page,
                      border2, child_split.right_sum});

    if (variant_ == EcdfVariant::kQueryOptimized) {
      // Prefix borders in the right half covered the left half too; rebuild
      // them over the right half's own subtrees only.
      std::vector<Entry> cumulative;
      for (size_t i = all.size() / 2; i < all.size(); ++i) {
        IEntry& e = all[i];
        BOXAGG_RETURN_NOT_OK(ScanRec(e.child, &cumulative));
        BOXAGG_RETURN_NOT_OK(
            EcdfBTree(pool_, dims_ - 1, variant_, e.border).Destroy());
        BOXAGG_RETURN_NOT_OK(BuildBorder(cumulative, &e.border));
      }
    }
    return AggBTree<V>::SplitNode(
        pool_, &g, kInternal, all,
        [this](Page* q, uint32_t i, const IEntry& e) {
          WriteInternalEntry(q, i, e.lowkey, e.child, e.border, e.sum);
          return std::pair{e.lowkey, e.sum};
        },
        split);
  }

  // ---- traversal ----------------------------------------------------------

  // LINT:hot-path — descent: no heap allocation past warm-up (lint.sh)
  /// The batched descent's node decode and routing (core/batch_descent.h).
  /// Per probe, borders are added in ascending record order (Bu) or as the
  /// single prefix border (Bq) before the walk's contributions below; the
  /// borders are probed while their node is pinned.
  struct BatchOps : PageTreeOps<V, Point, kLeaf> {
    const EcdfBTree* tree;

    bool Less(const Point& a, const Point& b) const { return a[0] < b[0]; }
    auto Base() const {
      return AggBTree<V>::template BatchOps<Point>::Base(*this, tree->dims_);
    }

    Status Leaf(const Page* p, const uint32_t* idx, size_t m) const {
      const uint32_t n = Count(p);
      for (size_t j = 0; j < m; ++j) {
        const Point& q = this->qs[idx[j]];
        V& out = this->outs[idx[j]];
        for (uint32_t i = 0; i < n; ++i) {
          Point pt = LeafPoint(p, i);
          if (pt[0] > q[0]) break;
          if (q.Dominates(pt, tree->dims_)) {
            out += p->ReadAt<V>(LeafValueOff(i));
          }
        }
      }
      return Status::OK();
    }

    Status Route(const Page* p, uint32_t* idx, size_t m, unsigned level,
                 BatchRouting<PageId, NoSide>* r) const {
      const uint32_t n = Count(p);
      // Sorted probes route monotonically, so per-child groups are
      // contiguous runs of idx with strictly increasing routes.
      r->Reserve(*this->arena, std::min<size_t>(n, m));
      for (size_t j = 0; j < m;) {
        const uint32_t route = RouteInternal(p, n, this->qs[idx[j]][0]);
        size_t k = j + 1;
        while (k < m && RouteInternal(p, n, this->qs[idx[k]][0]) == route) {
          ++k;
        }
        r->Add(tree->InternalChild(p, route), route, j, k);
        j = k;
      }
      // Probes idx[s, e) through border `i`, each adding its sum.
      auto probe_border = [&](uint32_t i, size_t s, size_t e) -> Status {
        const EcdfBTree sub(this->pool, tree->dims_ - 1, tree->variant_,
                            tree->InternalBorder(p, i));
        return SideBatch(BatchOps{*this, &sub}, sub.root_, idx + s, e - s, 0,
                         tree->dims_, level + 1);
      };
      const auto groups = r->groups();  // routes strictly increase
      if (tree->variant_ == EcdfVariant::kUpdateOptimized) {
        // Border i is needed by every probe routed right of record i — a
        // contiguous suffix of the sorted batch. Probing borders in
        // ascending i gives each probe its border additions in ascending
        // record order.
        size_t gi = 0;  // first group with route > i
        for (uint32_t i = 0; i < groups.back().slot; ++i) {
          while (groups[gi].slot <= i) ++gi;
          BOXAGG_RETURN_NOT_OK(probe_border(i, groups[gi].begin, m));
        }
      } else {
        // Bq: each route group reads exactly one prefix border.
        for (const auto& gr : groups) {
          if (gr.slot == 0) continue;
          BOXAGG_RETURN_NOT_OK(probe_border(gr.slot - 1, gr.begin, gr.end));
        }
      }
      return Status::OK();
    }
  };
  // LINT:hot-path-end

  Status ScanRec(PageId pid, std::vector<Entry>* out) const {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    const Page* p = g.page();
    uint32_t n = Count(p);
    if (Type(p) == kLeaf) {
      for (uint32_t i = 0; i < n; ++i) {
        out->push_back(Entry{LeafPoint(p, i), p->ReadAt<V>(LeafValueOff(i))});
      }
      return Status::OK();
    }
    std::vector<PageId> children(n);
    for (uint32_t i = 0; i < n; ++i) children[i] = InternalChild(p, i);
    g.Release();
    for (PageId c : children) {
      BOXAGG_RETURN_NOT_OK(ScanRec(c, out));
    }
    return Status::OK();
  }

  BufferPool* pool_;
  int dims_;
  EcdfVariant variant_;
  PageId root_;
};

}  // namespace boxagg

#endif  // BOXAGG_ECDF_ECDF_BTREE_H_
