// AggBTree: a disk-based B+-tree whose internal records carry subtree
// aggregates, answering 1-dimensional dominance-sum queries ("total value of
// all keys <= q") in O(log_B n) I/Os with O(log_B n) insertion.
//
// This structure is the base case of every recursive index in the paper: a
// 1-dimensional ECDF-B-tree and a 1-dimensional BA-tree are exactly this tree
// (it is also the structural idea behind the JSB-tree of [37]). Borders of
// higher-dimensional trees bottom out here.
//
// The tree is an additive-group aggregate index: it stores sums, not objects.
// Deletion of a previously inserted (key, v) is Insert(key, -v). Entries with
// equal keys are coalesced, so the entry count is the number of distinct keys.
//
// Page layout (fixed page size from the BufferPool's PageFile). Nodes are
// structure-of-arrays: the keys every descent searches sit in one contiguous,
// cache-line-aligned strip at the front of the page, so the in-node search
// (simd::FirstGreater) streams through pure key data instead of striding over
// interleaved values:
//   header:   u16 type (1=leaf, 2=internal), u16 pad, u32 count
//   leaf:     f64 key[LeafCapacity], then V value[LeafCapacity]
//   internal: f64 lowkey[InternalCapacity],
//             then { u64 child, V subtree_sum }[InternalCapacity]
// Capacities — and therefore node fan-out, tree shape, and every I/O count —
// are unchanged from the interleaved layout: the same entries occupy the same
// page budget, only their in-page order differs.
// Internal entry i routes keys in [lowkey_i, lowkey_{i+1}); entry 0's lowkey
// acts as -infinity during routing.

#ifndef BOXAGG_BPTREE_AGG_BTREE_H_
#define BOXAGG_BPTREE_AGG_BTREE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/checkable.h"
#include "core/arena.h"
#include "core/batch_descent.h"
#include "core/value_ops.h"
#include "simd/simd.h"
#include "storage/buffer_pool.h"

namespace boxagg {

/// \brief Handle to a disk-resident aggregate B+-tree.
///
/// The handle owns no pages itself; it records the root PageId, which changes
/// on root splits. Callers embedding a tree inside another page (borders)
/// must persist root() after mutating operations.
template <class V>
class AggBTree {
 public:
  static_assert(std::is_trivially_copyable_v<V>);

  /// An entry as seen by scans and bulk loads.
  struct Entry {
    double key;
    V value;
  };

  AggBTree(BufferPool* pool, PageId root = kInvalidPageId)
      : pool_(pool), root_(root) {}

  [[nodiscard]] PageId root() const { return root_; }
  [[nodiscard]] bool empty() const { return root_ == kInvalidPageId; }

  static uint32_t LeafCapacity(uint32_t page_size) {
    return (page_size - kHeaderSize) / kLeafEntrySize;
  }
  static uint32_t InternalCapacity(uint32_t page_size) {
    return (page_size - kHeaderSize) / kInternalEntrySize;
  }

  // ---- public layout map ---------------------------------------------------
  // Byte offsets of the SoA strips, exposed for the code that addresses
  // AggBTree pages directly: ReplicaBuilder's node snapshots and the
  // corruption-injection tests.

  static uint32_t LeafKeyOffset(uint32_t i) { return kHeaderSize + i * 8; }
  static uint32_t LeafValueOffset(uint32_t page_size, uint32_t i) {
    return kHeaderSize + 8 * LeafCapacity(page_size) +
           i * static_cast<uint32_t>(sizeof(V));
  }
  static uint32_t InternalLowKeyOffset(uint32_t i) {
    return kHeaderSize + i * 8;
  }
  static uint32_t InternalChildOffset(uint32_t page_size, uint32_t i) {
    return kHeaderSize + 8 * InternalCapacity(page_size) + i * kInternalRec;
  }
  static uint32_t InternalSumOffset(uint32_t page_size, uint32_t i) {
    return InternalChildOffset(page_size, i) + 8;
  }

  /// True iff pages of `page_size` bytes can hold enough entries for the
  /// split algorithms to operate (>= 4 per node).
  static bool PageSizeViable(uint32_t page_size) {
    return LeafCapacity(page_size) >= 4 && InternalCapacity(page_size) >= 4;
  }

  /// Adds `v` to the aggregate at `key` (coalescing equal keys).
  Status Insert(double key, const V& v) {
    if (!PageSizeViable(pool_->file()->page_size())) {
      return Status::InvalidArgument("page size too small for value type");
    }
    if (root_ == kInvalidPageId) {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetHeader(g.page(), kLeaf, 1);
      WriteLeafEntry(g.page(), 0, key, v);
      g.MarkDirty();
      root_ = g.id();
      return Status::OK();
    }
    SplitResult split;
    BOXAGG_RETURN_NOT_OK(InsertRec(root_, key, v, &split));
    if (split.happened) {
      // Grow a new root above the two halves.
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      SetHeader(g.page(), kInternal, 2);
      WriteInternalEntry(g.page(), 0, split.left_lowkey, root_,
                         split.left_sum);
      WriteInternalEntry(g.page(), 1, split.right_lowkey, split.right_page,
                         split.right_sum);
      g.MarkDirty();
      root_ = g.id();
    }
    return Status::OK();
  }

  // LINT:hot-path — descent: no heap allocation past warm-up (lint.sh)
  /// Sum of values over all keys <= q: a one-probe DominanceSumBatch, i.e.
  /// the single root-to-leaf walk. An empty tree yields V{}.
  ///
  /// `obs_level` offsets the per-level node-visit attribution (obs/): a
  /// border sub-tree embedded at parent level L passes L+1 so its root
  /// counts at the depth it actually sits in the composite structure.
  Status DominanceSum(double q, V* out, unsigned obs_level = 0) const {
    return DominanceSumBatch(&q, 1, out, obs_level);
  }

  /// Batched dominance sums: outs[i] = sum of values over keys <= qs[i],
  /// bit-identical for any batching; each page is fetched at most once per
  /// batch (core/batch_descent.h).
  Status DominanceSumBatch(const double* qs, size_t count, V* outs,
                           unsigned obs_level = 0) const {
    return BatchDescent<BatchOps<double>>::Run(
        {{pool_, &core::ScratchArena(), qs, outs}, PageSz()}, root_, count,
        obs_level);
  }

  // LINT:hot-path-end
  /// Sum of all values in the tree.
  Status TotalSum(V* out) const {
    *out = V{};
    if (root_ == kInvalidPageId) return Status::OK();
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(root_, &g));
    const Page* p = g.page();
    if (Type(p) == kLeaf) {
      ValueOps<V>::AddStrided(out, p->data() + LeafValueOffset(PageSz(), 0),
                              Count(p), sizeof(V));
    } else {
      ValueOps<V>::AddStrided(out, p->data() + InternalSumOffset(PageSz(), 0),
                              Count(p), kInternalRec);
    }
    return Status::OK();
  }

  /// Appends every (key, value) entry in ascending key order.
  Status ScanAll(std::vector<Entry>* out) const {
    if (root_ == kInvalidPageId) return Status::OK();
    return ScanRec(root_, out);
  }

  /// Number of pages owned by the tree.
  Status PageCount(uint64_t* out) const {
    *out = 0;
    return ForEachOwnedPage([out](PageId) {
      ++*out;
      return Status::OK();
    });
  }

  /// Calls fn(pid), which returns a Status, once for every page the tree
  /// owns, post-order: each record's child subtree in record order, then
  /// the node. A node is released before its subtrees are walked, so `fn`
  /// may free the page it is handed.
  template <class Fn>
  Status ForEachOwnedPage(Fn&& fn) const {
    if (root_ == kInvalidPageId) return Status::OK();
    std::vector<PageId> children;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(root_, &g));
      const Page* p = g.page();
      if (Type(p) == kInternal) {
        for (uint32_t i = 0; i < Count(p); ++i) {
          children.push_back(InternalChild(p, i));
        }
      }
    }
    for (PageId c : children) {
      BOXAGG_RETURN_NOT_OK(AggBTree(pool_, c).ForEachOwnedPage(fn));
    }
    return fn(root_);
  }

  /// Builds a tree from a sorted stream: Add every entry in strictly
  /// increasing key order, then Finish. Leaves are full pages, written as
  /// soon as they fill, except that the last leaf_target + 1 entries are
  /// held back until Finish so that the tail never leaves a one-entry
  /// final leaf (it is split leaf_target - 1, 2 instead). Finish then
  /// builds the internal levels, under the same rule, from the list of
  /// leaves. Memory is at most leaf_target + 2 entries plus one record per
  /// leaf.
  class Loader {
   public:
    explicit Loader(BufferPool* pool)
        : tree_(pool),
          viable_(PageSizeViable(pool->file()->page_size())),
          leaf_target_(LeafCapacity(pool->file()->page_size())) {}

    Status Add(double key, const V& v) {
      if (!viable_) return TooSmall();
      assert(held_.empty() || held_.back().key < key);
      held_.push_back(Entry{key, v});
      // With leaf_target + 2 held, a full leaf still leaves a tail of two.
      if (held_.size() < size_t{leaf_target_} + 2) return Status::OK();
      return WriteLeaf(leaf_target_);
    }

    /// Entries for the next node when `remaining` are left: a full node,
    /// or one fewer when a full one would leave a single entry behind. The
    /// B+-tree tail rule of every bulk load (EcdfBTree's too).
    static size_t Take(size_t remaining, uint32_t target) {
      size_t take = std::min<size_t>(target, remaining);
      if (remaining - take == 1 && take > 2) take -= 1;
      return take;
    }

    /// Writes what is held and the internal levels. *root is the new
    /// tree's root, or kInvalidPageId when nothing was added.
    Status Finish(PageId* root) {
      if (!viable_) return TooSmall();
      while (!held_.empty()) {
        BOXAGG_RETURN_NOT_OK(WriteLeaf(Take(held_.size(), leaf_target_)));
      }
      const uint32_t internal_target =
          InternalCapacity(tree_.pool_->file()->page_size());
      while (level_.size() > 1) {
        std::vector<Up> next;
        size_t j = 0;
        while (j < level_.size()) {
          const size_t take = Take(level_.size() - j, internal_target);
          PageGuard g;
          BOXAGG_RETURN_NOT_OK(tree_.pool_->New(&g));
          SetHeader(g.page(), kInternal, static_cast<uint32_t>(take));
          V sum{};
          for (size_t k = 0; k < take; ++k) {
            const Up& u = level_[j + k];
            tree_.WriteInternalEntry(g.page(), static_cast<uint32_t>(k),
                                     u.lowkey, u.pid, u.sum);
            sum += u.sum;
          }
          g.MarkDirty();
          next.push_back(Up{level_[j].lowkey, g.id(), sum});
          j += take;
        }
        level_ = std::move(next);
      }
      *root = level_.empty() ? kInvalidPageId : level_[0].pid;
      return Status::OK();
    }

   private:
    struct Up {
      double lowkey;
      PageId pid;
      V sum;
    };

    static Status TooSmall() {
      return Status::InvalidArgument("page size too small for value type");
    }

    /// Writes the first `take` held entries into a new (zeroed) leaf.
    Status WriteLeaf(size_t take) {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(tree_.pool_->New(&g));
      SetHeader(g.page(), kLeaf, static_cast<uint32_t>(take));
      V sum{};
      for (size_t k = 0; k < take; ++k) {
        tree_.WriteLeafEntry(g.page(), static_cast<uint32_t>(k), held_[k].key,
                             held_[k].value);
        sum += held_[k].value;
      }
      g.MarkDirty();
      level_.push_back(Up{held_[0].key, g.id(), sum});
      held_.erase(held_.begin(),
                 held_.begin() + static_cast<std::ptrdiff_t>(take));
      return Status::OK();
    }

    AggBTree tree_;  // the page writer
    bool viable_;
    uint32_t leaf_target_;
    std::vector<Entry> held_;  // entries not yet in a leaf
    std::vector<Up> level_;    // one record per written leaf
  };

  /// Builds a tree from entries sorted by strictly increasing key through
  /// a Loader. The tree must be empty.
  Status BulkLoad(const std::vector<Entry>& sorted) {
    if (root_ != kInvalidPageId) {
      return Status::InvalidArgument("BulkLoad into non-empty tree");
    }
    Loader loader(pool_);
    for (const Entry& e : sorted) {
      BOXAGG_RETURN_NOT_OK(loader.Add(e.key, e.value));
    }
    return loader.Finish(&root_);
  }

  /// Frees every page of the tree; the handle becomes empty.
  Status Destroy() {
    BOXAGG_RETURN_NOT_OK(
        ForEachOwnedPage([this](PageId pid) { return pool_->Delete(pid); }));
    root_ = kInvalidPageId;
    return Status::OK();
  }

  /// Deep page copy of this tree; returns the copy's root (kInvalidPageId
  /// for an empty tree). The handle itself is unchanged.
  Status CloneInto(PageId* out) {
    if (root_ == kInvalidPageId) {
      *out = kInvalidPageId;
      return Status::OK();
    }
    return CloneRec(root_, out);
  }

  /// Deep structural audit: page types, fill bounds, strictly increasing
  /// keys/lowkeys, routing bounds (every subtree's keys stay inside its
  /// record's [lowkey_i, lowkey_{i+1}) range; entry 0's lowkey acts as
  /// -infinity), uniform leaf depth, and the subtree-sum identity every
  /// internal record must satisfy for DominanceSum's prefix shortcut to be
  /// correct. Pass a shared `ctx` to audit several structures over one file
  /// (cross-structure page-ownership checks); nullptr uses a local context.
  Status CheckConsistency(CheckContext* ctx = nullptr) const {
    CheckContext local;
    if (ctx == nullptr) ctx = &local;
    if (root_ == kInvalidPageId) return Status::OK();
    SubtreeFacts facts;
    return CheckRec(root_, /*is_root=*/true, ctx, &facts);
  }

  // ---- B+-tree plumbing shared with EcdfBTree's main branch ---------------
  // Both trees head their pages { u16 type, u16 pad, u32 count } and lay an
  // internal node out as a lowkey strip followed by a record strip.

  /// What an overflowing node hands its parent: both halves' lowkeys and
  /// sums, and the new right page.
  struct SplitResult {
    bool happened = false;
    PageId right_page = kInvalidPageId;
    double left_lowkey = 0.0;
    double right_lowkey = 0.0;
    V left_sum{};
    V right_sum{};
  };

  /// What CheckRec learns about a subtree, checked against the parent
  /// record (keys are EcdfBTree's dim-0 coordinates).
  struct SubtreeFacts {
    double min_key = 0.0;
    double max_key = 0.0;
    V sum{};
    uint32_t depth = 0;  // 0 at leaves; must be uniform across siblings
  };

  /// The overflow split: writes all[0, n/2) back into g's page and
  /// all[n/2, n) into a new right page, heads both `type`, and fills
  /// *split. put(page, i, e) writes entry e at slot i and returns its
  /// {lowkey, sum}.
  template <class E, class Put>
  static Status SplitNode(BufferPool* pool, PageGuard* g, uint16_t type,
                          const std::vector<E>& all, Put put,
                          SplitResult* split) {
    const auto left_n = static_cast<uint32_t>(all.size() / 2);
    PageGuard rg;
    BOXAGG_RETURN_NOT_OK(pool->New(&rg));
    auto fill = [&](Page* p, uint32_t from, uint32_t to, double* lowkey,
                    V* sum) {
      SetHeader(p, type, to - from);
      for (uint32_t i = from; i < to; ++i) {
        const auto [key, value] = put(p, i - from, all[i]);
        if (i == from) *lowkey = key;
        *sum += value;
      }
    };
    *split = SplitResult{true, rg.id()};
    fill(g->page(), 0, left_n, &split->left_lowkey, &split->left_sum);
    fill(rg.page(), left_n, static_cast<uint32_t>(all.size()),
         &split->right_lowkey, &split->right_sum);
    g->MarkDirty();
    rg.MarkDirty();
    return Status::OK();
  }

  /// Opens slot `at` of an internal node holding n records: records
  /// [at, n) move one slot right in both strips, the lowkeys and the
  /// `rec`-byte records that start after `cap` lowkeys.
  static void OpenInternalSlot(Page* p, uint32_t cap, uint32_t rec,
                               uint32_t at, uint32_t n) {
    const uint32_t recs = kHeaderSize + 8 * cap;
    std::memmove(p->data() + InternalLowKeyOffset(at + 1),
                 p->data() + InternalLowKeyOffset(at), (n - at) * size_t{8});
    std::memmove(p->data() + recs + (at + 1) * rec, p->data() + recs + at * rec,
                 (n - at) * size_t{rec});
  }

 private:
  // The replica builder snapshots nodes through the raw accessors below.
  template <class>
  friend class ReplicaBuilder;

  static constexpr uint16_t kLeaf = 1;
  static constexpr uint16_t kInternal = 2;
  static constexpr uint32_t kHeaderSize = 8;
  // Per-entry page budget (determines capacity; the strips split these bytes
  // into key and payload parts).
  static constexpr uint32_t kLeafEntrySize = 8 + sizeof(V);
  static constexpr uint32_t kInternalEntrySize = 16 + sizeof(V);
  // Stride of one { child, sum } record in the internal payload strip.
  static constexpr uint32_t kInternalRec = 8 + sizeof(V);

  // ---- page accessors -----------------------------------------------------
  // The key strips are page-size independent (they start right after the
  // header), so key accessors stay static; payload accessors live behind the
  // capacity split and need the page size from the pool.

  static void SetHeader(Page* p, uint16_t type, uint32_t count) {
    p->WriteAt<uint16_t>(0, type);
    p->WriteAt<uint16_t>(2, 0);
    p->WriteAt<uint32_t>(4, count);
  }
  static uint16_t Type(const Page* p) { return p->ReadAt<uint16_t>(0); }
  static uint32_t Count(const Page* p) { return p->ReadAt<uint32_t>(4); }
  static void SetCount(Page* p, uint32_t c) { p->WriteAt<uint32_t>(4, c); }

  [[nodiscard]] uint32_t PageSz() const { return pool_->file()->page_size(); }

  static double LeafKey(const Page* p, uint32_t i) {
    return p->ReadAt<double>(LeafKeyOffset(i));
  }
  void WriteLeafEntry(Page* p, uint32_t i, double key, const V& v) const {
    p->WriteAt<double>(LeafKeyOffset(i), key);
    p->WriteAt<V>(LeafValueOffset(PageSz(), i), v);
  }

  static double InternalLowKey(const Page* p, uint32_t i) {
    return p->ReadAt<double>(InternalLowKeyOffset(i));
  }
  PageId InternalChild(const Page* p, uint32_t i) const {
    return p->ReadAt<uint64_t>(InternalChildOffset(PageSz(), i));
  }
  void WriteInternalEntry(Page* p, uint32_t i, double lowkey, PageId child,
                          const V& sum) const {
    p->WriteAt<double>(InternalLowKeyOffset(i), lowkey);
    p->WriteAt<uint64_t>(InternalChildOffset(PageSz(), i), child);
    p->WriteAt<V>(InternalSumOffset(PageSz(), i), sum);
  }

  /// Index of the child subtree that covers key `q`: the last entry with
  /// lowkey <= q, except that entry 0 covers everything below lowkey_1.
  /// simd::FirstGreater over entries [1, n) returns the first lowkey > q
  /// relative to entry 1; that count is exactly the covering entry's index.
  static uint32_t RouteInternal(const Page* p, uint32_t n, double q) {
    const double* lowkeys =
        reinterpret_cast<const double*>(p->data() + kHeaderSize);
    return simd::FirstGreater(lowkeys + 1, n - 1, q);
  }

  // ---- mutation -----------------------------------------------------------

  Status InsertRec(PageId pid, double key, const V& v, SplitResult* split) {
    split->happened = false;
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    Page* p = g.page();
    uint32_t n = Count(p);
    const uint32_t page_size = pool_->file()->page_size();

    if (Type(p) == kLeaf) {
      // Find insertion position (first entry with key >= `key`).
      uint32_t lo = 0, hi = n;
      while (lo < hi) {
        uint32_t mid = (lo + hi) / 2;
        if (LeafKey(p, mid) < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < n && LeafKey(p, lo) == key) {
        V cur = p->ReadAt<V>(LeafValueOffset(page_size, lo));
        cur += v;
        WriteLeafEntry(p, lo, key, cur);
        g.MarkDirty();
        return Status::OK();
      }
      if (n < LeafCapacity(page_size)) {
        std::memmove(p->data() + LeafKeyOffset(lo + 1),
                     p->data() + LeafKeyOffset(lo), (n - lo) * 8);
        std::memmove(p->data() + LeafValueOffset(page_size, lo + 1),
                     p->data() + LeafValueOffset(page_size, lo),
                     (n - lo) * sizeof(V));
        WriteLeafEntry(p, lo, key, v);
        SetCount(p, n + 1);
        g.MarkDirty();
        return Status::OK();
      }
      // Split: gather, insert, redistribute halves.
      std::vector<Entry> all(n);
      for (uint32_t i = 0; i < n; ++i) {
        all[i] = {LeafKey(p, i), p->ReadAt<V>(LeafValueOffset(page_size, i))};
      }
      all.insert(all.begin() + lo, Entry{key, v});
      return SplitNode(
          pool_, &g, kLeaf, all,
          [this](Page* q, uint32_t i, const Entry& e) {
            WriteLeafEntry(q, i, e.key, e.value);
            return std::pair{e.key, e.value};
          },
          split);
    }

    // Internal node.
    uint32_t idx = RouteInternal(p, n, key);
    PageId child = InternalChild(p, idx);
    // Recurse without holding this page pinned state hostage: the guard stays
    // pinned (depth pins are bounded by tree height).
    SplitResult child_split;
    BOXAGG_RETURN_NOT_OK(InsertRec(child, key, v, &child_split));
    if (!child_split.happened) {
      V s = p->ReadAt<V>(InternalSumOffset(page_size, idx));
      s += v;
      p->WriteAt<V>(InternalSumOffset(page_size, idx), s);
      g.MarkDirty();
      return Status::OK();
    }
    // Child split: fix entry idx, then place the new right sibling at idx+1.
    WriteInternalEntry(p, idx, child_split.left_lowkey, child,
                       child_split.left_sum);
    if (n < InternalCapacity(page_size)) {
      OpenInternalSlot(p, InternalCapacity(page_size), kInternalRec, idx + 1,
                       n);
      WriteInternalEntry(p, idx + 1, child_split.right_lowkey,
                         child_split.right_page, child_split.right_sum);
      SetCount(p, n + 1);
      g.MarkDirty();
      return Status::OK();
    }
    // This internal node overflows too.
    struct IEntry {
      double lowkey;
      PageId child;
      V sum;
    };
    std::vector<IEntry> all(n);
    for (uint32_t i = 0; i < n; ++i) {
      all[i] = {InternalLowKey(p, i), InternalChild(p, i),
                p->ReadAt<V>(InternalSumOffset(page_size, i))};
    }
    all.insert(all.begin() + idx + 1,
               IEntry{child_split.right_lowkey, child_split.right_page,
                      child_split.right_sum});
    return SplitNode(
        pool_, &g, kInternal, all,
        [this](Page* q, uint32_t i, const IEntry& e) {
          WriteInternalEntry(q, i, e.lowkey, e.child, e.sum);
          return std::pair{e.lowkey, e.sum};
        },
        split);
  }

  // ---- traversal ----------------------------------------------------------

 public:
  // LINT:hot-path — descent: no heap allocation past warm-up (lint.sh)
  /// The batched descent's node decode and routing (core/batch_descent.h)
  /// over probes that are keys, or points keyed by dimension 0 (the 1-d
  /// base case of EcdfBTree and PackedBaTree, whose ops return it from
  /// Base()).
  template <class P>
  struct BatchOps : PageTreeOps<V, P, kLeaf> {
    uint32_t page_size;

    /// Another tree's Base(): its ops' batch when the tree is 1-d.
    static std::optional<BatchOps> Base(const auto& ops, int dims) {
      if (dims != 1) return std::nullopt;
      return BatchOps{{ops.pool, ops.arena, ops.qs, ops.outs},
                      ops.pool->file()->page_size()};
    }

    static double Key(double q) { return q; }
    static double Key(const Point& q) { return q[0]; }
    bool Less(const P& a, const P& b) const { return Key(a) < Key(b); }

    Status Leaf(const Page* p, const uint32_t* idx, size_t m) const {
      const uint32_t n = Count(p);
      const auto* keys =
          reinterpret_cast<const double*>(p->data() + kHeaderSize);
      const uint8_t* vals = p->data() + LeafValueOffset(page_size, 0);
      for (size_t j = 0; j < m; ++j) {
        const double q = Key(this->qs[idx[j]]);
        ValueOps<V>::AddStrided(&this->outs[idx[j]], vals,
                                simd::FirstGreater(keys, n, q), sizeof(V));
      }
      return Status::OK();
    }

    /// Each probe adds the subtree sums left of its route; sorted probes
    /// route monotonically, so per-child groups are runs of idx.
    Status Route(const Page* p, uint32_t* idx, size_t m, unsigned,
                 BatchRouting<PageId, NoSide>* r) const {
      const uint32_t n = Count(p);
      const uint8_t* sums = p->data() + InternalSumOffset(page_size, 0);
      r->Reserve(*this->arena, std::min<size_t>(n, m));
      for (size_t j = 0; j < m;) {
        const uint32_t route = RouteInternal(p, n, Key(this->qs[idx[j]]));
        size_t k = j + 1;
        while (k < m && RouteInternal(p, n, Key(this->qs[idx[k]])) == route) {
          ++k;
        }
        for (size_t t = j; t < k; ++t) {
          ValueOps<V>::AddStrided(&this->outs[idx[t]], sums, route,
                                  kInternalRec);
        }
        r->Add(p->ReadAt<PageId>(InternalChildOffset(page_size, route)),
               route, j, k);
        j = k;
      }
      return Status::OK();
    }
  };
  // LINT:hot-path-end

 private:
  Status ScanRec(PageId pid, std::vector<Entry>* out) const {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    const Page* p = g.page();
    uint32_t n = Count(p);
    if (Type(p) == kLeaf) {
      for (uint32_t i = 0; i < n; ++i) {
        out->push_back(
            Entry{LeafKey(p, i), p->ReadAt<V>(LeafValueOffset(PageSz(), i))});
      }
      return Status::OK();
    }
    for (uint32_t i = 0; i < n; ++i) {
      PageId child = InternalChild(p, i);
      BOXAGG_RETURN_NOT_OK(ScanRec(child, out));
    }
    return Status::OK();
  }

  // ---- verification -------------------------------------------------------

  Status CheckRec(PageId pid, bool is_root, CheckContext* ctx,
                  SubtreeFacts* out) const {
    BOXAGG_RETURN_NOT_OK(ctx->Visit(pid, "agg-btree"));
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
    const Page* p = g.page();
    const uint16_t type = Type(p);
    if (type != kLeaf && type != kInternal) {
      return CorruptionAt(pid,
                          "agg-btree: bad node type " + std::to_string(type));
    }
    const uint32_t page_size = pool_->file()->page_size();
    const uint32_t cap =
        type == kLeaf ? LeafCapacity(page_size) : InternalCapacity(page_size);
    const uint32_t n = Count(p);
    if (n == 0 || n > cap) {
      return CorruptionAt(pid, "agg-btree: entry count " + std::to_string(n) +
                                   " outside [1, " + std::to_string(cap) +
                                   "]");
    }
    if (!is_root && n < 2) {
      return CorruptionAt(pid, "agg-btree: underfull non-root node");
    }

    if (type == kLeaf) {
      for (uint32_t i = 1; i < n; ++i) {
        if (!(LeafKey(p, i - 1) < LeafKey(p, i))) {
          return CorruptionAt(
              pid, "agg-btree: leaf keys not strictly increasing at entry " +
                       std::to_string(i));
        }
      }
      out->sum = V{};
      ValueOps<V>::AddStrided(&out->sum,
                              p->data() + LeafValueOffset(page_size, 0), n,
                              sizeof(V));
      out->min_key = LeafKey(p, 0);
      out->max_key = LeafKey(p, n - 1);
      out->depth = 0;
      return Status::OK();
    }

    out->sum = V{};
    for (uint32_t i = 0; i < n; ++i) {
      const double lowkey = InternalLowKey(p, i);
      if (i > 0 && !(InternalLowKey(p, i - 1) < lowkey)) {
        return CorruptionAt(
            pid, "agg-btree: internal lowkeys not strictly increasing at "
                 "entry " +
                     std::to_string(i));
      }
      SubtreeFacts child;
      BOXAGG_RETURN_NOT_OK(
          CheckRec(InternalChild(p, i), /*is_root=*/false, ctx, &child));
      // Entry 0's lowkey can be stale after inserts of smaller keys (routing
      // treats it as -infinity), so only entries i >= 1 bound from below.
      if (i > 0 && child.min_key < lowkey) {
        return CorruptionAt(pid, "agg-btree: subtree of entry " +
                                     std::to_string(i) +
                                     " holds a key below its lowkey");
      }
      if (i + 1 < n && child.max_key >= InternalLowKey(p, i + 1)) {
        return CorruptionAt(pid, "agg-btree: subtree of entry " +
                                     std::to_string(i) +
                                     " reaches into the next record's range");
      }
      const V stored = p->ReadAt<V>(InternalSumOffset(page_size, i));
      if (AggDrift(stored, child.sum) > kAggDriftTolerance) {
        return CorruptionAt(pid, "agg-btree: record aggregate of entry " +
                                     std::to_string(i) +
                                     " != recomputed subtree sum");
      }
      if (i == 0) {
        out->depth = child.depth + 1;
        out->min_key = child.min_key;
      } else if (child.depth + 1 != out->depth) {
        return CorruptionAt(pid, "agg-btree: leaves at unequal depths");
      }
      out->max_key = child.max_key;
      out->sum += child.sum;
    }
    return Status::OK();
  }

  /// Copies the subtree at `pid` page by page: the copy of an internal
  /// node is re-fetched per child (bounding pins) to patch in the child's
  /// copy.
  Status CloneRec(PageId pid, PageId* out) {
    PageGuard src, dst;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &src));
    BOXAGG_RETURN_NOT_OK(pool_->New(&dst));
    std::memcpy(dst.page()->data(), src.page()->data(), PageSz());
    dst.MarkDirty();
    *out = dst.id();
    if (Type(src.page()) != kInternal) return Status::OK();
    const uint32_t n = Count(src.page());
    src.Release();
    for (uint32_t i = 0; i < n; ++i) {
      PageGuard d2;
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(*out, &d2));
      const PageId child = InternalChild(d2.page(), i);
      d2.Release();
      PageId cloned;
      BOXAGG_RETURN_NOT_OK(CloneRec(child, &cloned));
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(*out, &d2));
      d2.page()->WriteAt<uint64_t>(InternalChildOffset(PageSz(), i), cloned);
      d2.MarkDirty();
    }
    return Status::OK();
  }

  BufferPool* pool_;
  PageId root_;
};

}  // namespace boxagg

#endif  // BOXAGG_BPTREE_AGG_BTREE_H_
