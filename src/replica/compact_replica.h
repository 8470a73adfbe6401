// CompactReplica: the compressed, immutable read backend built by
// ReplicaBuilder (replica/replica_builder.h) from a live PackedBaTree or
// AggBTree snapshot. Format details live in replica/replica_format.h;
// DESIGN.md §13 has the full layout diagram and the rebuild plan.
//
// The replica plugs into BoxSumIndex unchanged: it answers DominanceSum and
// DominanceSumBatch with results BYTE-IDENTICAL to the source tree — the
// descent mirrors PackedBaTree / AggBTree addition for addition (same
// values, same order, FP addition is not associative), it only reads them
// from delta/dictionary-compressed strips instead of pointer-rich pages.
// Mutation entry points refuse with InvalidArgument: replicas are rebuilt
// from the writer tree at generation publish, never patched in place.
//
// Open before use: Open() runs the replica's one validating loader (header
// page, meta chain, directory, dictionaries — the same parse and checks
// CheckConsistency starts from) and keeps the result as the replica's
// cache. A replica that was never opened refuses DominanceSum,
// DominanceSumBatch, PageCount and Destroy with InvalidArgument and reads
// no page. Once Open() has returned, the replica is read-only: any number
// of threads may query it (the executor adapter captures a pointer to the
// BoxSumIndex, so every worker reads the same cache).
//
// I/O discipline: the replica descends through the live trees' skeleton
// (core/batch_descent.h), which pairs each node's one BufferPool::Fetch
// with its visit note, so boxagg_stats' identity sum(node_visits) ==
// logical_reads holds here too.
//
// One node reader: queries and CheckConsistency decode nodes through the
// same bounded NodeReader, so a malformed node (a strip wider than 8
// bytes, a dictionary token past its dictionary, a read past the payload,
// an entry count beyond the page, a child or spill ordinal outside
// (node, node_count)) fails a query with the same Corruption fsck reports.

#ifndef BOXAGG_REPLICA_COMPACT_REPLICA_H_
#define BOXAGG_REPLICA_COMPACT_REPLICA_H_

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "check/checkable.h"
#include "core/arena.h"
#include "core/batch_descent.h"
#include "core/point_entry.h"
#include "core/value_ops.h"
#include "geom/box.h"
#include "geom/point.h"
#include "replica/replica_format.h"
#include "simd/simd.h"
#include "storage/buffer_pool.h"

namespace boxagg {

/// Sets *is_replica to whether page `root` is a replica header. Live
/// PackedBaTree / AggBTree roots carry their own node types, so the page
/// type alone tells them apart; an empty root is no replica. A failed read
/// of the root is returned, not taken for either answer.
inline Status IsReplicaRoot(BufferPool* pool, PageId root, bool* is_replica) {
  *is_replica = false;
  if (root == kInvalidPageId) return Status::OK();
  PageGuard g;
  BOXAGG_RETURN_NOT_OK(pool->Fetch(root, &g));
  *is_replica =
      g.page()->ReadAt<uint16_t>(replica::kHdrType) == replica::kHeaderPageType;
  return Status::OK();
}

template <class V>
class CompactReplica {
 public:
  static_assert(std::is_trivially_copyable_v<V> && sizeof(V) == 8,
                "replica value strips assume trivially copyable 8-byte V");
  using Entry = PointEntry<V>;

  CompactReplica(BufferPool* pool, int dims, PageId root = kInvalidPageId)
      : pool_(pool), dims_(dims), root_(root) {
    assert(dims_ >= 1 && dims_ <= kMaxDims);
  }

  [[nodiscard]] PageId root() const { return root_; }
  [[nodiscard]] bool empty() const { return root_ == kInvalidPageId; }
  [[nodiscard]] int dims() const { return dims_; }

  /// Loads and validates the header, meta chain, directory and
  /// dictionaries. Must return OK before the replica is queried; repeat
  /// calls are no-ops.
  Status Open() {
    if (cache_) return Status::OK();
    Cache c;
    BOXAGG_RETURN_NOT_OK(Load(nullptr, &c));
    cache_ = std::move(c);
    return Status::OK();
  }

  // Immutable backend: the BoxSumIndex mutation entry points are refused —
  // a stale replica is rebuilt from the writer tree, never patched.
  Status Insert(const Point&, const V&) {
    return Status::InvalidArgument(
        "CompactReplica is immutable; rebuild it with ReplicaBuilder");
  }
  Status BulkLoad(std::vector<Entry>) {
    return Status::InvalidArgument(
        "CompactReplica is immutable; rebuild it with ReplicaBuilder");
  }

  // LINT:hot-path — replica descent: no heap allocation past warm-up (lint.sh)
  /// Total value over points dominated by `q`: a one-probe
  /// DominanceSumBatch, i.e. the single root-to-leaf walk.
  Status DominanceSum(const Point& query, V* out,
                      unsigned obs_level = 0) const {
    return DominanceSumBatch(&query, 1, out, obs_level);
  }

  /// Batched dominance sums through the live trees' descent
  /// (core/batch_descent.h): byte-identical to the source tree for any
  /// batching.
  Status DominanceSumBatch(const Point* queries, size_t count, V* outs,
                           unsigned obs_level = 0) const {
    if (!cache_) {
      std::fill_n(outs, count, V{});
      return NotOpen();
    }
    return BatchDescent<BatchOps>::Run(
        {pool_, &core::ScratchArena(), queries, outs, &*cache_, dims_}, 0,
        count, obs_level, /*clamp_infinity=*/true);
  }
  // LINT:hot-path-end

  /// Header + meta chain + data pages.
  Status PageCount(uint64_t* out) const {
    *out = 0;
    if (!cache_) return NotOpen();
    if (root_ == kInvalidPageId) return Status::OK();
    *out = 1 + cache_->meta_pages.size() + cache_->data_pages.size();
    return Status::OK();
  }

  /// Frees every page; the handle stays open over an empty replica.
  Status Destroy() {
    if (!cache_) return NotOpen();
    if (root_ == kInvalidPageId) return Status::OK();
    for (PageId pid : cache_->data_pages) {
      BOXAGG_RETURN_NOT_OK(pool_->Delete(pid));
    }
    for (PageId pid : cache_->meta_pages) {
      BOXAGG_RETURN_NOT_OK(pool_->Delete(pid));
    }
    BOXAGG_RETURN_NOT_OK(pool_->Delete(root_));
    cache_ = Cache{};
    root_ = kInvalidPageId;
    return Status::OK();
  }

  /// Deep structural audit, fresh from the pages rather than the cache
  /// Open() keeps: the loader's header/meta/dictionary/directory checks,
  /// the data-page crc envelopes, a full decode of every node through the
  /// queries' NodeReader, reachability of exactly node_count ordinals,
  /// aggregate subtree identities (within kAggDriftTolerance — replica
  /// sums are the source's, re-derived sums are a different addition
  /// order), EXACT equality of the re-counted entries against the header's
  /// entry_count, and the self-oracle over the freshly loaded metadata.
  Status CheckConsistency(CheckContext* ctx) const {
    if (root_ == kInvalidPageId) return Status::OK();
    Cache c;
    BOXAGG_RETURN_NOT_OK(Load(ctx, &c));
    // Data pages: visit + envelope-check every one (pinned in chunks — the
    // physical sweep fsck wants), and pin down per-page node counts (the
    // loader bounded every directory page index). Each directory offset is
    // then checked once against its page's payload length.
    std::vector<uint32_t> nodes_in_page(c.data_pages.size(), 0);
    std::vector<uint32_t> payload_len(c.data_pages.size(), 0);
    for (const uint64_t de : c.dir) ++nodes_in_page[de >> 32];
    constexpr size_t kSweepChunk = 32;
    for (size_t base = 0; base < c.data_pages.size(); base += kSweepChunk) {
      const size_t n = std::min(kSweepChunk, c.data_pages.size() - base);
      std::vector<PageGuard> guards(n);
      for (size_t k = 0; k < n; ++k) {
        BOXAGG_RETURN_NOT_OK(pool_->Fetch(c.data_pages[base + k], &guards[k]));
      }
      for (size_t k = 0; k < n; ++k) {
        const PageId pid = c.data_pages[base + k];
        BOXAGG_RETURN_NOT_OK(ctx->Visit(pid, "compact-replica"));
        const Page* p = guards[k].page();
        if (p->ReadAt<uint16_t>(0) != replica::kDataPageType) {
          return CorruptionAt(pid, "compact-replica: bad data page type");
        }
        const uint32_t len = p->ReadAt<uint32_t>(replica::kDataPayloadLen);
        if (replica::kDataHeaderBytes + len > p->size()) {
          return CorruptionAt(pid, "compact-replica: data payload overruns "
                                   "the page");
        }
        if (simd::Crc32c(p->data() + replica::kDataHeaderBytes, len) !=
            p->ReadAt<uint32_t>(replica::kDataCrc)) {
          return CorruptionAt(pid, "compact-replica: data crc mismatch");
        }
        if (p->ReadAt<uint16_t>(replica::kDataNodeCount) !=
            nodes_in_page[base + k]) {
          return CorruptionAt(pid, "compact-replica: node count disagrees "
                                   "with the directory");
        }
        payload_len[base + k] = len;
      }
    }
    for (const uint64_t de : c.dir) {
      if (static_cast<uint32_t>(de) >=
          replica::kDataHeaderBytes + payload_len[de >> 32]) {
        return CorruptionAt(c.data_pages[de >> 32],
                            "compact-replica: directory offset outside the "
                            "payload");
      }
    }
    // Structural walk: full decode from ordinal 0, each ordinal reached
    // exactly once, subtree aggregates re-derived, entries counted.
    if (c.node_count == 0) {
      if (c.entry_count != 0) {
        return CorruptionAt(root_, "compact-replica: empty replica with a "
                                   "non-zero entry count");
      }
      return Status::OK();
    }
    std::vector<uint8_t> reached(c.node_count, 0);
    uint64_t entries = 0;
    std::vector<Entry> pts;
    WalkInfo info;
    BOXAGG_RETURN_NOT_OK(
        CheckNodeRec(c, 0, dims_, &reached, &entries, &pts, &info));
    for (uint64_t i = 0; i < c.node_count; ++i) {
      if (!reached[i]) {
        return CorruptionAt(root_, "compact-replica: ordinal " +
                                       std::to_string(i) +
                                       " unreachable from the root");
      }
    }
    if (entries != c.entry_count) {
      return CorruptionAt(
          root_, "compact-replica: encoded entries (" +
                     std::to_string(entries) + ") != source root count (" +
                     std::to_string(c.entry_count) + ")");
    }
    if (ctx->check_oracle) {
      // The oracle queries what was just loaded, not what Open() cached.
      CompactReplica loaded(pool_, dims_, root_);
      loaded.cache_ = std::move(c);
      BOXAGG_RETURN_NOT_OK(SampledSelfOracle(
          loaded, dims_, pts,
          "compact-replica: self-oracle dominance-sum mismatch"));
    }
    return Status::OK();
  }

 private:
  struct Cache {
    uint64_t node_count = 0;
    uint64_t entry_count = 0;
    std::vector<PageId> meta_pages;
    std::vector<PageId> data_pages;
    std::vector<uint64_t> dir;  // ordinal -> (page_index << 32 | offset)
    std::vector<double> key_dict;
    std::vector<uint64_t> val_dict;  // raw V bit patterns
  };

  static Status NotOpen() {
    return Status::InvalidArgument(
        "compact-replica: Open() must succeed before the replica is used");
  }

  /// The one validated load of a replica's metadata, shared by Open() and
  /// CheckConsistency(): the header page (type, version, crc, dims, value
  /// size, level count), the meta chain (length, page types, payload
  /// bounds, crcs, total payload size), both dictionaries (strictly
  /// increasing in the order-mapped domain — the builder emits them sorted
  /// and deduplicated, and the strip encoder's binary search depends on it)
  /// and the directory (page indexes in range, offsets past the data page
  /// header and inside the page). A non-null `ctx` also records every page
  /// read as visited. An empty replica loads as an empty cache.
  Status Load(CheckContext* ctx, Cache* c) const {
    if (root_ == kInvalidPageId) return Status::OK();
    if (ctx != nullptr) {
      BOXAGG_RETURN_NOT_OK(ctx->Visit(root_, "compact-replica"));
    }
    uint64_t data_page_count = 0, meta_page_count = 0;
    uint64_t key_dict_count = 0, val_dict_count = 0;
    PageId first_meta = kInvalidPageId;
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(root_, &g));
      const Page* p = g.page();
      if (p->ReadAt<uint16_t>(replica::kHdrType) != replica::kHeaderPageType) {
        return CorruptionAt(root_, "compact-replica: bad header page type " +
                                       std::to_string(p->ReadAt<uint16_t>(0)));
      }
      if (p->ReadAt<uint16_t>(replica::kHdrVersion) !=
          replica::kFormatVersion) {
        return CorruptionAt(root_, "compact-replica: unknown format version");
      }
      if (simd::Crc32c(p->data(), replica::kHdrCrc) !=
          p->ReadAt<uint32_t>(replica::kHdrCrc)) {
        return CorruptionAt(root_, "compact-replica: header crc mismatch");
      }
      if (p->ReadAt<uint32_t>(replica::kHdrDims) !=
          static_cast<uint32_t>(dims_)) {
        return CorruptionAt(root_, "compact-replica: dims mismatch");
      }
      if (p->ReadAt<uint32_t>(replica::kHdrValueSize) != sizeof(V)) {
        return CorruptionAt(root_, "compact-replica: value size mismatch");
      }
      if (p->ReadAt<uint32_t>(replica::kHdrLevelCount) >
          replica::kHdrLevelSlots) {
        return CorruptionAt(root_, "compact-replica: level count out of "
                                   "range");
      }
      c->node_count = p->ReadAt<uint64_t>(replica::kHdrNodeCount);
      c->entry_count = p->ReadAt<uint64_t>(replica::kHdrEntryCount);
      data_page_count = p->ReadAt<uint64_t>(replica::kHdrDataPageCount);
      meta_page_count = p->ReadAt<uint64_t>(replica::kHdrMetaPageCount);
      key_dict_count = p->ReadAt<uint64_t>(replica::kHdrKeyDictCount);
      val_dict_count = p->ReadAt<uint64_t>(replica::kHdrValDictCount);
      first_meta = p->ReadAt<uint64_t>(replica::kHdrFirstMeta);
    }
    std::vector<uint8_t> meta;
    for (PageId pid = first_meta; pid != kInvalidPageId;) {
      if (c->meta_pages.size() >= meta_page_count) {
        return CorruptionAt(pid, "compact-replica: meta chain longer than "
                                 "the header's count");
      }
      if (ctx != nullptr) {
        BOXAGG_RETURN_NOT_OK(ctx->Visit(pid, "compact-replica"));
      }
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->Fetch(pid, &g));
      const Page* p = g.page();
      if (p->ReadAt<uint16_t>(0) != replica::kMetaPageType) {
        return CorruptionAt(pid, "compact-replica: bad meta page type");
      }
      const uint32_t len = p->ReadAt<uint32_t>(replica::kMetaPayloadLen);
      if (replica::kMetaHeaderBytes + len > p->size()) {
        return CorruptionAt(pid, "compact-replica: meta payload overruns "
                                 "the page");
      }
      if (simd::Crc32c(p->data() + replica::kMetaHeaderBytes, len) !=
          p->ReadAt<uint32_t>(replica::kMetaCrc)) {
        return CorruptionAt(pid, "compact-replica: meta crc mismatch");
      }
      meta.insert(meta.end(), p->data() + replica::kMetaHeaderBytes,
                  p->data() + replica::kMetaHeaderBytes + len);
      c->meta_pages.push_back(pid);
      pid = p->ReadAt<uint64_t>(replica::kMetaNext);
    }
    if (c->meta_pages.size() != meta_page_count) {
      return CorruptionAt(root_, "compact-replica: meta chain truncated");
    }
    // Each count is bounded by the payload before they are summed, so no
    // header that passes its crc can wrap the sum onto the payload size.
    const uint64_t words = meta.size() / sizeof(uint64_t);
    if (data_page_count > words || c->node_count > words ||
        key_dict_count > words || val_dict_count > words ||
        meta.size() != (data_page_count + c->node_count + key_dict_count +
                        val_dict_count) *
                           sizeof(uint64_t)) {
      return CorruptionAt(root_, "compact-replica: meta payload size drift");
    }
    // A header-only replica (empty tree) has an empty payload whose data()
    // may be null, which memcpy rejects even for zero bytes.
    const uint8_t* m = meta.data();
    c->data_pages.resize(data_page_count);
    if (data_page_count > 0) {
      std::memcpy(c->data_pages.data(), m, data_page_count * 8);
    }
    m += data_page_count * 8;
    c->dir.resize(c->node_count);
    if (c->node_count > 0) std::memcpy(c->dir.data(), m, c->node_count * 8);
    m += c->node_count * 8;
    c->key_dict.resize(key_dict_count);
    uint64_t prev = 0;
    for (uint64_t i = 0; i < key_dict_count; ++i) {
      uint64_t mapped;
      std::memcpy(&mapped, m + i * 8, 8);
      if (i > 0 && mapped <= prev) {
        return CorruptionAt(root_, "compact-replica: key dictionary not "
                                   "strictly sorted");
      }
      prev = mapped;
      c->key_dict[i] = replica::UnmapDouble(mapped);
    }
    m += key_dict_count * 8;
    c->val_dict.resize(val_dict_count);
    for (uint64_t i = 0; i < val_dict_count; ++i) {
      uint64_t mapped;
      std::memcpy(&mapped, m + i * 8, 8);
      if (i > 0 && mapped <= prev) {
        return CorruptionAt(root_, "compact-replica: value dictionary not "
                                   "strictly sorted");
      }
      prev = mapped;
      c->val_dict[i] = replica::UnmapOrderedBits(mapped);
    }
    for (const uint64_t de : c->dir) {
      if ((de >> 32) >= data_page_count) {
        return CorruptionAt(root_, "compact-replica: directory page index "
                                   "out of range");
      }
      const uint32_t off = static_cast<uint32_t>(de);
      if (off < replica::kDataHeaderBytes ||
          off >= pool_->file()->page_size()) {
        return CorruptionAt(root_, "compact-replica: directory offset "
                                   "outside the data page");
      }
    }
    return Status::OK();
  }

  // LINT:hot-path — replica node reader and descent: no heap allocation past
  // warm-up (lint.sh)

  /// The replica's one node reader, used by the query descent and by
  /// CheckConsistency alike: a cursor over one node's bytes that bounds
  /// every read by its data page's payload end. Strips are at most 8 bytes
  /// wide, dictionary tokens index their dictionary, entry counts fit the
  /// page, and every child or spill ordinal lies in (ord, node_count) — the
  /// BFS order ReplicaBuilder writes, under which every descent ends. A
  /// violation is a Corruption naming the data page. Token scratch comes
  /// from the caller; the reader allocates nothing.
  class NodeReader {
   public:
    NodeReader() = default;
    NodeReader(const Cache& c, uint64_t ord) : c_(&c), ord_(ord) {}

    /// Pins the node's data page into *g and reads its kind and entry
    /// count. Leaves may be drained (count 0) by the source tree's forced
    /// splits; internal nodes never are.
    Status Open(BufferPool* pool, PageGuard* g) {
      const uint64_t de = c_->dir[ord_];
      pid_ = c_->data_pages[de >> 32];
      BOXAGG_RETURN_NOT_OK(pool->Fetch(pid_, g));
      const Page* page = g->page();
      const uint64_t payload_end =
          uint64_t{replica::kDataHeaderBytes} +
          page->ReadAt<uint32_t>(replica::kDataPayloadLen);
      if (payload_end > page->size()) {
        return CorruptionAt(pid_, "compact-replica: data payload overruns "
                                  "the page");
      }
      if (static_cast<uint32_t>(de) >= payload_end) {
        return CorruptionAt(pid_, "compact-replica: node offset at or past "
                                  "the payload end");
      }
      p_ = page->data() + static_cast<uint32_t>(de);
      end_ = page->data() + payload_end;
      page_size_ = page->size();
      kind_ = *p_++;
      uint64_t n = 0;
      BOXAGG_RETURN_NOT_OK(Varint(&n));
      const bool leaf =
          kind_ == replica::kNodeBaLeaf || kind_ == replica::kNodeAggLeaf;
      if (!leaf && kind_ != replica::kNodeBaInternal &&
          kind_ != replica::kNodeAggInternal) {
        return CorruptionAt(pid_, "compact-replica: unknown node kind");
      }
      if ((n == 0 && !leaf) || n > page_size_) {
        return CorruptionAt(pid_, "compact-replica: node entry count out "
                                  "of range");
      }
      n_ = static_cast<uint32_t>(n);
      return Status::OK();
    }

    [[nodiscard]] PageId pid() const { return pid_; }
    [[nodiscard]] uint8_t kind() const { return kind_; }
    [[nodiscard]] uint32_t count() const { return n_; }
    [[nodiscard]] bool internal() const {
      return kind_ == replica::kNodeBaInternal ||
             kind_ == replica::kNodeAggInternal;
    }

    /// Reads an internal node's first child; its count() consecutive
    /// children must all lie in (ord, node_count).
    Status FirstChild(uint64_t* out) { return Ordinal(n_, out); }

    /// Decodes the next strip's `m` keys, passing each as put(i, key).
    template <class Put>
    Status Keys(uint32_t m, uint64_t* tok, Put put) {
      bool dict = false;
      BOXAGG_RETURN_NOT_OK(Tokens(m, m, c_->key_dict.size(), tok, &dict));
      if (dict) {
        for (uint32_t i = 0; i < m; ++i) put(i, c_->key_dict[tok[i]]);
      } else {
        for (uint32_t i = 0; i < m; ++i) put(i, replica::UnmapDouble(tok[i]));
      }
      return Status::OK();
    }

    /// Decodes `dims` coordinate strips into pts[0..m).
    Status Points(uint32_t m, int dims, uint64_t* tok, Point* pts) {
      for (int d = 0; d < dims; ++d) {
        BOXAGG_RETURN_NOT_OK(
            Keys(m, tok, [pts, d](uint32_t i, double k) { pts[i][d] = k; }));
      }
      return Status::OK();
    }

    /// Decodes 2*dims box-corner strips (lo columns, then hi columns).
    Status Boxes(uint32_t m, int dims, uint64_t* tok, Box* boxes) {
      for (int d = 0; d < dims; ++d) {
        BOXAGG_RETURN_NOT_OK(Keys(
            m, tok, [boxes, d](uint32_t i, double k) { boxes[i].lo[d] = k; }));
      }
      for (int d = 0; d < dims; ++d) {
        BOXAGG_RETURN_NOT_OK(Keys(
            m, tok, [boxes, d](uint32_t i, double k) { boxes[i].hi[d] = k; }));
      }
      return Status::OK();
    }

    /// Decodes the first `take` values of the next strip (stored count m).
    Status Values(uint32_t m, uint32_t take, uint64_t* tok, V* out) {
      bool dict = false;
      BOXAGG_RETURN_NOT_OK(Tokens(m, take, c_->val_dict.size(), tok, &dict));
      if (dict) {
        for (uint32_t i = 0; i < take; ++i) {
          out[i] = std::bit_cast<V>(c_->val_dict[tok[i]]);
        }
      } else {
        for (uint32_t i = 0; i < take; ++i) {
          out[i] = std::bit_cast<V>(replica::UnmapOrderedBits(tok[i]));
        }
      }
      return Status::OK();
    }

    /// Reads one border section's tag and its argument: a spilled border
    /// tree's ordinal, or an inline border's entry count (at least 1, at
    /// most the page size), whose dims - 1 coordinate strips and value
    /// strip follow.
    Status Border(uint8_t* tag, uint64_t* arg) {
      if (p_ >= end_) {
        return CorruptionAt(pid_, "compact-replica: border section overruns "
                                  "the node");
      }
      *tag = *p_++;
      if (*tag == replica::kBorderEmpty) return Status::OK();
      if (*tag == replica::kBorderSpill) return Ordinal(1, arg);
      if (*tag != replica::kBorderInline) {
        return CorruptionAt(pid_, "compact-replica: unknown border tag");
      }
      BOXAGG_RETURN_NOT_OK(Varint(arg));
      if (*arg == 0 || *arg > page_size_) {
        return CorruptionAt(pid_, "compact-replica: inline border count out "
                                  "of range");
      }
      return Status::OK();
    }

    /// Advances past one record's `dims` border sections without decoding
    /// their strips.
    Status SkipBorders(int dims) {
      for (int b = 0; b < dims; ++b) {
        uint8_t tag = 0;
        uint64_t cnt = 0;
        BOXAGG_RETURN_NOT_OK(Border(&tag, &cnt));
        if (tag != replica::kBorderInline) continue;
        for (int s = 0; s < dims; ++s) {  // dims - 1 coordinates, 1 value
          replica::StripRef strip;
          BOXAGG_RETURN_NOT_OK(Strip(static_cast<uint32_t>(cnt), &strip));
        }
      }
      return Status::OK();
    }

   private:
    Status Varint(uint64_t* out) {
      if (replica::ReadVarint(&p_, end_, out)) return Status::OK();
      return CorruptionAt(pid_, "compact-replica: varint overruns the node");
    }

    /// Reads an ordinal whose `span` consecutive ordinals must all lie in
    /// (ord, node_count).
    Status Ordinal(uint64_t span, uint64_t* out) {
      BOXAGG_RETURN_NOT_OK(Varint(out));
      if (*out <= ord_ || *out >= c_->node_count ||
          span > c_->node_count - *out) {
        return CorruptionAt(pid_, "compact-replica: child or spill ordinal "
                                  "outside (node, node_count)");
      }
      return Status::OK();
    }

    /// Parses the next strip (stored count m) without decoding it.
    Status Strip(uint32_t m, replica::StripRef* s) {
      if (replica::ParseStrip(&p_, end_, m, s)) return Status::OK();
      return CorruptionAt(pid_, "compact-replica: strip wider than 8 bytes "
                                "or past the payload end");
    }

    /// Parses the next strip (stored count m), decodes its first `take`
    /// tokens and, for a dictionary strip, checks each against dict_size.
    Status Tokens(uint32_t m, uint32_t take, size_t dict_size, uint64_t* tok,
                  bool* dict) {
      replica::StripRef s;
      BOXAGG_RETURN_NOT_OK(Strip(m, &s));
      replica::DecodeStripU64(s, take, tok);
      *dict = (s.header & replica::kStripDictBit) != 0;
      if (*dict && take > 0) {
        uint64_t top = 0;  // a max reduction vectorizes; an early exit not
        for (uint32_t i = 0; i < take; ++i) top = std::max(top, tok[i]);
        if (top >= dict_size) {
          return CorruptionAt(pid_, "compact-replica: dictionary token out "
                                    "of range");
        }
      }
      return Status::OK();
    }

    const Cache* c_ = nullptr;
    uint64_t ord_ = 0;
    PageId pid_ = kInvalidPageId;
    const uint8_t* p_ = nullptr;
    const uint8_t* end_ = nullptr;
    uint32_t page_size_ = 0;
    uint8_t kind_ = 0;
    uint32_t n_ = 0;
  };

  /// The batched descent's node decode and routing (core/batch_descent.h),
  /// by node kind: aggregate nodes route key-sorted probes in runs and
  /// decode only the value prefix their probes add; BA nodes regroup idx per
  /// record and defer spilled borders. Probes are lex-sorted at every entry,
  /// the source trees' order (a key sort is a lex sort at dims == 1).
  struct BatchOps {
    using Value = V;
    using Probe = Point;
    using NodeId = uint64_t;
    using Node = NodeReader;
    using Side = SpilledBorder<uint64_t>;

    BufferPool* pool;
    core::Arena* arena;
    const Point* qs;
    V* outs;
    const Cache* cache;
    int dims;

    bool Empty(uint64_t) const { return cache->node_count == 0; }
    bool Less(const Point& a, const Point& b) const {
      return LexLess(a, b, dims);
    }

    Status Open(uint64_t ord, PageGuard* g, NodeReader* rd, bool* leaf) const {
      *rd = NodeReader(*cache, ord);
      BOXAGG_RETURN_NOT_OK(rd->Open(pool, g));
      *leaf = !rd->internal();
      return Status::OK();
    }

    Status Leaf(NodeReader& rd, const uint32_t* idx, size_t m) const {
      const uint32_t n = rd.count();
      if (n == 0) return Status::OK();  // drained leaf: nothing follows
      if (rd.kind() == replica::kNodeAggLeaf) return AggAdds(rd, idx, m, {});
      uint64_t* tok = core::ArenaArray<uint64_t>(*arena, n);
      core::ArenaVector<Point> pts(n, core::ArenaAllocator<Point>(arena));
      BOXAGG_RETURN_NOT_OK(rd.Points(n, dims, tok, pts.data()));
      V* vals = core::ArenaArray<V>(*arena, n);
      BOXAGG_RETURN_NOT_OK(rd.Values(n, n, tok, vals));
      for (size_t j = 0; j < m; ++j) {
        const Point& q = qs[idx[j]];
        V& out = outs[idx[j]];
        for (uint32_t i = 0; i < n; ++i) {
          if (q.Dominates(pts[i], dims)) out += vals[i];
        }
      }
      return Status::OK();
    }

    Status Route(NodeReader& rd, uint32_t* idx, size_t m, unsigned,
                 BatchRouting<uint64_t, Side>* r) const {
      const uint32_t n = rd.count();
      uint64_t first_child = 0;
      BOXAGG_RETURN_NOT_OK(rd.FirstChild(&first_child));
      r->Reserve(*arena, std::min<size_t>(n, m));
      if (rd.kind() == replica::kNodeAggInternal) {
        uint32_t one_cut = 0;
        uint32_t* cuts = core::ScratchArray(*arena, m, &one_cut);
        BOXAGG_RETURN_NOT_OK(AggAdds(rd, idx, m, cuts));
        // Sorted probes route monotonically: groups are runs of idx.
        for (size_t j = 0; j < m;) {
          size_t k = j + 1;
          while (k < m && cuts[k] == cuts[j]) ++k;
          r->Add(first_child + cuts[j], cuts[j], j, k);
          j = k;
        }
        return Status::OK();
      }
      uint64_t* tok = core::ArenaArray<uint64_t>(*arena, n);
      core::ArenaVector<Box> boxes(n, core::ArenaAllocator<Box>(arena));
      BOXAGG_RETURN_NOT_OK(rd.Boxes(n, dims, tok, boxes.data()));
      V* subs = core::ArenaArray<V>(*arena, n);
      BOXAGG_RETURN_NOT_OK(rd.Values(n, n, tok, subs));
      size_t assigned = 0;  // idx[0, assigned) have their record
      for (uint32_t i = 0; i < n && assigned < m; ++i) {
        const size_t begin = assigned;
        for (size_t t = assigned; t < m; ++t) {
          if (boxes[i].ContainsPointHalfOpen(qs[idx[t]], dims)) {
            std::swap(idx[t], idx[assigned++]);
          }
        }
        if (assigned == begin) {
          BOXAGG_RETURN_NOT_OK(rd.SkipBorders(dims));
          continue;
        }
        r->Add(first_child + i, i, begin, assigned);
        for (size_t t = begin; t < assigned; ++t) outs[idx[t]] += subs[i];
        for (int b = 0; b < dims; ++b) {
          uint8_t tag = 0;
          uint64_t arg = 0;
          BOXAGG_RETURN_NOT_OK(rd.Border(&tag, &arg));
          if (tag == replica::kBorderEmpty) continue;
          if (tag == replica::kBorderSpill) {
            r->Defer({b, arg});
            continue;
          }
          const uint32_t cnt = static_cast<uint32_t>(arg);
          core::ArenaScope block_scope(*arena);
          uint64_t* btok = core::ArenaArray<uint64_t>(*arena, cnt);
          core::ArenaVector<Point> bpts(cnt,
                                        core::ArenaAllocator<Point>(arena));
          BOXAGG_RETURN_NOT_OK(rd.Points(cnt, dims - 1, btok, bpts.data()));
          V* bvals = core::ArenaArray<V>(*arena, cnt);
          BOXAGG_RETURN_NOT_OK(rd.Values(cnt, cnt, btok, bvals));
          for (size_t t = begin; t < assigned; ++t) {
            const Point projected = qs[idx[t]].DropDim(b, dims);
            V& out = outs[idx[t]];
            for (uint32_t k = 0; k < cnt; ++k) {
              if (projected.Dominates(bpts[k], dims - 1)) out += bvals[k];
            }
          }
        }
      }
      if (assigned != m) {
        return CorruptionAt(rd.pid(), "compact-replica: query point not "
                                      "covered by any record");
      }
      return Status::OK();
    }

    /// A spilled border tree, probed with the members' queries projected
    /// by dropping the border's dimension. The sub-batch sorts them again;
    /// its fetch order matches the live tree's, whose BA nodes group probes
    /// by record whatever their order.
    Status SideProbe(const Side& s, const uint32_t* members, size_t m,
                     unsigned level) const {
      return SideBatch(BatchOps{pool, arena, qs, outs, cache, dims - 1},
                       s.root, members, m, s.dim, dims, level);
    }

    /// An aggregate node's adds: a leaf probe adds values [0, cut); at an
    /// internal node (`routes` given) a probe adds the subtree sums
    /// [0, route) and its route lands in routes[] (lowkey 0 acts as
    /// -infinity). Only the value prefix some probe adds is decoded.
    Status AggAdds(NodeReader& rd, const uint32_t* idx, size_t m,
                   uint32_t* routes) const {
      const uint32_t n = rd.count();
      uint64_t* tok = core::ArenaArray<uint64_t>(*arena, n);
      double* kd = core::ArenaArray<double>(*arena, n);
      BOXAGG_RETURN_NOT_OK(
          rd.Keys(n, tok, [kd](uint32_t i, double k) { kd[i] = k; }));
      uint32_t one = 0;
      uint32_t* cuts = routes ? routes : core::ScratchArray(*arena, m, &one);
      uint32_t take = 0;
      for (size_t j = 0; j < m; ++j) {
        cuts[j] = routes ? simd::FirstGreater(kd + 1, n - 1, qs[idx[j]][0])
                         : simd::FirstGreater(kd, n, qs[idx[j]][0]);
        take = std::max(take, cuts[j]);
      }
      V* vals = core::ArenaArray<V>(*arena, take);
      BOXAGG_RETURN_NOT_OK(rd.Values(n, take, tok, vals));
      const auto* vb = reinterpret_cast<const uint8_t*>(vals);
      for (size_t j = 0; j < m; ++j) {
        ValueOps<V>::AddStrided(&outs[idx[j]], vb, cuts[j], sizeof(V));
      }
      return Status::OK();
    }
  };
  // LINT:hot-path-end

  // ---- verification (check path: free to allocate) -------------------------

  struct WalkInfo {
    V total{};
    uint32_t depth = 0;
  };

  /// Strict re-decode of one subtree through the query's NodeReader, which
  /// bounds every byte, token and ordinal; the checks here are structural:
  /// kinds match the dimensionality, keys and inline borders sorted, record
  /// boxes tile the node, aggregates re-derived, agg subtree depths equal,
  /// entries collected (main branch) or counted (spilled borders), and each
  /// ordinal reached exactly once.
  Status CheckNodeRec(const Cache& c, uint64_t ord, int dims,
                      std::vector<uint8_t>* reached, uint64_t* entries,
                      std::vector<Entry>* out, WalkInfo* info) const {
    if ((*reached)[ord]) {
      return CorruptionAt(root_, "compact-replica: ordinal " +
                                     std::to_string(ord) +
                                     " reached twice (cycle or shared "
                                     "ownership)");
    }
    (*reached)[ord] = 1;
    NodeReader rd(c, ord);
    uint64_t first_child = 0;
    std::vector<double> keys;  // agg kinds
    std::vector<Point> pts;    // ba leaf
    std::vector<Box> boxes;    // ba internal
    std::vector<V> vals;       // leaf values / agg sums / ba subtotals
    std::vector<std::vector<uint64_t>> spills;  // ba internal, per record
    {
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(rd.Open(pool_, &g));
      const bool agg_kind = rd.kind() == replica::kNodeAggLeaf ||
                            rd.kind() == replica::kNodeAggInternal;
      if (agg_kind != (dims == 1)) {
        return CorruptionAt(rd.pid(), "compact-replica: node kind disagrees "
                                      "with its dimensionality");
      }
      const uint32_t n = rd.count();
      info->total = V{};
      info->depth = 1;
      if (n == 0) return Status::OK();
      if (rd.internal()) BOXAGG_RETURN_NOT_OK(rd.FirstChild(&first_child));
      std::vector<uint64_t> tok(n);
      if (agg_kind) {
        keys.resize(n);
        BOXAGG_RETURN_NOT_OK(rd.Keys(
            n, tok.data(), [&keys](uint32_t i, double k) { keys[i] = k; }));
      } else if (rd.kind() == replica::kNodeBaLeaf) {
        pts.assign(n, Point{});
        BOXAGG_RETURN_NOT_OK(rd.Points(n, dims, tok.data(), pts.data()));
      } else {
        boxes.assign(n, Box{});
        BOXAGG_RETURN_NOT_OK(rd.Boxes(n, dims, tok.data(), boxes.data()));
      }
      vals.resize(n);
      BOXAGG_RETURN_NOT_OK(rd.Values(n, n, tok.data(), vals.data()));
      if (rd.kind() == replica::kNodeBaInternal) {
        // Inline borders are counted here; spilled ones are walked below.
        spills.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
          for (int b = 0; b < dims; ++b) {
            uint8_t tag = 0;
            uint64_t arg = 0;
            BOXAGG_RETURN_NOT_OK(rd.Border(&tag, &arg));
            if (tag == replica::kBorderSpill) spills[i].push_back(arg);
            if (tag != replica::kBorderInline) continue;
            const uint32_t cnt = static_cast<uint32_t>(arg);
            std::vector<uint64_t> btok(cnt);
            std::vector<Point> bpts(cnt);
            std::vector<V> bvals(cnt);
            BOXAGG_RETURN_NOT_OK(
                rd.Points(cnt, dims - 1, btok.data(), bpts.data()));
            BOXAGG_RETURN_NOT_OK(
                rd.Values(cnt, cnt, btok.data(), bvals.data()));
            for (uint32_t k = 1; k < cnt; ++k) {
              if (!LexLess(bpts[k - 1], bpts[k], dims - 1)) {
                return CorruptionAt(rd.pid(), "compact-replica: inline "
                                              "border entries not strictly "
                                              "sorted");
              }
            }
            *entries += cnt;
          }
        }
      }
    }
    // Per-kind structural checks + recursion (pin dropped).
    const PageId pid = rd.pid();
    const uint32_t n = rd.count();
    if (rd.kind() == replica::kNodeAggLeaf) {
      for (uint32_t i = 1; i < n; ++i) {
        if (!(keys[i - 1] < keys[i])) {
          return CorruptionAt(pid, "compact-replica: agg leaf keys not "
                                   "strictly increasing");
        }
      }
      for (uint32_t i = 0; i < n; ++i) {
        Entry e;
        e.pt = Point{};
        e.pt[0] = keys[i];
        e.value = vals[i];
        out->push_back(e);
        info->total += vals[i];
      }
      *entries += n;
      return Status::OK();
    }
    if (rd.kind() == replica::kNodeAggInternal) {
      for (uint32_t i = 1; i < n; ++i) {
        if (!(keys[i - 1] < keys[i])) {
          return CorruptionAt(pid, "compact-replica: agg internal lowkeys "
                                   "not strictly increasing");
        }
      }
      uint32_t child_depth = 0;
      for (uint32_t i = 0; i < n; ++i) {
        WalkInfo ci;
        BOXAGG_RETURN_NOT_OK(CheckNodeRec(c, first_child + i, dims, reached,
                                          entries, out, &ci));
        if (i == 0) {
          child_depth = ci.depth;
        } else if (ci.depth != child_depth) {
          return CorruptionAt(pid, "compact-replica: agg subtree depths "
                                   "differ");
        }
        if (AggDrift(vals[i], ci.total) > kAggDriftTolerance) {
          return CorruptionAt(pid, "compact-replica: agg subtree sum "
                                   "drifts from the stored aggregate");
        }
        info->total += vals[i];
      }
      info->depth = child_depth + 1;
      return Status::OK();
    }
    if (rd.kind() == replica::kNodeBaLeaf) {
      for (uint32_t i = 0; i < n; ++i) out->push_back(Entry{pts[i], vals[i]});
      *entries += n;
      return Status::OK();
    }
    // kNodeBaInternal: child points inside their record box, boxes tile
    // the node scope, spilled borders recursed structurally like
    // PackedBaTree::CheckBorderTree.
    const size_t begin = out->size();
    for (uint32_t i = 0; i < n; ++i) {
      const size_t lo = out->size();
      WalkInfo ci;
      BOXAGG_RETURN_NOT_OK(CheckNodeRec(c, first_child + i, dims, reached,
                                        entries, out, &ci));
      for (size_t k = lo; k < out->size(); ++k) {
        if (!boxes[i].ContainsPointHalfOpen((*out)[k].pt, dims)) {
          return CorruptionAt(pid, "compact-replica: subtree point escapes "
                                   "its record box");
        }
      }
      for (const uint64_t spill : spills[i]) {
        std::vector<Entry> scratch;
        WalkInfo bi;
        BOXAGG_RETURN_NOT_OK(CheckNodeRec(c, spill, dims - 1, reached,
                                          entries, &scratch, &bi));
      }
    }
    for (size_t k = begin; k < out->size(); ++k) {
      int owners = 0;
      for (uint32_t i = 0; i < n; ++i) {
        if (boxes[i].ContainsPointHalfOpen((*out)[k].pt, dims)) ++owners;
      }
      if (owners != 1) {
        return CorruptionAt(pid, "compact-replica: record boxes do not "
                                 "tile the node scope");
      }
    }
    info->depth = 0;  // mixed-depth forests: BA depth is not audited here
    return Status::OK();
  }

  BufferPool* pool_;
  int dims_;
  PageId root_;
  std::optional<Cache> cache_;  // set by Open(); unset: never opened
};

}  // namespace boxagg

#endif  // BOXAGG_REPLICA_COMPACT_REPLICA_H_
