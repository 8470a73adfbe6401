// ReplicaBuilder: snapshots a live PackedBaTree or AggBTree into the
// compact replica format (replica/replica_format.h) that CompactReplica
// serves queries from.
//
// The build is a single breadth-first walk over the source forest — the
// main tree plus every spilled border tree — that assigns each node a BFS
// ordinal. Children of one internal node are enqueued consecutively, so the
// encoded node stores one varint `first_child` instead of per-record
// PageIds; spilled border roots are enqueued after the children and keep
// their explicit ordinals in the border sections. BFS order also clusters
// each tree level contiguously in the data-page run, which is what makes
// top-of-tree pages stay resident in a small buffer pool.
//
// The walk doubles as dictionary collection: every coordinate double and
// every stored leaf/border value feeds a per-replica sorted dictionary, and
// the strip encoder then picks raw vs dictionary-index form per column.
// Values are captured losslessly (order-mapped bit patterns, never
// re-aggregated), which is what keeps replica query results byte-identical
// to the source tree. Subtotals and aggregate sums stay raw — they are
// near-unique, so dictionary indexes would not pay for themselves.

#ifndef BOXAGG_REPLICA_REPLICA_BUILDER_H_
#define BOXAGG_REPLICA_REPLICA_BUILDER_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "bptree/agg_btree.h"
#include "core/point_entry.h"
#include "geom/box.h"
#include "geom/point.h"
#include "replica/replica_format.h"
#include "simd/simd.h"
#include "storage/buffer_pool.h"

namespace boxagg {

template <class V>
class ReplicaBuilder {
 public:
  static_assert(std::is_trivially_copyable_v<V> && sizeof(V) == 8,
                "replica value strips assume trivially copyable 8-byte V");

  explicit ReplicaBuilder(BufferPool* pool) : pool_(pool) {}

  /// Snapshots `src` (and all of its spilled border trees) into a new
  /// replica; `*root_out` receives the replica's header PageId. The source
  /// tree is read-only during the build and left untouched.
  Status Build(const PackedBaTree<V>& src, PageId* root_out) {
    return BuildForest(src.root(), src.dims(), root_out);
  }

  /// Snapshots a bare aggregate B+-tree (the 1-d storage corner case and
  /// the base of every spilled border stack).
  Status Build(const AggBTree<V>& src, PageId* root_out) {
    return BuildForest(src.root(), 1, root_out);
  }

 private:
  using Pbt = PackedBaTree<V>;
  using Agg = AggBTree<V>;

  struct BorderEnc {
    uint8_t tag = replica::kBorderEmpty;
    uint64_t spill_ord = 0;
    std::vector<PointEntry<V>> entries;  // inline form, sorted by source
  };

  struct NodeImage {
    uint8_t kind = 0;
    int dims = 0;
    unsigned level = 0;
    uint32_t n = 0;
    uint64_t first_child = 0;
    std::vector<Point> pts;      // ba leaf points
    std::vector<Box> boxes;      // ba internal record boxes
    std::vector<double> keys;    // agg leaf keys / agg internal lowkeys
    std::vector<V> vals;         // leaf values / agg internal sums
    std::vector<std::vector<BorderEnc>> borders;  // [record][dim]
  };

  struct WorkItem {
    PageId pid = kInvalidPageId;
    int dims = 0;
    unsigned level = 0;
  };

  Status BuildForest(PageId src_root, int dims, PageId* root_out) {
    std::vector<NodeImage> nodes;
    std::vector<uint64_t> key_toks, val_toks;
    uint64_t entry_count = 0;
    std::array<uint64_t, replica::kHdrLevelSlots> level_counts{};
    uint32_t level_count = 0;

    if (src_root != kInvalidPageId) {
      std::vector<WorkItem> items;
      items.push_back(WorkItem{src_root, dims, 0});
      for (size_t ord = 0; ord < items.size(); ++ord) {
        const WorkItem it = items[ord];
        NodeImage nd;
        nd.dims = it.dims;
        nd.level = it.level;
        BOXAGG_RETURN_NOT_OK(LoadSource(it, &items, &nd));
        CollectTokens(nd, &key_toks, &val_toks, &entry_count);
        const size_t slot = it.level < replica::kHdrLevelSlots
                                ? it.level
                                : replica::kHdrLevelSlots - 1;
        ++level_counts[slot];
        if (static_cast<uint32_t>(slot) + 1 > level_count) {
          level_count = static_cast<uint32_t>(slot) + 1;
        }
        nodes.push_back(std::move(nd));
      }
    }

    Seal(&key_toks);
    Seal(&val_toks);

    // A dictionary only pays when tokens repeat enough for the per-strip
    // index savings to beat the 8 bytes/entry the dictionary itself costs
    // in the meta chain (1-d trees with unique values are the losing
    // case). Price all four keep/drop combinations and keep the cheapest.
    const std::vector<uint64_t>* key_dict = nullptr;
    const std::vector<uint64_t>* val_dict = nullptr;
    {
      const std::vector<uint64_t>* kd_opts[2] = {&key_toks, nullptr};
      const std::vector<uint64_t>* vd_opts[2] = {&val_toks, nullptr};
      uint64_t best = ~uint64_t{0};
      std::vector<uint8_t> bytes;
      for (const auto* kd : kd_opts) {
        for (const auto* vd : vd_opts) {
          uint64_t total = 8 * ((kd ? kd->size() : 0) +
                                (vd ? vd->size() : 0));
          for (const NodeImage& nd : nodes) {
            bytes.clear();
            EncodeNode(nd, kd, vd, &bytes);
            total += bytes.size();
          }
          if (total < best) {
            best = total;
            key_dict = kd;
            val_dict = vd;
          }
        }
      }
      if (key_dict == nullptr) key_toks.clear();
      if (val_dict == nullptr) val_toks.clear();
    }

    // Encode the node stream and pack it into data pages front to back;
    // nodes never span pages, and BFS order keeps levels clustered.
    const uint32_t page_size = pool_->file()->page_size();
    const uint32_t capacity = page_size - replica::kDataHeaderBytes;
    std::vector<std::vector<uint8_t>> page_payloads;
    std::vector<uint16_t> page_nodes;
    std::vector<uint64_t> dir;
    uint64_t data_bytes = 0;
    for (const NodeImage& nd : nodes) {
      std::vector<uint8_t> bytes;
      EncodeNode(nd, key_dict, val_dict, &bytes);
      if (bytes.size() > capacity) {
        return Status::InvalidArgument(
            "replica node larger than a data page; use a larger page size");
      }
      if (page_payloads.empty() ||
          page_payloads.back().size() + bytes.size() > capacity) {
        page_payloads.emplace_back();
        page_nodes.push_back(0);
      }
      std::vector<uint8_t>& pl = page_payloads.back();
      dir.push_back((static_cast<uint64_t>(page_payloads.size() - 1) << 32) |
                    (replica::kDataHeaderBytes + pl.size()));
      pl.insert(pl.end(), bytes.begin(), bytes.end());
      ++page_nodes.back();
      data_bytes += bytes.size();
    }

    std::vector<PageId> data_pages(page_payloads.size());
    for (size_t i = 0; i < page_payloads.size(); ++i) {
      const std::vector<uint8_t>& pl = page_payloads[i];
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      Page* p = g.page();
      p->WriteAt<uint16_t>(0, replica::kDataPageType);
      p->WriteAt<uint16_t>(replica::kDataNodeCount, page_nodes[i]);
      p->WriteAt<uint32_t>(replica::kDataPayloadLen,
                           static_cast<uint32_t>(pl.size()));
      p->WriteAt<uint32_t>(replica::kDataCrc,
                           simd::Crc32c(pl.data(), pl.size()));
      p->WriteBytes(replica::kDataHeaderBytes, pl.data(), pl.size());
      g.MarkDirty();
      data_pages[i] = g.id();
    }

    // Meta payload: data page ids, directory, then both dictionaries, all
    // as raw u64s, chunked over the chain. Pages are written back to front
    // so each one knows its successor's id.
    std::vector<uint8_t> meta;
    AppendU64s(&meta, data_pages.data(), data_pages.size());
    AppendU64s(&meta, dir.data(), dir.size());
    AppendU64s(&meta, key_toks.data(), key_toks.size());
    AppendU64s(&meta, val_toks.data(), val_toks.size());
    const uint32_t meta_cap = page_size - replica::kMetaHeaderBytes;
    const uint64_t meta_page_count =
        (meta.size() + meta_cap - 1) / meta_cap;  // 0 when meta is empty
    PageId first_meta = kInvalidPageId;
    for (uint64_t i = meta_page_count; i-- > 0;) {
      const uint64_t off = i * meta_cap;
      const uint32_t len = static_cast<uint32_t>(
          std::min<uint64_t>(meta_cap, meta.size() - off));
      PageGuard g;
      BOXAGG_RETURN_NOT_OK(pool_->New(&g));
      Page* p = g.page();
      p->WriteAt<uint16_t>(0, replica::kMetaPageType);
      p->WriteAt<uint16_t>(2, 0);
      p->WriteAt<uint32_t>(replica::kMetaPayloadLen, len);
      p->WriteAt<uint64_t>(replica::kMetaNext, first_meta);
      p->WriteAt<uint32_t>(replica::kMetaCrc,
                           simd::Crc32c(meta.data() + off, len));
      p->WriteBytes(replica::kMetaHeaderBytes, meta.data() + off, len);
      g.MarkDirty();
      first_meta = g.id();
    }

    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->New(&g));
    Page* p = g.page();
    p->WriteAt<uint16_t>(replica::kHdrType, replica::kHeaderPageType);
    p->WriteAt<uint16_t>(replica::kHdrVersion, replica::kFormatVersion);
    p->WriteAt<uint32_t>(replica::kHdrDims, static_cast<uint32_t>(dims));
    p->WriteAt<uint32_t>(replica::kHdrValueSize, sizeof(V));
    p->WriteAt<uint32_t>(replica::kHdrLevelCount, level_count);
    p->WriteAt<uint64_t>(replica::kHdrNodeCount, nodes.size());
    p->WriteAt<uint64_t>(replica::kHdrDataPageCount, data_pages.size());
    p->WriteAt<uint64_t>(replica::kHdrMetaPageCount, meta_page_count);
    p->WriteAt<uint64_t>(replica::kHdrKeyDictCount, key_toks.size());
    p->WriteAt<uint64_t>(replica::kHdrValDictCount, val_toks.size());
    p->WriteAt<uint64_t>(replica::kHdrEntryCount, entry_count);
    p->WriteAt<uint64_t>(replica::kHdrFirstMeta, first_meta);
    p->WriteAt<uint64_t>(replica::kHdrDataBytes, data_bytes);
    for (uint32_t i = 0; i < replica::kHdrLevelSlots; ++i) {
      p->WriteAt<uint64_t>(replica::kHdrLevels + i * 8, level_counts[i]);
    }
    p->WriteAt<uint32_t>(replica::kHdrCrc,
                         simd::Crc32c(p->data(), replica::kHdrCrc));
    g.MarkDirty();
    *root_out = g.id();
    return Status::OK();
  }

  /// Loads the source node behind `it` into `nd`, enqueuing its children
  /// (consecutively) and spilled border roots on `items`.
  Status LoadSource(const WorkItem& it, std::vector<WorkItem>* items,
                    NodeImage* nd) const {
    if (it.dims == 1) return LoadAggNode(it, items, nd);
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(it.pid, &g));
    const Page* p = g.page();
    const uint16_t type = Pbt::PageType(p);
    if (type == Pbt::kLeaf) {
      const uint32_t n = Pbt::LeafCount(p);
      nd->kind = replica::kNodeBaLeaf;
      nd->n = n;
      nd->pts.resize(n);
      nd->vals.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        nd->pts[i] = Pbt::LeafPoint(p, i);
        nd->vals[i] = p->ReadAt<V>(Pbt::LeafValueOff(i));
      }
      return Status::OK();
    }
    if (type != Pbt::kInternal) {
      return CorruptionAt(it.pid, "replica-builder: unexpected page type " +
                                      std::to_string(type) +
                                      " in a packed BA-tree");
    }
    g.Release();
    Pbt handle(pool_, it.dims, it.pid);
    std::vector<typename Pbt::RecImage> recs;
    BOXAGG_RETURN_NOT_OK(handle.LoadNode(it.pid, &recs));
    const uint32_t n = static_cast<uint32_t>(recs.size());
    nd->kind = replica::kNodeBaInternal;
    nd->n = n;
    nd->first_child = items->size();
    for (const auto& r : recs) {
      items->push_back(WorkItem{r.child, it.dims, it.level + 1});
    }
    nd->boxes.resize(n);
    nd->vals.resize(n);
    nd->borders.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      nd->boxes[i] = recs[i].box;
      nd->vals[i] = recs[i].subtotal;
      nd->borders[i].resize(static_cast<size_t>(it.dims));
      for (int b = 0; b < it.dims; ++b) {
        const auto& src = recs[i].border[static_cast<size_t>(b)];
        BorderEnc& enc = nd->borders[i][static_cast<size_t>(b)];
        if (src.Empty()) continue;
        if (src.IsTree()) {
          enc.tag = replica::kBorderSpill;
          enc.spill_ord = items->size();
          items->push_back(WorkItem{src.tree, it.dims - 1, it.level + 1});
        } else {
          enc.tag = replica::kBorderInline;
          enc.entries = src.inline_entries;
        }
      }
    }
    return Status::OK();
  }

  Status LoadAggNode(const WorkItem& it, std::vector<WorkItem>* items,
                     NodeImage* nd) const {
    PageGuard g;
    BOXAGG_RETURN_NOT_OK(pool_->Fetch(it.pid, &g));
    const Page* p = g.page();
    const uint32_t page_size = pool_->file()->page_size();
    const uint16_t type = Agg::Type(p);
    const uint32_t n = Agg::Count(p);
    nd->n = n;
    nd->keys.resize(n);
    nd->vals.resize(n);
    if (type == Agg::kLeaf) {
      nd->kind = replica::kNodeAggLeaf;
      for (uint32_t i = 0; i < n; ++i) {
        nd->keys[i] = p->ReadAt<double>(Agg::LeafKeyOffset(i));
        nd->vals[i] = p->ReadAt<V>(Agg::LeafValueOffset(page_size, i));
      }
      return Status::OK();
    }
    if (type != Agg::kInternal) {
      return CorruptionAt(it.pid, "replica-builder: unexpected page type " +
                                      std::to_string(type) +
                                      " in an aggregate B+-tree");
    }
    nd->kind = replica::kNodeAggInternal;
    nd->first_child = items->size();
    for (uint32_t i = 0; i < n; ++i) {
      nd->keys[i] = p->ReadAt<double>(Agg::InternalLowKeyOffset(i));
      nd->vals[i] = p->ReadAt<V>(Agg::InternalSumOffset(page_size, i));
      items->push_back(
          WorkItem{p->ReadAt<uint64_t>(Agg::InternalChildOffset(page_size, i)),
                   1, it.level + 1});
    }
    return Status::OK();
  }

  static uint64_t MapValue(const V& v) {
    return replica::MapOrderedBits(std::bit_cast<uint64_t>(v));
  }

  /// Feeds every coordinate into the key dictionary, every leaf/border
  /// value into the value dictionary, and counts stored entries. Subtotals
  /// and aggregate sums stay out of the dictionaries (raw strips).
  static void CollectTokens(const NodeImage& nd,
                            std::vector<uint64_t>* key_toks,
                            std::vector<uint64_t>* val_toks,
                            uint64_t* entry_count) {
    switch (nd.kind) {
      case replica::kNodeBaLeaf:
        for (const Point& pt : nd.pts) {
          for (int d = 0; d < nd.dims; ++d) {
            key_toks->push_back(replica::MapDouble(pt[d]));
          }
        }
        for (const V& v : nd.vals) val_toks->push_back(MapValue(v));
        *entry_count += nd.n;
        break;
      case replica::kNodeAggLeaf:
        for (double k : nd.keys) key_toks->push_back(replica::MapDouble(k));
        for (const V& v : nd.vals) val_toks->push_back(MapValue(v));
        *entry_count += nd.n;
        break;
      case replica::kNodeAggInternal:
        for (double k : nd.keys) key_toks->push_back(replica::MapDouble(k));
        break;
      case replica::kNodeBaInternal:
        for (const Box& bx : nd.boxes) {
          for (int d = 0; d < nd.dims; ++d) {
            key_toks->push_back(replica::MapDouble(bx.lo[d]));
            key_toks->push_back(replica::MapDouble(bx.hi[d]));
          }
        }
        for (const auto& rec : nd.borders) {
          for (const BorderEnc& be : rec) {
            if (be.tag != replica::kBorderInline) continue;
            for (const auto& e : be.entries) {
              for (int d = 0; d < nd.dims - 1; ++d) {
                key_toks->push_back(replica::MapDouble(e.pt[d]));
              }
              val_toks->push_back(MapValue(e.value));
            }
            *entry_count += be.entries.size();
          }
        }
        break;
      default:
        break;
    }
  }

  static void Seal(std::vector<uint64_t>* toks) {
    std::sort(toks->begin(), toks->end());
    toks->erase(std::unique(toks->begin(), toks->end()), toks->end());
  }

  static void AppendU64s(std::vector<uint8_t>* out, const uint64_t* v,
                         size_t n) {
    const uint8_t* b = reinterpret_cast<const uint8_t*>(v);
    out->insert(out->end(), b, b + n * sizeof(uint64_t));
  }

  static void AppendValueStrip(const V* vals, uint32_t m,
                               const std::vector<uint64_t>* val_dict,
                               std::vector<uint8_t>* out) {
    std::vector<uint64_t> tok(m);
    for (uint32_t i = 0; i < m; ++i) tok[i] = MapValue(vals[i]);
    replica::EncodeStrip(tok.data(), m, val_dict, out);
  }

  /// Serializes one node exactly as CompactReplica's descent parses it.
  /// Either dictionary may be null (forces the raw strip forms).
  static void EncodeNode(const NodeImage& nd,
                         const std::vector<uint64_t>* key_dict,
                         const std::vector<uint64_t>* val_dict,
                         std::vector<uint8_t>* out) {
    out->push_back(nd.kind);
    replica::AppendVarint(out, nd.n);
    std::vector<uint64_t> tok;
    switch (nd.kind) {
      case replica::kNodeBaLeaf: {
        tok.resize(nd.n);
        for (int d = 0; d < nd.dims; ++d) {
          for (uint32_t i = 0; i < nd.n; ++i) {
            tok[i] = replica::MapDouble(nd.pts[i][d]);
          }
          replica::EncodeStrip(tok.data(), nd.n, key_dict, out);
        }
        AppendValueStrip(nd.vals.data(), nd.n, val_dict, out);
        break;
      }
      case replica::kNodeAggLeaf: {
        tok.resize(nd.n);
        for (uint32_t i = 0; i < nd.n; ++i) {
          tok[i] = replica::MapDouble(nd.keys[i]);
        }
        replica::EncodeStrip(tok.data(), nd.n, key_dict, out);
        AppendValueStrip(nd.vals.data(), nd.n, val_dict, out);
        break;
      }
      case replica::kNodeAggInternal: {
        replica::AppendVarint(out, nd.first_child);
        tok.resize(nd.n);
        for (uint32_t i = 0; i < nd.n; ++i) {
          tok[i] = replica::MapDouble(nd.keys[i]);
        }
        replica::EncodeStrip(tok.data(), nd.n, key_dict, out);
        AppendValueStrip(nd.vals.data(), nd.n, nullptr, out);
        break;
      }
      case replica::kNodeBaInternal: {
        replica::AppendVarint(out, nd.first_child);
        tok.resize(nd.n);
        for (int side = 0; side < 2; ++side) {
          for (int d = 0; d < nd.dims; ++d) {
            for (uint32_t i = 0; i < nd.n; ++i) {
              const Box& bx = nd.boxes[i];
              tok[i] = replica::MapDouble(side == 0 ? bx.lo[d] : bx.hi[d]);
            }
            replica::EncodeStrip(tok.data(), nd.n, key_dict, out);
          }
        }
        AppendValueStrip(nd.vals.data(), nd.n, nullptr, out);
        for (uint32_t i = 0; i < nd.n; ++i) {
          for (int b = 0; b < nd.dims; ++b) {
            const BorderEnc& be = nd.borders[i][static_cast<size_t>(b)];
            out->push_back(be.tag);
            if (be.tag == replica::kBorderEmpty) continue;
            if (be.tag == replica::kBorderSpill) {
              replica::AppendVarint(out, be.spill_ord);
              continue;
            }
            const uint32_t cnt = static_cast<uint32_t>(be.entries.size());
            replica::AppendVarint(out, cnt);
            tok.resize(cnt);
            for (int d = 0; d < nd.dims - 1; ++d) {
              for (uint32_t k = 0; k < cnt; ++k) {
                tok[k] = replica::MapDouble(be.entries[k].pt[d]);
              }
              replica::EncodeStrip(tok.data(), cnt, key_dict, out);
            }
            std::vector<V> bv(cnt);
            for (uint32_t k = 0; k < cnt; ++k) bv[k] = be.entries[k].value;
            AppendValueStrip(bv.data(), cnt, val_dict, out);
          }
        }
        break;
      }
      default:
        break;
    }
  }

  BufferPool* pool_;
};

}  // namespace boxagg

#endif  // BOXAGG_REPLICA_REPLICA_BUILDER_H_
