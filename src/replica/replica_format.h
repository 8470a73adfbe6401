// On-page format of the compact read replica (the v3 .bag addition; see
// core/bag_format.h and DESIGN.md §13).
//
// A replica is one header page, a chain of meta pages, and a run of data
// pages holding the breadth-first node stream:
//
//   header page (type 20)
//     u16 type, u16 version, u32 dims, u32 value_size, u32 level_count,
//     u64 node_count, u64 data_page_count, u64 meta_page_count,
//     u64 key_dict_count, u64 val_dict_count, u64 entry_count,
//     u64 first_meta PageId, u64 data_bytes, u64 levels[16], u32 crc
//   meta page (type 21, chained via `next`)
//     u16 type, u16 pad, u32 payload_len, u64 next PageId, u32 crc;
//     payload concatenation across the chain:
//       u64 data_page_ids[data_page_count]
//       u64 directory[node_count]      (page_index << 32 | byte_offset)
//       u64 key_dict[key_dict_count]   (order-mapped doubles, ascending)
//       u64 val_dict[val_dict_count]   (order-mapped V patterns, ascending)
//   data page (type 22)
//     u16 type, u16 node_count, u32 payload_len, u32 crc; node stream
//
// Nodes carry no child pointers: a breadth-first ordinal assignment places
// every node's children consecutively, so one varint `first_child` per
// internal node replaces the per-record PageIds, and the directory maps
// ordinal -> (data page, offset). Key and value columns are stored as
// "strips": a one-byte header (byte width, delta-vs-frame-of-reference,
// dictionary-vs-raw), a u64 base, then fixed-width packed payload that
// simd::UnpackFixedWidth decodes. All query-time reads are prefix reads
// (leaf cutoffs, routing prefixes, full scans), so delta strips never need
// random access. Every decoder here takes the end of the bytes it may read
// and refuses a varint or strip that would run past it.

#ifndef BOXAGG_REPLICA_REPLICA_FORMAT_H_
#define BOXAGG_REPLICA_REPLICA_FORMAT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simd/simd.h"

namespace boxagg {
namespace replica {

inline constexpr uint16_t kHeaderPageType = 20;
inline constexpr uint16_t kMetaPageType = 21;
inline constexpr uint16_t kDataPageType = 22;
inline constexpr uint16_t kFormatVersion = 1;

// Header-page field offsets; the crc covers bytes [0, kHdrCrc).
inline constexpr uint32_t kHdrType = 0;
inline constexpr uint32_t kHdrVersion = 2;
inline constexpr uint32_t kHdrDims = 4;
inline constexpr uint32_t kHdrValueSize = 8;
inline constexpr uint32_t kHdrLevelCount = 12;
inline constexpr uint32_t kHdrNodeCount = 16;
inline constexpr uint32_t kHdrDataPageCount = 24;
inline constexpr uint32_t kHdrMetaPageCount = 32;
inline constexpr uint32_t kHdrKeyDictCount = 40;
inline constexpr uint32_t kHdrValDictCount = 48;
inline constexpr uint32_t kHdrEntryCount = 56;
inline constexpr uint32_t kHdrFirstMeta = 64;
inline constexpr uint32_t kHdrDataBytes = 72;
inline constexpr uint32_t kHdrLevels = 80;
inline constexpr uint32_t kHdrLevelSlots = 16;
inline constexpr uint32_t kHdrCrc = 208;

// Meta-page header; the crc covers the payload bytes only.
inline constexpr uint32_t kMetaPayloadLen = 4;
inline constexpr uint32_t kMetaNext = 8;
inline constexpr uint32_t kMetaCrc = 16;
inline constexpr uint32_t kMetaHeaderBytes = 24;

// Data-page header; the crc covers the payload bytes only.
inline constexpr uint32_t kDataNodeCount = 2;
inline constexpr uint32_t kDataPayloadLen = 4;
inline constexpr uint32_t kDataCrc = 8;
inline constexpr uint32_t kDataHeaderBytes = 12;

// Node stream: u8 kind, varint entry count, then the kind-specific strips.
inline constexpr uint8_t kNodeBaLeaf = 1;
inline constexpr uint8_t kNodeBaInternal = 2;
inline constexpr uint8_t kNodeAggLeaf = 3;
inline constexpr uint8_t kNodeAggInternal = 4;

// Per-record, per-dimension border section tags inside a kNodeBaInternal.
inline constexpr uint8_t kBorderEmpty = 0;
inline constexpr uint8_t kBorderInline = 1;  // varint cnt, coord strips, vals
inline constexpr uint8_t kBorderSpill = 2;   // varint ordinal of spilled root

// Strip header byte: low nibble = payload byte width (0..8), plus two flags.
inline constexpr uint8_t kStripWidthMask = 0x0f;
inline constexpr uint8_t kStripDeltaBit = 0x10;  // gaps, else frame-of-ref
inline constexpr uint8_t kStripDictBit = 0x20;   // dictionary indexes

// ---------------------------------------------------------------------------
// Order-preserving double <-> u64 mapping. Ascending doubles (IEEE total
// order over the patterns the trees store) map to ascending u64s, so sorted
// key columns become monotone integer strips; the map is a bijection, which
// is what keeps replica arithmetic byte-identical to the source tree.

inline uint64_t MapOrderedBits(uint64_t bits) {
  return (bits & 0x8000000000000000ull) != 0
             ? ~bits
             : (bits | 0x8000000000000000ull);
}

inline uint64_t UnmapOrderedBits(uint64_t u) {
  return (u & 0x8000000000000000ull) != 0 ? (u & 0x7fffffffffffffffull) : ~u;
}

inline uint64_t MapDouble(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return MapOrderedBits(bits);
}

inline double UnmapDouble(uint64_t u) {
  const uint64_t bits = UnmapOrderedBits(u);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// ---------------------------------------------------------------------------
// LEB128 varints.

inline void AppendVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

// LINT:hot-path — replica strip/varint decode: no heap allocation (lint.sh)
/// Reads the varint at *p and advances past it. False if it reaches `end`
/// unterminated or runs past 64 bits (10 bytes).
inline bool ReadVarint(const uint8_t** p, const uint8_t* end, uint64_t* out) {
  uint64_t v = 0;
  for (unsigned shift = 0; shift < 64 && *p < end; shift += 7) {
    const uint8_t b = *(*p)++;
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Strip decode. A strip stores `m` u64 tokens as header byte + u64 base +
// packed payload; empty strips (m == 0) are never emitted.

struct StripRef {
  uint8_t header = 0;
  uint64_t base = 0;
  const uint8_t* payload = nullptr;
};

inline uint64_t StripPayloadBytes(uint8_t header, uint32_t m) {
  const uint64_t w = header & kStripWidthMask;
  const uint64_t items = (header & kStripDeltaBit) != 0 ? m - uint64_t{1} : m;
  return items * w;
}

/// Parses the strip at *p (stored count `m` > 0) and advances past it.
/// False, with *p unchanged, if its width exceeds 8 bytes or its header,
/// base or payload run past `end`.
inline bool ParseStrip(const uint8_t** p, const uint8_t* end, uint32_t m,
                       StripRef* s) {
  const uint8_t* c = *p;
  if (end - c < 1 + 8) return false;  // header byte + u64 base
  s->header = *c++;
  if ((s->header & kStripWidthMask) > 8) return false;
  std::memcpy(&s->base, c, sizeof(s->base));
  c += sizeof(s->base);
  const uint64_t bytes = StripPayloadBytes(s->header, m);
  if (bytes > static_cast<uint64_t>(end - c)) return false;
  s->payload = c;
  *p = c + bytes;
  return true;
}

/// Decodes the first `take` tokens of a strip (take <= stored count). Both
/// modes decode a prefix sequentially, which is all the descent ever needs.
inline void DecodeStripU64(const StripRef& s, uint32_t take, uint64_t* out) {
  if (take == 0) return;
  const uint32_t w = s.header & kStripWidthMask;
  if ((s.header & kStripDeltaBit) != 0) {
    out[0] = s.base;
    simd::UnpackFixedWidth(s.payload, take - 1, w, 0, out + 1);
    for (uint32_t i = 1; i < take; ++i) out[i] += out[i - 1];
  } else {
    simd::UnpackFixedWidth(s.payload, take, w, s.base, out);
  }
}
// LINT:hot-path-end

// ---------------------------------------------------------------------------
// Strip encode (builder side only; free to allocate). Chooses the cheapest
// of {frame-of-reference, delta} x {raw order-mapped, dictionary index}.

inline uint32_t BytesForSpan(uint64_t span) {
  uint32_t w = 0;
  while (span != 0) {
    ++w;
    span >>= 8;
  }
  return w;
}

namespace detail {

struct StripPlan {
  uint8_t header = 0;
  uint64_t base = 0;
  uint32_t bytes = 0;  // total encoded size including header + base
};

/// Best FOR-or-delta plan for one token sequence (delta only if monotone).
inline StripPlan PlanTokens(const uint64_t* tok, uint32_t m, uint8_t flags) {
  uint64_t min = tok[0], max = tok[0], max_gap = 0;
  bool monotone = true;
  for (uint32_t i = 1; i < m; ++i) {
    if (tok[i] < min) min = tok[i];
    if (tok[i] > max) max = tok[i];
    if (tok[i] < tok[i - 1]) {
      monotone = false;
    } else if (tok[i] - tok[i - 1] > max_gap) {
      max_gap = tok[i] - tok[i - 1];
    }
  }
  StripPlan plan;
  const uint32_t for_w = BytesForSpan(max - min);
  plan.header = static_cast<uint8_t>(for_w) | flags;
  plan.base = min;
  plan.bytes = 1 + 8 + m * for_w;
  if (monotone) {
    const uint32_t delta_w = BytesForSpan(max_gap);
    const uint32_t delta_bytes = 1 + 8 + (m - 1) * delta_w;
    if (delta_bytes < plan.bytes) {
      plan.header = static_cast<uint8_t>(delta_w) | kStripDeltaBit | flags;
      plan.base = tok[0];
      plan.bytes = delta_bytes;
    }
  }
  return plan;
}

inline void AppendPlanned(const StripPlan& plan, const uint64_t* tok,
                          uint32_t m, std::vector<uint8_t>* out) {
  out->push_back(plan.header);
  const uint8_t* bp = reinterpret_cast<const uint8_t*>(&plan.base);
  out->insert(out->end(), bp, bp + 8);
  const uint32_t w = plan.header & kStripWidthMask;
  if (w == 0) return;
  const bool delta = (plan.header & kStripDeltaBit) != 0;
  for (uint32_t i = delta ? 1 : 0; i < m; ++i) {
    const uint64_t d = delta ? tok[i] - tok[i - 1] : tok[i] - plan.base;
    const uint8_t* dp = reinterpret_cast<const uint8_t*>(&d);
    out->insert(out->end(), dp, dp + w);
  }
}

}  // namespace detail

/// Appends the cheapest encoding of `mapped[0..m)` (order-mapped tokens).
/// With a dictionary (sorted unique mapped values that is guaranteed to
/// contain every token), the index form competes against the raw form.
inline void EncodeStrip(const uint64_t* mapped, uint32_t m,
                        const std::vector<uint64_t>* dict,
                        std::vector<uint8_t>* out) {
  if (m == 0) return;
  detail::StripPlan raw = detail::PlanTokens(mapped, m, 0);
  if (dict == nullptr) {
    detail::AppendPlanned(raw, mapped, m, out);
    return;
  }
  std::vector<uint64_t> ix(m);
  for (uint32_t i = 0; i < m; ++i) {
    ix[i] = static_cast<uint64_t>(
        std::lower_bound(dict->begin(), dict->end(), mapped[i]) -
        dict->begin());
  }
  detail::StripPlan via_dict = detail::PlanTokens(ix.data(), m, kStripDictBit);
  if (via_dict.bytes < raw.bytes) {
    detail::AppendPlanned(via_dict, ix.data(), m, out);
  } else {
    detail::AppendPlanned(raw, mapped, m, out);
  }
}

}  // namespace replica
}  // namespace boxagg

#endif  // BOXAGG_REPLICA_REPLICA_FORMAT_H_
