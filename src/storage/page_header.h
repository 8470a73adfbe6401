// Physical page header: the durability envelope around every page slot.
//
// A PageFile stores each logical page in a fixed-size *slot* of
// kPageHeaderSize + page_size bytes. The header carries a magic number, a
// CRC32C over the slot's identifying fields and payload, the page id the
// slot was written for (catching misdirected writes), and the epoch
// (commit generation) that last wrote it (catching lost writes when
// cross-checked against the BagFile map). The header is invisible above
// the PageFile interface: indexes see exactly page_size payload bytes, so
// fan-out, tree shape, and every I/O count are unchanged by its existence.
//
// The CRC is simd::Crc32c: the three-lane SSE4.2 `crc32` kernel in native
// builds, slice-by-8 otherwise. The two are bit-identical, so a slot
// written by either build decodes under the other.
//
// A slot whose 32 header bytes and entire payload are zero decodes as a
// never-written page (allocated via ftruncate/resize but not yet flushed);
// anything else must carry a valid header or the read fails with
// Status::kCorruption.

#ifndef BOXAGG_STORAGE_PAGE_HEADER_H_
#define BOXAGG_STORAGE_PAGE_HEADER_H_

#include <cstdint>
#include <cstring>

#include "storage/page.h"
#include "storage/status.h"

namespace boxagg {

/// Bytes of per-page envelope prepended to every slot in the backing store.
inline constexpr uint32_t kPageHeaderSize = 32;

/// First 4 bytes of every written slot ("boxagg page v1").
inline constexpr uint32_t kPageMagic = 0xb0cca9e1u;

/// Header field offsets within a slot.
inline constexpr uint32_t kPageOffMagic = 0;
inline constexpr uint32_t kPageOffCrc = 4;
inline constexpr uint32_t kPageOffId = 8;
inline constexpr uint32_t kPageOffEpoch = 16;
inline constexpr uint32_t kPageOffReserved = 24;

/// Fills `slot` (kPageHeaderSize + page_size bytes) with an encoded header
/// followed by a copy of `payload` (page_size bytes). The CRC covers the
/// id, epoch, and reserved header fields plus the full payload, so any
/// single flipped bit anywhere in the slot is detected on decode.
void EncodePageSlot(uint8_t* slot, uint32_t page_size, PageId id,
                    uint64_t epoch, const uint8_t* payload);

/// Validates, in place, a slot read back for page `id` whose kPageHeaderSize
/// header bytes are at `header` and whose page_size payload bytes are at
/// `payload`. On success `*epoch_out` (if non-null) receives the stamped
/// epoch — 0 for a never-written all-zero slot. Status::kCorruption on a
/// bad magic, a CRC mismatch (bit flip / torn write), or a header stamped
/// with a different page id (misdirected write).
Status VerifyPageSlot(const uint8_t* header, const uint8_t* payload,
                      uint32_t page_size, PageId id, uint64_t* epoch_out);

/// VerifyPageSlot over a contiguous slot, then a copy of its payload into
/// `payload_out` (page_size bytes); `payload_out` is untouched on failure.
Status DecodePageSlot(const uint8_t* slot, uint32_t page_size, PageId id,
                      uint8_t* payload_out, uint64_t* epoch_out);

}  // namespace boxagg

#endif  // BOXAGG_STORAGE_PAGE_HEADER_H_
