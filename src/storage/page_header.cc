#include "storage/page_header.h"

#include <string>

#include "simd/simd.h"

namespace boxagg {

namespace {

// The CRC spans everything in the slot except the magic and the CRC field
// itself: the id/epoch/reserved header words followed by the payload.
uint32_t SlotCrc(const uint8_t* header, const uint8_t* payload,
                 uint32_t page_size) {
  uint32_t crc =
      simd::Crc32c(header + kPageOffId, kPageHeaderSize - kPageOffId);
  return simd::Crc32c(payload, page_size, crc);
}

bool AllZero(const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

}  // namespace

void EncodePageSlot(uint8_t* slot, uint32_t page_size, PageId id,
                    uint64_t epoch, const uint8_t* payload) {
  std::memcpy(slot + kPageOffId, &id, sizeof(id));
  std::memcpy(slot + kPageOffEpoch, &epoch, sizeof(epoch));
  std::memset(slot + kPageOffReserved, 0, 8);
  std::memcpy(slot + kPageHeaderSize, payload, page_size);
  const uint32_t magic = kPageMagic;
  std::memcpy(slot + kPageOffMagic, &magic, sizeof(magic));
  const uint32_t crc = SlotCrc(slot, slot + kPageHeaderSize, page_size);
  std::memcpy(slot + kPageOffCrc, &crc, sizeof(crc));
}

Status VerifyPageSlot(const uint8_t* header, const uint8_t* payload,
                      uint32_t page_size, PageId id, uint64_t* epoch_out) {
  uint32_t magic;
  std::memcpy(&magic, header + kPageOffMagic, sizeof(magic));
  if (magic == 0 && AllZero(header, kPageHeaderSize)) {
    // Never-written slot: legal only if the payload is all zeros too.
    if (!AllZero(payload, page_size)) {
      return Status::Corruption("page " + std::to_string(id) +
                                ": zero header over nonzero payload (torn "
                                "write)");
    }
    if (epoch_out != nullptr) *epoch_out = 0;
    return Status::OK();
  }
  if (magic != kPageMagic) {
    return Status::Corruption("page " + std::to_string(id) +
                              ": bad page magic");
  }
  PageId stored_id;
  std::memcpy(&stored_id, header + kPageOffId, sizeof(stored_id));
  if (stored_id != id) {
    return Status::Corruption(
        "page " + std::to_string(id) + ": header stamped for page " +
        std::to_string(stored_id) + " (misdirected write)");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, header + kPageOffCrc, sizeof(stored_crc));
  if (stored_crc != SlotCrc(header, payload, page_size)) {
    return Status::Corruption("page " + std::to_string(id) +
                              ": checksum mismatch (bit flip or torn "
                              "write)");
  }
  if (epoch_out != nullptr) {
    std::memcpy(epoch_out, header + kPageOffEpoch, sizeof(*epoch_out));
  }
  return Status::OK();
}

Status DecodePageSlot(const uint8_t* slot, uint32_t page_size, PageId id,
                      uint8_t* payload_out, uint64_t* epoch_out) {
  BOXAGG_RETURN_NOT_OK(
      VerifyPageSlot(slot, slot + kPageHeaderSize, page_size, id, epoch_out));
  std::memcpy(payload_out, slot + kPageHeaderSize, page_size);
  return Status::OK();
}

}  // namespace boxagg
