// The durability envelope (storage/page_header.h): simd::Crc32c correctness
// against the standard and RFC 3720 test vectors, slot encode/decode round
// trips, and — the property the crash story rests on — 100% detection of
// every single-bit flip and every torn-write prefix of a page slot, plus
// misdirected-write and lost-write (zeroed-slot) classification. Runs the
// same checks through both PageFile backends so the envelope is known to
// be wired in, not just correct in isolation.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "simd/simd.h"
#include "storage/page_file.h"
#include "storage/page_header.h"

namespace boxagg {
namespace {

constexpr uint32_t kPageSize = 512;  // small page: exhaustive bit sweeps
constexpr uint32_t kSlotSize = kPageSize + kPageHeaderSize;

using simd::Crc32c;

TEST(Crc32c, StandardCheckValue) {
  // The canonical CRC-32C check: crc("123456789") == 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  // iSCSI (RFC 3720 section B.4) CRC32C examples over 32-byte buffers.
  uint8_t buf[32];
  std::memset(buf, 0x00, sizeof(buf));
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x8A9136AAu);
  std::memset(buf, 0xFF, sizeof(buf));
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x46DD794Eu);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(31 - i);
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x113FDB5Cu);
}

TEST(Crc32c, ChainingMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  const size_t n = std::strlen(data);
  const uint32_t whole = Crc32c(data, n);
  for (size_t split = 0; split <= n; ++split) {
    EXPECT_EQ(Crc32c(data + split, n - split, Crc32c(data, split)), whole);
  }
}

std::vector<uint8_t> MakePayload(uint8_t fill,
                                 uint32_t page_size = kPageSize) {
  std::vector<uint8_t> payload(page_size, fill);
  for (uint32_t i = 0; i < page_size; i += 7) payload[i] = uint8_t(i);
  return payload;
}

TEST(PageSlot, EncodeDecodeRoundTrip) {
  const auto payload = MakePayload(0x5A);
  std::vector<uint8_t> slot(kSlotSize);
  EncodePageSlot(slot.data(), kPageSize, /*id=*/42, /*epoch=*/7,
                 payload.data());
  std::vector<uint8_t> out(kPageSize);
  uint64_t epoch = 0;
  ASSERT_TRUE(DecodePageSlot(slot.data(), kPageSize, 42, out.data(), &epoch)
                  .ok());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(epoch, 7u);
}

TEST(PageSlot, ZeroSlotDecodesAsNeverWritten) {
  std::vector<uint8_t> slot(kSlotSize, 0);
  std::vector<uint8_t> out(kPageSize, 0xCC);
  uint64_t epoch = 99;
  ASSERT_TRUE(DecodePageSlot(slot.data(), kPageSize, 3, out.data(), &epoch)
                  .ok());
  EXPECT_EQ(epoch, 0u);
  EXPECT_EQ(out, std::vector<uint8_t>(kPageSize, 0));
}

TEST(PageSlot, ZeroHeaderOverNonzeroPayloadIsTorn) {
  std::vector<uint8_t> slot(kSlotSize, 0);
  slot[kPageHeaderSize + 100] = 1;  // payload byte survived, header did not
  std::vector<uint8_t> out(kPageSize);
  Status st = DecodePageSlot(slot.data(), kPageSize, 3, out.data(), nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

// Flips every bit of an encoded slot in turn; each flip must fail decode.
void ExpectEverySingleBitFlipDetected(uint32_t page_size) {
  const uint32_t slot_size = page_size + kPageHeaderSize;
  const auto payload = MakePayload(0xA5, page_size);
  std::vector<uint8_t> slot(slot_size);
  EncodePageSlot(slot.data(), page_size, 42, 7, payload.data());
  std::vector<uint8_t> out(page_size);
  for (uint32_t bit = 0; bit < slot_size * 8; ++bit) {
    slot[bit / 8] ^= uint8_t(1u << (bit % 8));
    EXPECT_FALSE(
        DecodePageSlot(slot.data(), page_size, 42, out.data(), nullptr).ok())
        << "undetected flip of bit " << bit;
    slot[bit / 8] ^= uint8_t(1u << (bit % 8));
  }
  // The pristine slot still decodes (the sweep restored every bit).
  EXPECT_TRUE(
      DecodePageSlot(slot.data(), page_size, 42, out.data(), nullptr).ok());
}

TEST(PageSlot, DetectsEverySingleBitFlip) {
  ExpectEverySingleBitFlipDetected(kPageSize);
}

// An 8 KiB payload is long enough to run the three-lane Crc32c blocks and
// their merge, which the 512-byte slot never reaches.
TEST(PageSlot, DetectsEverySingleBitFlipIn8KiBSlot) {
  ExpectEverySingleBitFlipDetected(8192);
}

TEST(PageSlot, DetectsEveryTornWritePrefix) {
  // Old and new slot images for the same page; a torn write persists
  // `prefix` bytes of the new image over the old one.
  const auto old_payload = MakePayload(0x55);
  const auto new_payload = MakePayload(0xAA);
  std::vector<uint8_t> old_slot(kSlotSize), new_slot(kSlotSize);
  EncodePageSlot(old_slot.data(), kPageSize, 9, 3, old_payload.data());
  EncodePageSlot(new_slot.data(), kPageSize, 9, 4, new_payload.data());
  // A tear landing entirely in bytes where both images agree leaves a
  // byte-identical valid slot — indistinguishable from a vanished or fully
  // applied write, and harmless. Any MIXED image must be rejected.
  std::vector<uint8_t> out(kPageSize);
  uint32_t rejected = 0;
  for (uint32_t prefix = 1; prefix < kSlotSize; ++prefix) {
    std::vector<uint8_t> torn = old_slot;
    std::memcpy(torn.data(), new_slot.data(), prefix);
    if (DecodePageSlot(torn.data(), kPageSize, 9, out.data(), nullptr).ok()) {
      EXPECT_TRUE(torn == old_slot || torn == new_slot)
          << "mixed image accepted at prefix " << prefix;
    } else {
      ++rejected;
    }
  }
  // The CRC field (bytes 4..7) differs between epochs, so every prefix
  // from there until the last differing payload byte yields a mixed image.
  EXPECT_GT(rejected, kSlotSize - 16);

  // Torn writes over a never-written (all-zero) slot are caught too.
  rejected = 0;
  for (uint32_t prefix = 1; prefix < kSlotSize; ++prefix) {
    std::vector<uint8_t> torn(kSlotSize, 0);
    std::memcpy(torn.data(), new_slot.data(), prefix);
    if (DecodePageSlot(torn.data(), kPageSize, 9, out.data(), nullptr).ok()) {
      EXPECT_TRUE(torn == std::vector<uint8_t>(kSlotSize, 0) ||
                  torn == new_slot)
          << "mixed torn-over-zero image accepted at prefix " << prefix;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, kSlotSize - 16);
}

TEST(PageSlot, DetectsMisdirectedWrite) {
  const auto payload = MakePayload(0x11);
  std::vector<uint8_t> slot(kSlotSize);
  EncodePageSlot(slot.data(), kPageSize, /*id=*/5, 1, payload.data());
  std::vector<uint8_t> out(kPageSize);
  // The slot landed at page 6's offset: id mismatch must be reported even
  // though the CRC itself is intact.
  Status st = DecodePageSlot(slot.data(), kPageSize, 6, out.data(), nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("misdirected"), std::string::npos);
}

// The envelope is live in both backends: epochs round-trip through
// ReadPageEx and a never-written page reads as zeros with epoch 0.
template <class FileMaker>
void BackendEpochRoundTrip(FileMaker make) {
  auto file = make();
  PageId a = kInvalidPageId, b = kInvalidPageId;
  ASSERT_TRUE(file->Allocate(&a).ok());
  ASSERT_TRUE(file->Allocate(&b).ok());
  file->set_write_epoch(12);
  Page p(file->page_size());
  p.WriteAt<uint32_t>(0, 0xdeadbeef);
  ASSERT_TRUE(file->WritePage(a, p).ok());

  Page r(file->page_size());
  uint64_t epoch = 0;
  ASSERT_TRUE(file->ReadPageEx(a, &r, &epoch).ok());
  EXPECT_EQ(epoch, 12u);
  EXPECT_EQ(r.ReadAt<uint32_t>(0), 0xdeadbeefu);

  ASSERT_TRUE(file->ReadPageEx(b, &r, &epoch).ok());
  EXPECT_EQ(epoch, 0u);  // never written
  EXPECT_EQ(r.ReadAt<uint32_t>(0), 0u);
}

TEST(PageFileEnvelope, MemBackend) {
  BackendEpochRoundTrip(
      [] { return std::make_unique<MemPageFile>(kPageSize); });
}

TEST(PageFileEnvelope, FileBackend) {
  const std::string path = ::testing::TempDir() + "envelope_test.pages";
  BackendEpochRoundTrip([&] {
    std::unique_ptr<FilePageFile> f;
    EXPECT_TRUE(FilePageFile::Open(path, kPageSize, true, &f).ok());
    return f;
  });
  std::remove(path.c_str());
}

// On-disk bit flips are detected through a real file: write, corrupt the
// raw bytes, read back.
TEST(PageFileEnvelope, FileBackendDetectsDiskCorruption) {
  const std::string path = ::testing::TempDir() + "corrupt_test.pages";
  std::unique_ptr<FilePageFile> file;
  ASSERT_TRUE(FilePageFile::Open(path, kPageSize, true, &file).ok());
  PageId id = kInvalidPageId;
  ASSERT_TRUE(file->Allocate(&id).ok());
  Page p(kPageSize);
  for (uint32_t i = 0; i < kPageSize; i += 4) p.WriteAt<uint8_t>(i, 0x77);
  ASSERT_TRUE(file->WritePage(id, p).ok());
  ASSERT_TRUE(file->Close().ok());

  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(kSlotSize * static_cast<std::streamoff>(id) + kPageHeaderSize +
            17);
    f.put('\x01');
  }

  std::unique_ptr<FilePageFile> reopened;
  ASSERT_TRUE(FilePageFile::Open(path, kPageSize, false, &reopened).ok());
  // Reopened file derives page_count from the file size.
  ASSERT_EQ(reopened->page_count(), 1u);
  Page r(kPageSize);
  Status st = reopened->ReadPage(id, &r);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace boxagg
