// boxagg_fsck end-to-end over the crash-safe v2 format: build a real .bag
// index file the same way the CLI does (BagFile::Create + one atomic
// Commit), verify fsck passes it clean, then corrupt the physical file —
// tree pages, superblock slots, free pages — and prove fsck classifies
// each case correctly (the CLI maps any non-OK verdict to a non-zero
// exit). Stale-page and strict-mode policies are exercised over the
// fault-injecting store, where lost writes can be staged deterministically.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "batree/packed_ba_tree.h"
#include "check/fsck.h"
#include "core/bag_file.h"
#include "core/box_sum_index.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "workload/generators.h"

namespace boxagg {
namespace {

constexpr uint32_t kPageSize = 4096;
constexpr uint64_t kSlotSize = kPageSize + kPageHeaderSize;

class FsckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases as concurrent processes.
    path_ = ::testing::TempDir() + "fsck_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bag";
    BuildIndex();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Mirrors boxagg_cli's build command: the 2^d SUM corner trees of a
  // BoxSumIndex over PackedBaTrees, published with one atomic Commit.
  void BuildIndex() {
    std::unique_ptr<FilePageFile> file;
    ASSERT_TRUE(
        FilePageFile::Open(path_, kPageSize, /*truncate=*/true, &file).ok());
    std::unique_ptr<BagFile> bag;
    ASSERT_TRUE(BagFile::Create(file.get(), 2, 4, &bag).ok());
    BufferPool pool(bag.get(), 512);

    workload::RectConfig cfg;
    cfg.n = 800;
    cfg.avg_side = 1e-2;
    cfg.seed = 77;
    BoxSumIndex<PackedBaTree<double>> sums(
        2, [&] { return PackedBaTree<double>(&pool, 2); });
    ASSERT_TRUE(sums.BulkLoad(workload::UniformRects(cfg)).ok());

    std::vector<PageId> roots;
    for (uint32_t s = 0; s < sums.index_count(); ++s) {
      roots.push_back(sums.index(s).root());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(bag->Commit(roots).ok());
    // Physical locations of two tree roots, for targeted corruption.
    first_root_phys_ = bag->MapEntry(roots[0]).physical;
    second_root_phys_ = bag->MapEntry(roots[1]).physical;
    ASSERT_TRUE(file->Close().ok());
  }

  // Overwrites `len` bytes at `offset` in the raw file with 0xFF.
  void FlipBytes(uint64_t offset, size_t len) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(offset));
    for (size_t i = 0; i < len; ++i) f.put('\xff');
    ASSERT_TRUE(f.good());
  }

  // Byte offset of page `phys`'s payload in the physical file.
  static uint64_t PayloadOffset(PageId phys) {
    return phys * kSlotSize + kPageHeaderSize;
  }

  Status RunFsck(FsckReport* report = nullptr, bool strict = false) {
    FsckOptions options;
    options.page_size = kPageSize;
    options.strict_orphans = strict;
    options.strict_stale = strict;
    return FsckIndexFile(path_, options, report);
  }

  std::string path_;
  PageId first_root_phys_ = kInvalidPageId;
  PageId second_root_phys_ = kInvalidPageId;
};

TEST_F(FsckTest, CleanFilePasses) {
  FsckReport report;
  EXPECT_TRUE(RunFsck(&report).ok());
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.dims, 2u);
  EXPECT_EQ(report.roots.size(), 4u);  // 2^2 SUM corners
  EXPECT_GT(report.file_pages, 1u);
  EXPECT_GT(report.visited_pages, 1u);
  EXPECT_EQ(report.checksum_failures_live, 0u);
  EXPECT_EQ(report.stale_pages, 0u);
  EXPECT_TRUE(report.root_errors.empty());
}

TEST_F(FsckTest, DetectsByteFlippedTreePage) {
  // Smash bytes inside the first root's payload on disk: the CRC32C
  // envelope must catch it in the physical sweep AND the tree fetch.
  FlipBytes(PayloadOffset(first_root_phys_), 8);
  FsckReport report;
  Status st = RunFsck(&report);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  EXPECT_EQ(report.checksum_failures_live, 1u);
  EXPECT_EQ(report.root_errors.size(), 1u);
}

TEST_F(FsckTest, ReportsEachCorruptStructureSeparately) {
  FlipBytes(PayloadOffset(first_root_phys_), 8);
  FlipBytes(PayloadOffset(second_root_phys_), 8);
  FsckReport report;
  Status st = RunFsck(&report);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(report.checksum_failures_live, 2u);
  EXPECT_EQ(report.root_errors.size(), 2u);  // per-structure, not first-only
}

TEST_F(FsckTest, DetectsBothSuperblocksCorrupt) {
  // Generation 1 lives in slot 1, generation 0 in slot 0; with both slots
  // smashed there is no generation to recover to.
  FlipBytes(0 * kSlotSize, 16);
  FlipBytes(1 * kSlotSize, 16);
  Status st = RunFsck();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
}

TEST_F(FsckTest, ToleratesInactiveSuperblockCorruption) {
  // The live generation (1) is in slot 1; slot 0 holds superseded
  // generation 0, whose corruption is exactly what an interrupted later
  // commit would leave behind — a note, not an error.
  FlipBytes(0 * kSlotSize, 16);
  FsckReport report;
  EXPECT_TRUE(RunFsck(&report).ok()) << RunFsck().ToString();
  EXPECT_EQ(report.generation, 1u);
  EXPECT_FALSE(report.notes.empty());
}

TEST_F(FsckTest, ChecksumFailureOnFreePageIsANote) {
  // Commit again so the generation-1 map chain is freed, then corrupt the
  // freed page: damage on unreferenced slots must not fail the check.
  PageId old_map_page = kInvalidPageId;
  {
    std::unique_ptr<FilePageFile> file;
    ASSERT_TRUE(FilePageFile::Open(path_, kPageSize, /*truncate=*/false,
                                   &file)
                    .ok());
    std::unique_ptr<BagFile> bag;
    ASSERT_TRUE(BagFile::Open(file.get(), &bag).ok());
    old_map_page = bag->map_page_ids().front();
    ASSERT_TRUE(bag->Commit(bag->roots()).ok());
    ASSERT_TRUE(file->Close().ok());
  }
  FlipBytes(PayloadOffset(old_map_page), 8);
  FsckReport report;
  EXPECT_TRUE(RunFsck(&report).ok());
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(report.checksum_failures_live, 0u);
  EXPECT_EQ(report.checksum_failures_free, 1u);
}

TEST_F(FsckTest, MissingFileFails) {
  // Open() creates missing files (O_CREAT), so fsck sees a zero-page file
  // with no superblock — still a hard failure, never a clean pass.
  const std::string ghost = ::testing::TempDir() + "does_not_exist.bag";
  Status st = FsckIndexFile(ghost, FsckOptions{});
  std::remove(ghost.c_str());
  EXPECT_FALSE(st.ok());
}

// A mapped page whose durable slot never received its write: the map says
// epoch 1, the platter says never-written. Default mode notes it (and the
// orphan); strict mode fails on both.
class FsckStaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BagFile::Create(&phys_, 2, 1, &bag_).ok());
    PageId logical = kInvalidPageId;
    ASSERT_TRUE(bag_->Allocate(&logical).ok());
    Page p(kPageSize);
    p.WriteAt<uint64_t>(0, 0xfeedfacefeedfaceull);
    ASSERT_TRUE(bag_->WritePage(logical, p).ok());
    // Root stays kInvalidPageId: the page is deliberately unreachable, so
    // the orphan path is exercised alongside the stale path.
    ASSERT_TRUE(bag_->Commit({kInvalidPageId}).ok());
    stale_phys_ = bag_->MapEntry(logical).physical;
    phys_.ZeroDurablePage(stale_phys_);  // the write is "lost"
  }

  FaultInjectingPageFile phys_{kPageSize, /*seed=*/7};
  std::unique_ptr<BagFile> bag_;
  PageId stale_phys_ = kInvalidPageId;
};

TEST_F(FsckStaleTest, StalePageIsANoteByDefault) {
  FsckOptions options;
  options.page_size = kPageSize;
  FsckReport report;
  EXPECT_TRUE(FsckBag(&phys_, options, &report).ok());
  EXPECT_EQ(report.stale_pages, 1u);
  EXPECT_EQ(report.orphan_pages, 1u);
}

TEST_F(FsckStaleTest, StrictFailsOnStalePage) {
  FsckOptions options;
  options.page_size = kPageSize;
  options.strict_stale = true;
  FsckReport report;
  Status st = FsckBag(&phys_, options, &report);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  EXPECT_EQ(report.stale_pages, 1u);
}

TEST_F(FsckStaleTest, StrictFailsOnOrphanedPage) {
  FsckOptions options;
  options.page_size = kPageSize;
  options.strict_orphans = true;
  // Restore the durable image so only the orphan remains: rewrite the
  // page through a fresh epoch and commit (still unreachable from roots).
  Page p(kPageSize);
  p.WriteAt<uint64_t>(0, 0xfeedfacefeedfaceull);
  ASSERT_TRUE(bag_->WritePage(0, p).ok());
  ASSERT_TRUE(bag_->Commit({kInvalidPageId}).ok());
  FsckReport report;
  Status st = FsckBag(&phys_, options, &report);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  EXPECT_EQ(report.orphan_pages, 1u);
  EXPECT_EQ(report.stale_pages, 0u);
}

}  // namespace
}  // namespace boxagg
