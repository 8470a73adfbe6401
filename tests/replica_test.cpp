// Compact read-replica tests (src/replica/): snapshot fidelity against the
// live trees and the naive oracle across dimensions, build modes, and data
// skew; strip codec round-trips; structural self-checks against injected
// byte corruption (in-pool and through a real .bag file via fsck); the
// immutability and open-before-use contracts; and the descent's
// zero-heap-allocation guarantee.
// The test links the counting operator new/delete of alloc_count.cpp, so
// the steady-state assertion observes every allocation in the process.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "batree/packed_ba_tree.h"
#include "bptree/agg_btree.h"
#include "check/fsck.h"
#include "core/bag_file.h"
#include "core/box_sum_index.h"
#include "core/naive.h"
#include "replica/compact_replica.h"
#include "replica/replica_builder.h"
#include "replica/replica_format.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "workload/generators.h"

namespace boxagg {
namespace {

std::vector<PointEntry<double>> MakeEntries(int dims, size_t n, bool skewed,
                                            unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<PointEntry<double>> es(n);
  for (auto& e : es) {
    for (int d = 0; d < dims; ++d) {
      double c = uni(rng);
      if (skewed) c = c * c * c;  // cluster near the origin
      e.pt[d] = c;
    }
    e.value = uni(rng) * 10.0;
  }
  if (skewed) {
    // Repeat coordinates so dictionary encoding and equal-key runs trigger.
    for (size_t i = 1; i < es.size(); i += 3) es[i].pt[0] = es[i - 1].pt[0];
  }
  return es;
}

/// The full fidelity property for one (dims, build mode, distribution):
/// replica opens, passes its own structural + self-oracle check, and every
/// query answer is byte-identical to the live tree (sequential AND batch)
/// and numerically equal to the naive oracle.
void CheckReplicaAgainstLive(int dims, size_t n, bool bulk, bool skewed,
                             unsigned seed) {
  MemPageFile file(1024);
  BufferPool pool(&file, 4096);
  PackedBaTree<double> live(&pool, dims);
  const auto entries = MakeEntries(dims, n, skewed, seed);
  NaiveDominanceSum<double> naive(dims);
  for (const auto& e : entries) naive.Insert(e.pt, e.value);
  if (bulk) {
    ASSERT_TRUE(live.BulkLoad(entries).ok());
  } else {
    for (const auto& e : entries) {
      ASSERT_TRUE(live.Insert(e.pt, e.value).ok());
    }
  }

  ReplicaBuilder<double> builder(&pool);
  PageId root = kInvalidPageId;
  ASSERT_TRUE(builder.Build(live, &root).ok());
  CompactReplica<double> rep(&pool, dims, root);
  ASSERT_TRUE(rep.Open().ok());
  CheckContext ctx;
  ctx.check_oracle = true;
  Status check = rep.CheckConsistency(&ctx);
  ASSERT_TRUE(check.ok()) << check.ToString();

  std::mt19937_64 rng(seed ^ 0xabcdu);
  std::uniform_real_distribution<double> uni(-0.1, 1.1);
  std::vector<Point> qs;
  for (int i = 0; i < 200; ++i) {
    Point q;
    for (int d = 0; d < dims; ++d) q[d] = uni(rng);
    qs.push_back(q);
  }
  // Exact data points: boundary-inclusive dominance must agree too.
  for (size_t i = 0; i < std::min<size_t>(50, entries.size()); ++i) {
    qs.push_back(entries[i].pt);
  }
  std::vector<double> want(qs.size()), got(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_TRUE(live.DominanceSum(qs[i], &want[i]).ok());
    ASSERT_TRUE(rep.DominanceSum(qs[i], &got[i]).ok());
    ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(double)), 0)
        << "query " << i << ": live=" << want[i] << " replica=" << got[i];
    const double oracle = naive.Query(qs[i]);
    EXPECT_NEAR(got[i], oracle, 1e-9 * (1.0 + std::abs(oracle)));
  }
  std::vector<double> batch(qs.size());
  ASSERT_TRUE(rep.DominanceSumBatch(qs.data(), qs.size(), batch.data()).ok());
  EXPECT_EQ(std::memcmp(batch.data(), want.data(),
                        qs.size() * sizeof(double)),
            0);
}

TEST(ReplicaTest, MatchesLiveTreeAndOracleAcrossDimsAndBuilds) {
  for (int dims = 1; dims <= 3; ++dims) {
    for (bool bulk : {true, false}) {
      for (bool skewed : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "dims=" << dims << " bulk=" << bulk
                     << " skewed=" << skewed);
        CheckReplicaAgainstLive(dims, bulk ? 2500 : 900, bulk, skewed,
                                1000u * dims + (bulk ? 7u : 0u) +
                                    (skewed ? 3u : 0u));
      }
    }
  }
}

TEST(ReplicaTest, EmptyTreeSnapshotsToHeaderOnlyReplica) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  PackedBaTree<double> live(&pool, 2);
  ReplicaBuilder<double> builder(&pool);
  PageId root = kInvalidPageId;
  ASSERT_TRUE(builder.Build(live, &root).ok());
  CompactReplica<double> rep(&pool, 2, root);
  ASSERT_TRUE(rep.Open().ok());
  CheckContext ctx;
  EXPECT_TRUE(rep.CheckConsistency(&ctx).ok());
  double out = 1.0;
  ASSERT_TRUE(rep.DominanceSum(Point(0.5, 0.5), &out).ok());
  EXPECT_EQ(out, 0.0);
  uint64_t pages = 0;
  ASSERT_TRUE(rep.PageCount(&pages).ok());
  EXPECT_EQ(pages, 1u);  // header only: no meta needed, no data
  ASSERT_TRUE(rep.Destroy().ok());
}

TEST(ReplicaTest, SinglePageReplica) {
  CheckReplicaAgainstLive(2, 3, /*bulk=*/true, /*skewed=*/false, 5);
  CheckReplicaAgainstLive(1, 1, /*bulk=*/false, /*skewed=*/false, 6);
}

TEST(ReplicaTest, SnapshotsAggBTreeDirectly) {
  MemPageFile file(1024);
  BufferPool pool(&file, 2048);
  AggBTree<double> agg(&pool);
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> uni(0.0, 1000.0);
  std::vector<AggBTree<double>::Entry> sorted(4000);
  for (auto& e : sorted) e = {uni(rng), uni(rng)};
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [](const auto& a, const auto& b) {
                             return a.key == b.key;
                           }),
               sorted.end());
  ASSERT_TRUE(agg.BulkLoad(sorted).ok());

  ReplicaBuilder<double> builder(&pool);
  PageId root = kInvalidPageId;
  ASSERT_TRUE(builder.Build(agg, &root).ok());
  CompactReplica<double> rep(&pool, 1, root);
  ASSERT_TRUE(rep.Open().ok());
  CheckContext ctx;
  ctx.check_oracle = true;
  Status check = rep.CheckConsistency(&ctx);
  ASSERT_TRUE(check.ok()) << check.ToString();

  for (int i = 0; i < 300; ++i) {
    const double q = uni(rng) * 1.1 - 20.0;
    double want = 0, got = 0;
    ASSERT_TRUE(agg.DominanceSum(q, &want).ok());
    ASSERT_TRUE(rep.DominanceSum(Point(q), &got).ok());
    ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0) << "q=" << q;
  }
}

TEST(ReplicaTest, BoxSumsAreByteIdenticalToLiveIndex) {
  MemPageFile file(4096);
  BufferPool pool(&file, 4096);
  workload::RectConfig rc;
  rc.n = 3000;
  rc.seed = 11;
  const auto objects = workload::UniformRects(rc);
  const auto queries = workload::QueryBoxes(128, 0.0001, 18);

  BoxSumIndex<PackedBaTree<double>> live(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  ASSERT_TRUE(live.BulkLoad(objects).ok());
  std::vector<double> want;
  ASSERT_TRUE(live.QueryBatch(queries, &want).ok());

  ReplicaBuilder<double> builder(&pool);
  std::vector<PageId> roots;
  for (uint32_t s = 0; s < live.index_count(); ++s) {
    PageId root = kInvalidPageId;
    ASSERT_TRUE(builder.Build(live.index(s), &root).ok());
    roots.push_back(root);
  }
  ASSERT_TRUE(live.Destroy().ok());

  uint32_t next = 0;
  BoxSumIndex<CompactReplica<double>> repidx(
      2, [&] { return CompactReplica<double>(&pool, 2, roots[next++]); });
  for (uint32_t s = 0; s < repidx.index_count(); ++s) {
    ASSERT_TRUE(repidx.index(s).Open().ok());
  }
  std::vector<double> got;
  ASSERT_TRUE(repidx.QueryBatch(queries, &got).ok());
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        want.size() * sizeof(double)),
            0);
}

TEST(ReplicaTest, InsertAndBulkLoadAreRejected) {
  MemPageFile file(1024);
  BufferPool pool(&file, 256);
  PackedBaTree<double> live(&pool, 2);
  ASSERT_TRUE(live.Insert(Point(0.5, 0.5), 1.0).ok());
  ReplicaBuilder<double> builder(&pool);
  PageId root = kInvalidPageId;
  ASSERT_TRUE(builder.Build(live, &root).ok());
  CompactReplica<double> rep(&pool, 2, root);
  ASSERT_TRUE(rep.Open().ok());
  EXPECT_EQ(rep.Insert(Point(0.1, 0.1), 1.0).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(rep.BulkLoad({{Point(0.1, 0.1), 1.0}}).code(),
            Status::Code::kInvalidArgument);
}

TEST(ReplicaTest, StripCodecRoundTrips) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t m = 1 + rng() % 200;
    std::vector<uint64_t> tok(m);
    switch (trial % 4) {
      case 0:  // constant
        for (auto& t : tok) t = 0x1234567890abcdefull;
        break;
      case 1:  // narrow range (small width)
        for (auto& t : tok) t = (1ull << 40) + rng() % 1000;
        break;
      case 2:  // monotone (delta candidate)
        tok[0] = rng() % 1000;
        for (uint32_t i = 1; i < m; ++i) tok[i] = tok[i - 1] + rng() % 5000;
        break;
      default:  // full-range random
        for (auto& t : tok) t = rng();
        break;
    }
    std::vector<uint8_t> buf;
    replica::EncodeStrip(tok.data(), m, /*dict=*/nullptr, &buf);
    const uint8_t* p = buf.data();
    replica::StripRef ref;
    ASSERT_TRUE(replica::ParseStrip(&p, buf.data() + buf.size(), m, &ref));
    EXPECT_EQ(p, buf.data() + buf.size());
    const uint8_t* cut = buf.data();  // one byte short: refused
    replica::StripRef cut_ref;
    EXPECT_FALSE(
        replica::ParseStrip(&cut, buf.data() + buf.size() - 1, m, &cut_ref));
    std::vector<uint64_t> out(m);
    replica::DecodeStripU64(ref, m, out.data());
    ASSERT_EQ(out, tok) << "trial " << trial;
    // Prefix decode must match the full decode's prefix.
    const uint32_t take = 1 + rng() % m;
    std::vector<uint64_t> prefix(take);
    replica::DecodeStripU64(ref, take, prefix.data());
    for (uint32_t i = 0; i < take; ++i) ASSERT_EQ(prefix[i], tok[i]);
  }
}

TEST(ReplicaTest, UnpackFixedWidthMatchesScalarReference) {
  std::mt19937_64 rng(99);
  std::vector<uint8_t> src(8 * 257);
  for (auto& b : src) b = static_cast<uint8_t>(rng());
  for (uint32_t width = 0; width <= 8; ++width) {
    std::vector<uint64_t> a(257), b(257);
    const uint64_t base = rng();
    simd::ref::UnpackFixedWidth(src.data(), 257, width, base, a.data());
    simd::UnpackFixedWidth(src.data(), 257, width, base, b.data());
    EXPECT_EQ(a, b) << "width " << width;
  }
}

// ---------------------------------------------------------------------------
// Corruption detection: flip bytes under the CRC envelopes and prove
// CheckConsistency (and fsck, below) notices.

TEST(ReplicaTest, CheckConsistencyDetectsDataPageCorruption) {
  MemPageFile file(1024);
  BufferPool pool(&file, 4096);
  PackedBaTree<double> live(&pool, 2);
  ASSERT_TRUE(live.BulkLoad(MakeEntries(2, 2000, false, 21)).ok());
  ReplicaBuilder<double> builder(&pool);
  PageId root = kInvalidPageId;
  ASSERT_TRUE(builder.Build(live, &root).ok());

  // Find one replica data page and flip a payload byte (CRC left stale).
  bool flipped = false;
  for (PageId pid = 0; pid < file.page_count() && !flipped; ++pid) {
    PageGuard g;
    ASSERT_TRUE(pool.Fetch(pid, &g).ok());
    if (g.page()->ReadAt<uint16_t>(0) == replica::kDataPageType) {
      const uint32_t off = replica::kDataHeaderBytes + 3;
      g.page()->WriteAt<uint8_t>(off, g.page()->ReadAt<uint8_t>(off) ^ 0xff);
      g.MarkDirty();
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);

  CompactReplica<double> rep(&pool, 2, root);
  CheckContext ctx;
  Status st = rep.CheckConsistency(&ctx);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
}

TEST(ReplicaTest, CheckConsistencyDetectsHeaderCorruption) {
  MemPageFile file(1024);
  BufferPool pool(&file, 4096);
  PackedBaTree<double> live(&pool, 2);
  ASSERT_TRUE(live.BulkLoad(MakeEntries(2, 500, false, 22)).ok());
  ReplicaBuilder<double> builder(&pool);
  PageId root = kInvalidPageId;
  ASSERT_TRUE(builder.Build(live, &root).ok());
  {
    PageGuard g;
    ASSERT_TRUE(pool.Fetch(root, &g).ok());
    g.page()->WriteAt<uint64_t>(
        replica::kHdrEntryCount,
        g.page()->ReadAt<uint64_t>(replica::kHdrEntryCount) + 1);
    g.MarkDirty();
  }
  CompactReplica<double> rep(&pool, 2, root);
  CheckContext ctx;
  EXPECT_FALSE(rep.CheckConsistency(&ctx).ok());
  CompactReplica<double> rep2(&pool, 2, root);
  EXPECT_FALSE(rep2.Open().ok());  // Open verifies the same envelope

  // A level count past the header's slots under a valid crc: Open() and
  // CheckConsistency() share one loader, so both refuse it.
  PageId root2 = kInvalidPageId;
  ASSERT_TRUE(builder.Build(live, &root2).ok());
  {
    PageGuard g;
    ASSERT_TRUE(pool.Fetch(root2, &g).ok());
    g.page()->WriteAt<uint32_t>(replica::kHdrLevelCount,
                                replica::kHdrLevelSlots + 1);
    g.page()->WriteAt<uint32_t>(
        replica::kHdrCrc, simd::Crc32c(g.page()->data(), replica::kHdrCrc));
    g.MarkDirty();
  }
  CompactReplica<double> rep3(&pool, 2, root2);
  Status open = rep3.Open();
  EXPECT_EQ(open.code(), Status::Code::kCorruption) << open.ToString();
  CheckContext ctx3;
  EXPECT_EQ(rep3.CheckConsistency(&ctx3).code(), Status::Code::kCorruption);

  // A data-page count raised by 2^61 under a valid crc wraps the expected
  // payload size back onto the real one; the loader reports corruption
  // instead of sizing a vector from the count.
  PageId root3 = kInvalidPageId;
  ASSERT_TRUE(builder.Build(live, &root3).ok());
  {
    PageGuard g;
    ASSERT_TRUE(pool.Fetch(root3, &g).ok());
    g.page()->WriteAt<uint64_t>(
        replica::kHdrDataPageCount,
        g.page()->ReadAt<uint64_t>(replica::kHdrDataPageCount) +
            (uint64_t{1} << 61));
    g.page()->WriteAt<uint32_t>(
        replica::kHdrCrc, simd::Crc32c(g.page()->data(), replica::kHdrCrc));
    g.MarkDirty();
  }
  CompactReplica<double> rep4(&pool, 2, root3);
  open = rep4.Open();
  EXPECT_EQ(open.code(), Status::Code::kCorruption) << open.ToString();
  CheckContext ctx4;
  EXPECT_EQ(rep4.CheckConsistency(&ctx4).code(), Status::Code::kCorruption);
}

// Malformed nodes under valid checksums. Each case rewrites bytes of one
// data page through the pool, so the page's slot CRC stays valid, and
// recomputes the replica's own kDataCrc: only the node reader stands
// between the bytes and the decoders. A query through the damaged node and
// CheckConsistency must both return the reader's Corruption, naming the
// data page.
TEST(ReplicaTest, QueriesRejectMalformedNodes) {
  MemPageFile file(1024);
  BufferPool pool(&file, 4096);
  PackedBaTree<double> live(&pool, 2);
  ASSERT_TRUE(live.BulkLoad(MakeEntries(2, 2000, /*skewed=*/true, 25)).ok());
  PackedBaTree<double> tiny(&pool, 2);  // one BA leaf: the only node
  ASSERT_TRUE(tiny.BulkLoad(MakeEntries(2, 3, /*skewed=*/false, 26)).ok());
  ReplicaBuilder<double> builder(&pool);

  // Builds a fresh replica of `src`, lets `patch` rewrite the first data
  // page (ordinal 0, the root node, starts its payload), reseals the page,
  // then queries and checks it, expecting `what` in both reports.
  auto run_case = [&](const char* what, const PackedBaTree<double>& src,
                      auto patch) {
    SCOPED_TRACE(what);
    PageId root = kInvalidPageId;
    ASSERT_TRUE(builder.Build(src, &root).ok());
    uint64_t node_count = 0, key_dict_count = 0;
    PageId first_data = kInvalidPageId;
    {
      PageGuard hdr;
      ASSERT_TRUE(pool.Fetch(root, &hdr).ok());
      node_count = hdr.page()->ReadAt<uint64_t>(replica::kHdrNodeCount);
      key_dict_count = hdr.page()->ReadAt<uint64_t>(replica::kHdrKeyDictCount);
      const uint64_t data_pages =
          hdr.page()->ReadAt<uint64_t>(replica::kHdrDataPageCount);
      PageGuard meta;
      ASSERT_TRUE(
          pool.Fetch(hdr.page()->ReadAt<uint64_t>(replica::kHdrFirstMeta),
                     &meta)
              .ok());
      first_data = meta.page()->ReadAt<uint64_t>(replica::kMetaHeaderBytes);
      ASSERT_EQ(meta.page()->ReadAt<uint64_t>(replica::kMetaHeaderBytes +
                                              8 * data_pages),
                uint64_t{replica::kDataHeaderBytes});  // directory[0]
    }
    {
      PageGuard g;
      ASSERT_TRUE(pool.Fetch(first_data, &g).ok());
      Page* p = g.page();
      patch(p, node_count, key_dict_count);
      const uint32_t len = p->ReadAt<uint32_t>(replica::kDataPayloadLen);
      p->WriteAt<uint32_t>(
          replica::kDataCrc,
          simd::Crc32c(p->data() + replica::kDataHeaderBytes, len));
      g.MarkDirty();
    }
    CompactReplica<double> rep(&pool, 2, root);
    ASSERT_TRUE(rep.Open().ok());
    double out = 0;
    const Status query = rep.DominanceSum(Point(-1.0, -1.0), &out);
    CheckContext ctx;
    const Status check = rep.CheckConsistency(&ctx);
    const std::string where =
        "page " + std::to_string(first_data) + ": compact-replica: " + what;
    for (const Status& st : {query, check}) {
      EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
      EXPECT_NE(st.message().find(where), std::string::npos) << st.ToString();
    }
  };

  // The large replica's root is a BA internal node whose count and first
  // child are one-byte varints: kind at kRoot, count at kRoot + 1, first
  // child at kRoot + 2, then the first box strip's header byte, u64 base
  // and payload at kStrip.
  constexpr uint32_t kRoot = replica::kDataHeaderBytes;
  constexpr uint32_t kStrip = kRoot + 3;
  auto ba_root = [](Page* p) {
    EXPECT_EQ(p->ReadAt<uint8_t>(kRoot), replica::kNodeBaInternal);
    EXPECT_LT(p->ReadAt<uint8_t>(kRoot + 1), 0x80);
    EXPECT_EQ(p->ReadAt<uint8_t>(kRoot + 2), 1);  // first child: ordinal 1
  };
  // Strip width 9.
  run_case("strip wider than 8 bytes", live, [&](Page* p, uint64_t, uint64_t) {
    ba_root(p);
    const uint8_t h = p->ReadAt<uint8_t>(kStrip);
    p->WriteAt<uint8_t>(kStrip, (h & ~replica::kStripWidthMask) | 9);
  });
  // A dictionary strip whose first token is the dictionary's size.
  run_case("dictionary token out of range", live,
           [&](Page* p, uint64_t, uint64_t key_dict_count) {
             ba_root(p);
             ASSERT_GT(key_dict_count, 0u);
             const uint8_t h = p->ReadAt<uint8_t>(kStrip);
             p->WriteAt<uint8_t>(kStrip, h | replica::kStripDictBit);
             p->WriteAt<uint64_t>(kStrip + 1, key_dict_count);
             for (uint32_t b = 0; b < (h & replica::kStripWidthMask); ++b) {
               p->WriteAt<uint8_t>(kStrip + 9 + b, 0);
             }
           });
  // The one-node replica's count varint continues past the payload end.
  run_case("varint overruns the node", tiny, [&](Page* p, uint64_t, uint64_t) {
    EXPECT_EQ(p->ReadAt<uint8_t>(kRoot), replica::kNodeBaLeaf);
    p->WriteAt<uint8_t>(kRoot + 1, p->ReadAt<uint8_t>(kRoot + 1) | 0x80);
    p->WriteAt<uint32_t>(replica::kDataPayloadLen, 2);
  });
  // Entry count 1025 on a 1024-byte page.
  run_case("node entry count out of range", live,
           [&](Page* p, uint64_t, uint64_t) {
             ba_root(p);
             p->WriteAt<uint8_t>(kRoot + 1, 0x81);
             p->WriteAt<uint8_t>(kRoot + 2, 0x08);
           });
  // First child at node_count.
  run_case("child or spill ordinal outside", live,
           [&](Page* p, uint64_t node_count, uint64_t) {
             ba_root(p);
             std::vector<uint8_t> v;
             replica::AppendVarint(&v, node_count);
             p->WriteBytes(kRoot + 2, v.data(),
                           static_cast<uint32_t>(v.size()));
           });
  // First child is the root itself.
  run_case("child or spill ordinal outside", live,
           [&](Page* p, uint64_t, uint64_t) {
             ba_root(p);
             p->WriteAt<uint8_t>(kRoot + 2, 0);
           });
}

// Directory offsets under a valid meta crc: one past the data page fails
// Open() from the metadata alone, before any data page is read; one inside
// the page but past its payload opens, and CheckConsistency reports it.
TEST(ReplicaTest, RejectsOutOfRangeDirectoryOffsets) {
  MemPageFile file(1024);
  BufferPool pool(&file, 4096);
  PackedBaTree<double> live(&pool, 2);
  ASSERT_TRUE(live.BulkLoad(MakeEntries(2, 500, false, 24)).ok());
  ReplicaBuilder<double> builder(&pool);
  PageId root = kInvalidPageId;
  ASSERT_TRUE(builder.Build(live, &root).ok());
  PageGuard hdr;
  ASSERT_TRUE(pool.Fetch(root, &hdr).ok());
  const uint64_t meta_pages =
      hdr.page()->ReadAt<uint64_t>(replica::kHdrMetaPageCount);
  const uint64_t data_pages =
      hdr.page()->ReadAt<uint64_t>(replica::kHdrDataPageCount);
  const PageId meta = hdr.page()->ReadAt<uint64_t>(replica::kHdrFirstMeta);
  hdr.Release();
  // The meta payload lists the data pages, then the directory.
  const uint32_t dir0 =
      replica::kMetaHeaderBytes + static_cast<uint32_t>(data_pages) * 8;
  auto set_offset = [&](uint32_t off) {
    PageGuard g;
    ASSERT_TRUE(pool.Fetch(meta, &g).ok());
    Page* p = g.page();
    const uint32_t len = p->ReadAt<uint32_t>(replica::kMetaPayloadLen);
    ASSERT_LE(dir0 + 8, replica::kMetaHeaderBytes + len);
    const uint64_t de = p->ReadAt<uint64_t>(dir0);
    p->WriteAt<uint64_t>(dir0, (de & ~uint64_t{0xffffffff}) | off);
    p->WriteAt<uint32_t>(
        replica::kMetaCrc,
        simd::Crc32c(p->data() + replica::kMetaHeaderBytes, len));
    g.MarkDirty();
  };

  set_offset(0xfffff000u);
  CompactReplica<double> rep(&pool, 2, root);
  const uint64_t reads_before = pool.stats().logical_reads;
  const Status open = rep.Open();
  EXPECT_EQ(open.code(), Status::Code::kCorruption) << open.ToString();
  EXPECT_EQ(pool.stats().logical_reads - reads_before, 1 + meta_pages);
  CheckContext ctx;
  EXPECT_EQ(rep.CheckConsistency(&ctx).code(), Status::Code::kCorruption);

  {
    PageGuard g;
    ASSERT_TRUE(pool.Fetch(meta, &g).ok());
    const uint32_t page_index =
        static_cast<uint32_t>(g.page()->ReadAt<uint64_t>(dir0) >> 32);
    PageGuard d;
    ASSERT_TRUE(pool.Fetch(g.page()->ReadAt<uint64_t>(
                               replica::kMetaHeaderBytes + page_index * 8),
                           &d)
                    .ok());
    ASSERT_LT(replica::kDataHeaderBytes +
                  d.page()->ReadAt<uint32_t>(replica::kDataPayloadLen),
              1023u);  // the payload ends before the page's last byte
  }
  set_offset(1023);
  CompactReplica<double> rep2(&pool, 2, root);
  ASSERT_TRUE(rep2.Open().ok());
  CheckContext ctx2;
  const Status check = rep2.CheckConsistency(&ctx2);
  EXPECT_EQ(check.code(), Status::Code::kCorruption);
  EXPECT_NE(check.ToString().find("directory offset outside the payload"),
            std::string::npos)
      << check.ToString();
  // The offset opens, but a query through it stops at the fetched page's
  // payload end instead of decoding past it.
  double out = 0;
  const Status query = rep2.DominanceSum(Point(0.5, 0.5), &out);
  EXPECT_EQ(query.code(), Status::Code::kCorruption) << query.ToString();
}

// A replica is opened before use: without Open() every query and the page
// count refuse, and not one page is fetched.
TEST(ReplicaTest, UnopenedReplicaRefusesAndReadsNoPage) {
  MemPageFile file(1024);
  BufferPool pool(&file, 4096);
  PackedBaTree<double> live(&pool, 2);
  ASSERT_TRUE(live.BulkLoad(MakeEntries(2, 500, false, 23)).ok());
  ReplicaBuilder<double> builder(&pool);
  PageId root = kInvalidPageId;
  ASSERT_TRUE(builder.Build(live, &root).ok());

  CompactReplica<double> rep(&pool, 2, root);
  const uint64_t reads_before = pool.stats().logical_reads;
  const Point qs[2] = {Point(0.5, 0.5), Point(1.0, 1.0)};
  double outs[2] = {1.0, 1.0};
  EXPECT_FALSE(rep.DominanceSumBatch(qs, 2, outs).ok());
  EXPECT_EQ(outs[0], 0.0);
  EXPECT_EQ(outs[1], 0.0);
  EXPECT_FALSE(rep.DominanceSum(qs[0], &outs[0]).ok());
  uint64_t pages = 7;
  EXPECT_FALSE(rep.PageCount(&pages).ok());
  EXPECT_EQ(pages, 0u);
  EXPECT_FALSE(rep.Destroy().ok());
  EXPECT_EQ(pool.stats().logical_reads, reads_before);

  // Opened, the same handle answers and counts its pages.
  ASSERT_TRUE(rep.Open().ok());
  ASSERT_TRUE(rep.DominanceSumBatch(qs, 2, outs).ok());
  double want = 0;
  ASSERT_TRUE(live.DominanceSum(qs[1], &want).ok());
  EXPECT_EQ(outs[1], want);
  ASSERT_TRUE(rep.PageCount(&pages).ok());
  EXPECT_GT(pages, 1u);
}

// fsck sniffs the root page class and routes replica roots through
// CompactReplica::CheckConsistency — end-to-end over a real .bag file.
TEST(ReplicaTest, FsckRecognizesAndChecksReplicaRoots) {
  constexpr uint32_t kPageSize = 4096;
  constexpr uint64_t kSlotSize = kPageSize + kPageHeaderSize;
  const std::string path = ::testing::TempDir() + "replica_fsck.bag";
  PageId root_phys = kInvalidPageId;
  {
    std::unique_ptr<FilePageFile> file;
    ASSERT_TRUE(
        FilePageFile::Open(path, kPageSize, /*truncate=*/true, &file).ok());
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
    ReplicaBuilder<double> builder(&pool);
    std::vector<PageId> roots;
    for (uint32_t s = 0; s < sums.index_count(); ++s) {
      PageId root = kInvalidPageId;
      ASSERT_TRUE(builder.Build(sums.index(s), &root).ok());
      roots.push_back(root);
    }
    ASSERT_TRUE(sums.Destroy().ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(bag->Commit(roots).ok());
    root_phys = bag->MapEntry(roots[0]).physical;
    ASSERT_TRUE(file->Close().ok());
  }

  FsckOptions options;
  options.page_size = kPageSize;
  FsckReport report;
  Status clean = FsckIndexFile(path, options, &report);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
  EXPECT_TRUE(report.root_errors.empty());
  EXPECT_GT(report.visited_pages, 4u);

  // Smash bytes inside the first replica header's payload on disk.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(root_phys * kSlotSize +
                                        kPageHeaderSize + 16));
    for (int i = 0; i < 8; ++i) f.put('\xff');
    ASSERT_TRUE(f.good());
  }
  Status corrupt = FsckIndexFile(path, options, &report);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.code(), Status::Code::kCorruption) << corrupt.ToString();
  EXPECT_EQ(report.root_errors.size(), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The replica descent is a LINT:hot-path region: after warm-up, a QueryBatch
// over replicas performs ZERO heap allocations.

TEST(ReplicaTest, WarmBatchMakesNoHeapAllocations) {
  MemPageFile file(4096);
  BufferPool pool(&file, 4096);
  workload::RectConfig rc;
  rc.n = 3000;
  rc.seed = 13;
  const auto objects = workload::UniformRects(rc);
  const auto queries = workload::QueryBoxes(64, 0.0001, 14);

  std::vector<PageId> roots;
  {
    BoxSumIndex<PackedBaTree<double>> live(
        2, [&] { return PackedBaTree<double>(&pool, 2); });
    ASSERT_TRUE(live.BulkLoad(objects).ok());
    ReplicaBuilder<double> builder(&pool);
    for (uint32_t s = 0; s < live.index_count(); ++s) {
      PageId root = kInvalidPageId;
      ASSERT_TRUE(builder.Build(live.index(s), &root).ok());
      roots.push_back(root);
    }
    ASSERT_TRUE(live.Destroy().ok());
  }
  uint32_t next = 0;
  BoxSumIndex<CompactReplica<double>> index(
      2, [&] { return CompactReplica<double>(&pool, 2, roots[next++]); });
  for (uint32_t s = 0; s < index.index_count(); ++s) {
    ASSERT_TRUE(index.index(s).Open().ok());
  }
  std::vector<double> out(queries.size());
  // Warm-up: grows the arena to the batch's high-water mark and faults every
  // page the queries touch into the buffer pool.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        index.QueryBatch(queries.data(), queries.size(), out.data()).ok());
  }
  const std::vector<double> expected = out;
  // Measured region: nothing but the queries themselves (even a passing
  // gtest assertion is kept outside it).
  const uint64_t before = testutil::HeapAllocations();
  bool all_ok = true;
  for (int round = 0; round < 5; ++round) {
    all_ok &=
        index.QueryBatch(queries.data(), queries.size(), out.data()).ok();
  }
  const uint64_t after = testutil::HeapAllocations();
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(after - before, 0u) << "heap allocations on warm QueryBatch";
  EXPECT_EQ(out, expected);  // and the answers did not drift
}

}  // namespace
}  // namespace boxagg
