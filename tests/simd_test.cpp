// Property tests for the SIMD kernels (src/simd/simd.h).
//
// The active backend (scalar, AVX2 or SSE4.2 CRC — whatever this build
// selected) must be *bit-identical* to the always-compiled scalar reference
// on every input class the trees and pages can present: random sorted key
// arrays, duplicate runs, +/-inf, -0.0, and CRC buffers of every length and
// alignment around the lane edges (UnpackFixedWidth is swept per width in
// replica_test). The same binary passes under
// the default scalar build and under -DBOXAGG_NATIVE=ON; CI runs both, which
// is what turns these properties into the cross-backend equivalence proof.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "core/box_sum_index.h"
#include "simd/simd.h"
#include "storage/buffer_pool.h"

namespace boxagg {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double RandomSpecial(std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-100, 100);
  switch (rng() % 8) {
    case 0:
      return kInf;
    case 1:
      return -kInf;
    case 2:
      return -0.0;
    case 3:
      return 0.0;
    default:
      return u(rng);
  }
}

TEST(SimdTest, BackendIsKnown) {
  const std::string b = simd::kBackend;
  EXPECT_TRUE(b == "scalar" || b == "avx2") << b;
#if defined(BOXAGG_NATIVE) && defined(__AVX2__)
  EXPECT_EQ(b, "avx2");
#endif
  const std::string crc = simd::kCrc32cBackend;
  EXPECT_TRUE(crc == "scalar" || crc == "sse4.2") << crc;
#if defined(BOXAGG_NATIVE) && defined(__SSE4_2__)
  EXPECT_EQ(crc, "sse4.2");
#endif
}

TEST(SimdTest, FirstGreaterMatchesRefOnRandomSortedArrays) {
  std::mt19937 rng(101);
  std::uniform_int_distribution<int> len(0, 200);
  for (int iter = 0; iter < 500; ++iter) {
    const int n = len(rng);
    std::vector<double> keys(static_cast<size_t>(n));
    for (double& k : keys) k = RandomSpecial(rng);
    // Duplicate runs are common in real nodes; inject some, then sort.
    if (n > 4 && rng() % 2 == 0) keys[1] = keys[3] = keys[0];
    std::sort(keys.begin(), keys.end());
    // Probe with member values, neighbors of members, and specials.
    std::vector<double> probes = {kInf, -kInf, 0.0, -0.0};
    for (int p = 0; p < 16 && n > 0; ++p) {
      double k = keys[rng() % static_cast<size_t>(n)];
      probes.push_back(k);
      probes.push_back(std::nextafter(k, kInf));
      probes.push_back(std::nextafter(k, -kInf));
    }
    for (double q : probes) {
      EXPECT_EQ(
          simd::FirstGreater(keys.data(), static_cast<uint32_t>(n), q),
          simd::ref::FirstGreater(keys.data(), static_cast<uint32_t>(n), q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(SimdTest, FirstGreaterResultIsCorrectByDefinition) {
  // Not just ref-equal: the returned index is the partition point.
  std::mt19937 rng(102);
  for (int iter = 0; iter < 200; ++iter) {
    const uint32_t n = rng() % 100;
    std::vector<double> keys(n);
    for (double& k : keys) k = RandomSpecial(rng);
    std::sort(keys.begin(), keys.end());
    const double q = RandomSpecial(rng);
    const uint32_t i = simd::FirstGreater(keys.data(), n, q);
    ASSERT_LE(i, n);
    for (uint32_t j = 0; j < i; ++j) EXPECT_FALSE(keys[j] > q);
    if (i < n) {
      EXPECT_TRUE(keys[i] > q);
    }
  }
}

// Every lane and merge edge of the three-lane kernel (lengths 0 to
// 3 * lane + 64), every start misalignment of an 8-byte load, and random
// chained seeds; plus the two buffer sizes a page read verifies.
TEST(SimdTest, Crc32cIsBitwiseIdenticalToRef) {
  std::mt19937 rng(107);
  const size_t max_len = 3 * simd::kCrc32cLane + 64;
  std::vector<uint8_t> buf(std::max(max_len, size_t{8224}) + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng());
  for (size_t len = 0; len <= max_len; ++len) {
    for (size_t misalign = 0; misalign < 8; ++misalign) {
      const uint32_t seed = (len + misalign) % 3 == 0 ? 0 : rng();
      const uint8_t* p = buf.data() + misalign;
      ASSERT_EQ(simd::Crc32c(p, len, seed), simd::ref::Crc32c(p, len, seed))
          << "len=" << len << " misalign=" << misalign << " seed=" << seed;
    }
  }
  for (size_t len : {size_t{8192}, size_t{8224}}) {
    for (size_t misalign = 0; misalign < 8; ++misalign) {
      const uint32_t seed = rng();
      const uint8_t* p = buf.data() + misalign;
      EXPECT_EQ(simd::Crc32c(p, len), simd::ref::Crc32c(p, len));
      EXPECT_EQ(simd::Crc32c(p, len, seed), simd::ref::Crc32c(p, len, seed))
          << "len=" << len << " misalign=" << misalign;
    }
  }
}

// End-to-end: with the active backend wired into every descent, a batched
// query must still be bitwise identical to issuing the queries one at a time
// (the batch contract the seed established, now holding per backend).
TEST(SimdTest, BoxSumBatchBitwiseMatchesSequentialQueries) {
  MemPageFile file(1024);
  BufferPool pool(&file, 4096);
  BoxSumIndex<PackedBaTree<double>> index(
      2, [&] { return PackedBaTree<double>(&pool, 2); });
  std::mt19937 rng(106);
  std::uniform_real_distribution<double> uc(0, 100), uw(0, 8), uv(0.1, 5);
  std::vector<BoxObject> objects;
  for (int i = 0; i < 3000; ++i) {
    Point lo(uc(rng), uc(rng));
    Point hi(lo[0] + uw(rng), lo[1] + uw(rng));
    objects.push_back({Box(lo, hi), uv(rng)});
  }
  ASSERT_TRUE(index.BulkLoad(objects).ok());
  std::vector<Box> queries;
  for (int i = 0; i < 128; ++i) {
    Point lo(uc(rng), uc(rng));
    queries.push_back(Box(lo, Point(lo[0] + uw(rng), lo[1] + uw(rng))));
  }
  std::vector<double> batch;
  ASSERT_TRUE(index.QueryBatch(queries, &batch).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    double one = 0;
    ASSERT_TRUE(index.Query(queries[i], &one).ok());
    ASSERT_EQ(0, std::memcmp(&batch[i], &one, sizeof(double))) << i;
  }
}

}  // namespace
}  // namespace boxagg
