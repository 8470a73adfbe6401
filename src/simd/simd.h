// SIMD kernels for the descent and page-verification hot paths.
//
// The wrapper keeps only the kernels whose vector or instruction backend
// measurably beats its scalar reference (bench_descent_speed records each
// ratio). Each has a scalar reference implementation (`simd::ref`) that is
// always compiled and one active implementation selected at build time:
//
//   FirstGreater        in-node key search (leaf cutoff + internal routing)
//   UnpackFixedWidth    fixed-width integer strip decode (compact replicas)
//   Crc32c              CRC32C (Castagnoli) over page slots and replica pages
//
// AccumulateSigned, the corner inclusion-exclusion step, is one plain
// multiply-then-add loop. The descent's dominance and half-open membership
// tests are geom's Point::Dominates and Box::ContainsPointHalfOpen.
//
// Backend selection: the default build compiles only the scalar path, so
// TSan/ASan/clang-tidy CI and any non-x86 box behave exactly as before.
// Configuring with -DBOXAGG_NATIVE=ON defines BOXAGG_NATIVE and adds
// -march=native -ffp-contract=off; the wrapper then picks AVX2 for
// FirstGreater and UnpackFixedWidth, and the SSE4.2 `crc32` instruction for
// Crc32c, when the compiler advertises them. Every other target (ARM
// included) runs the `simd::ref` kernels.
//
// Bit-identity contract (enforced by tests/simd_test.cpp, and for
// UnpackFixedWidth by tests/replica_test.cpp): every kernel here produces
// *identical* results to its scalar reference on every input the trees can
// present, including NaN, +/-inf and -0.0:
//
//   * FirstGreater requires keys sorted ascending (a B-tree node invariant;
//     the seed code already binary-searched the same array) — on sorted input
//     the binary-narrow + vector-scan hybrid returns the same index as a pure
//     scalar search by construction. Its compare is the ordered,
//     non-signaling _CMP_GT_OQ, false on NaN exactly like the scalar `>`.
//   * UnpackFixedWidth is integer zero-extension and wrapping addition, so
//     every width decodes to the same base + LE(src) as the reference.
//   * Crc32c splits a buffer into three lanes of kCrc32cLane bytes and
//     merges them by linearity: over GF(2) the raw CRC register satisfies
//     crc(A || B) = crc(A) * x^(8|B|) mod P  xor  crc(B), with crc(B)
//     started from zero. The merge multiplies by the compile-time constants
//     x^(8*lane) and x^(16*lane) exactly, so the result equals the
//     sequential CRC for every input, not just the tested ones; the `crc32`
//     instruction computes the same Castagnoli register update as the
//     slice-by-8 reference.
//   * AccumulateSigned multiplies then adds, in that order; FMA contraction
//     is disabled (-ffp-contract=off rides along with BOXAGG_NATIVE) so the
//     compiler cannot fuse them.

#ifndef BOXAGG_SIMD_SIMD_H_
#define BOXAGG_SIMD_SIMD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(BOXAGG_NATIVE) && defined(__AVX2__)
#define BOXAGG_SIMD_AVX2 1
#include <immintrin.h>
#endif

#if defined(BOXAGG_NATIVE) && defined(__SSE4_2__)
#define BOXAGG_SIMD_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace boxagg {
namespace simd {

/// Human-readable backend tag, surfaced in BENCH_*.json lines.
inline constexpr const char* kBackend =
#if defined(BOXAGG_SIMD_AVX2)
    "avx2";
#else
    "scalar";
#endif

/// Backend tag of Crc32c, which is selected separately from the vector
/// kernels.
inline constexpr const char* kCrc32cBackend =
#if defined(BOXAGG_SIMD_CRC32C_SSE42)
    "sse4.2";
#else
    "scalar";
#endif

/// Bytes per lane of the three-stream SSE4.2 Crc32c loop. Three lanes keep
/// the `crc32` unit busy (latency 3, one issue per cycle); a block of three
/// 680-byte lanes is 2040 bytes, so a 2, 4 or 8 KiB payload runs as whole
/// blocks plus at most 32 bytes of single-stream tail. The tests sweep every
/// lane and merge edge with it; the scalar backend has no lanes.
inline constexpr size_t kCrc32cLane = 680;

namespace detail {

/// The CRC32C (Castagnoli) polynomial in reflected bit order.
inline constexpr uint32_t kCrc32cPoly = 0x82f63b78u;

// Slice-by-8 CRC32C tables, built once on first use (thread-safe static
// init). Table 0 is the plain byte-at-a-time table; table k folds a byte
// that is k positions deeper into the window.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kCrc32cPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xff] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

inline const Crc32cTables& Crc32cTable() {
  static const Crc32cTables tables;
  return tables;
}

inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Scalar reference kernels. Always compiled; the property tests and the
// kernel microbenchmarks compare the active backend against these.

namespace ref {

/// First index i in the ascending-sorted array with keys[i] > q (n if none).
inline uint32_t FirstGreater(const double* keys, uint32_t n, double q) {
  uint32_t lo = 0, hi = n;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (!(keys[mid] > q)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// out[i] = base + the little-endian `width`-byte unsigned integer at
/// src + i*width, for width in [0, 8]; width 0 means every element equals
/// base and nothing is stored. The replica strip decoder's inner loop.
inline void UnpackFixedWidth(const uint8_t* src, uint32_t count,
                             uint32_t width, uint64_t base, uint64_t* out) {
  if (width == 0) {
    for (uint32_t i = 0; i < count; ++i) out[i] = base;
    return;
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    std::memcpy(&v, src + size_t{i} * width, width);
    out[i] = base + v;
  }
}

/// CRC32C (Castagnoli), slice-by-8. Chainable: pass the previous return
/// value as `crc` to extend a checksum over discontiguous buffers.
inline uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0) {
  const auto& t = detail::Crc32cTable().t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  while (n >= 8) {
    crc ^= detail::LoadLe32(p);
    const uint32_t hi = detail::LoadLe32(p + 4);
    crc = t[7][crc & 0xff] ^ t[6][(crc >> 8) & 0xff] ^
          t[5][(crc >> 16) & 0xff] ^ t[4][crc >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Active backend.

#if defined(BOXAGG_SIMD_AVX2)

namespace detail {

/// Window below which FirstGreater switches from binary narrowing to the
/// vector scan; each scan step covers four keys.
inline constexpr uint32_t kScanWindow = 32;

/// First index i < n with keys[i] > q, scanning forward (n if none).
inline uint32_t ScanGreater(const double* keys, uint32_t n, double q) {
  const __m256d vq = _mm256_set1_pd(q);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d vk = _mm256_loadu_pd(keys + i);
    int mask = _mm256_movemask_pd(_mm256_cmp_pd(vk, vq, _CMP_GT_OQ));
    if (mask != 0) return i + static_cast<uint32_t>(__builtin_ctz(mask));
  }
  for (; i < n; ++i) {
    if (keys[i] > q) break;
  }
  return i;
}

}  // namespace detail

inline uint32_t FirstGreater(const double* keys, uint32_t n, double q) {
  uint32_t lo = 0, hi = n;
  while (hi - lo > detail::kScanWindow) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (!(keys[mid] > q)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + detail::ScanGreater(keys + lo, hi - lo, q);
}

/// Widths 1/2/4 widen four lanes per step with cvtepu*_epi64; width 8 is a
/// vector add. Odd widths (3, 5, 6, 7) fall through to the scalar tail,
/// which computes the identical base + LE(src) sum.
inline void UnpackFixedWidth(const uint8_t* src, uint32_t count,
                             uint32_t width, uint64_t base, uint64_t* out) {
  if (width == 0) {
    for (uint32_t i = 0; i < count; ++i) out[i] = base;
    return;
  }
  const __m256i vb = _mm256_set1_epi64x(static_cast<long long>(base));
  uint32_t i = 0;
  switch (width) {
    case 1:
      for (; i + 4 <= count; i += 4) {
        int32_t raw;
        std::memcpy(&raw, src + i, 4);
        __m256i v = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(raw));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_add_epi64(v, vb));
      }
      break;
    case 2:
      for (; i + 4 <= count; i += 4) {
        __m128i raw = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(src + size_t{i} * 2));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_add_epi64(_mm256_cvtepu16_epi64(raw), vb));
      }
      break;
    case 4:
      for (; i + 4 <= count; i += 4) {
        __m128i raw = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(src + size_t{i} * 4));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_add_epi64(_mm256_cvtepu32_epi64(raw), vb));
      }
      break;
    case 8:
      for (; i + 4 <= count; i += 4) {
        __m256i raw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(src + size_t{i} * 8));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_add_epi64(raw, vb));
      }
      break;
    default:
      break;
  }
  for (; i < count; ++i) {
    uint64_t v = 0;
    std::memcpy(&v, src + size_t{i} * width, width);
    out[i] = base + v;
  }
}

#else  // scalar fallback

inline uint32_t FirstGreater(const double* keys, uint32_t n, double q) {
  return ref::FirstGreater(keys, n, q);
}

inline void UnpackFixedWidth(const uint8_t* src, uint32_t count,
                             uint32_t width, uint64_t base, uint64_t* out) {
  ref::UnpackFixedWidth(src, count, width, base, out);
}

#endif

#if defined(BOXAGG_SIMD_CRC32C_SSE42)

namespace detail {

/// p * x mod P, in the CRC register's reflected bit order (bit 31 holds
/// x^0, bit 0 holds x^31).
constexpr uint32_t Crc32cMulX(uint32_t p) {
  return (p >> 1) ^ (kCrc32cPoly & (0u - (p & 1)));
}

/// Multiplication by x^(8 * bytes) mod P, the factor that carries a raw CRC
/// register across `bytes` bytes of data, as 32 rows: rows[i] is
/// x^(8 * bytes + i) mod P, the product's share of the multiplicand's x^i
/// coefficient.
constexpr std::array<uint32_t, 32> Crc32cShiftRows(size_t bytes) {
  uint32_t p = 0x80000000u;  // x^0
  for (size_t i = 0; i < 8 * bytes; ++i) p = Crc32cMulX(p);
  std::array<uint32_t, 32> rows{};
  for (uint32_t& row : rows) {
    row = p;
    p = Crc32cMulX(p);
  }
  return rows;
}

inline constexpr std::array<uint32_t, 32> kCrc32cShiftLane =
    Crc32cShiftRows(kCrc32cLane);
inline constexpr std::array<uint32_t, 32> kCrc32cShift2Lanes =
    Crc32cShiftRows(2 * kCrc32cLane);

/// Carry-less a * x^(8 * bytes) mod P in 32 shift-and-xor steps over the
/// rows of Crc32cShiftRows(bytes). The steps are independent, so they
/// overlap, and no carry-less multiply instruction is needed.
inline uint32_t Crc32cShift(uint32_t a, const std::array<uint32_t, 32>& rows) {
  uint32_t p = 0;
  for (int i = 0; i < 32; ++i) p ^= rows[i] & (0u - ((a >> (31 - i)) & 1));
  return p;
}

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace detail

/// Three independent `crc32` streams over consecutive lanes, merged by the
/// compile-time lane shifts; the remainder runs as one stream, then
/// bytewise.
inline uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0) {
  constexpr size_t kLane = kCrc32cLane;
  static_assert(kLane % 8 == 0, "lanes advance in 8-byte crc32 steps");
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c0 = ~crc;
  while (n >= 3 * kLane) {
    uint64_t c1 = 0, c2 = 0;
    for (size_t i = 0; i < kLane; i += 8) {
      c0 = _mm_crc32_u64(c0, detail::LoadLe64(p + i));
      c1 = _mm_crc32_u64(c1, detail::LoadLe64(p + kLane + i));
      c2 = _mm_crc32_u64(c2, detail::LoadLe64(p + 2 * kLane + i));
    }
    c0 = detail::Crc32cShift(static_cast<uint32_t>(c0),
                             detail::kCrc32cShift2Lanes) ^
         detail::Crc32cShift(static_cast<uint32_t>(c1),
                             detail::kCrc32cShiftLane) ^
         c2;
    p += 3 * kLane;
    n -= 3 * kLane;
  }
  for (; n >= 8; n -= 8, p += 8) c0 = _mm_crc32_u64(c0, detail::LoadLe64(p));
  uint32_t c = static_cast<uint32_t>(c0);
  for (; n > 0; --n) c = _mm_crc32_u8(c, *p++);
  return ~c;
}

#else

inline uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0) {
  return ref::Crc32c(data, n, crc);
}

#endif

/// out[i] += sign * parts[probe_of[i]] — the corner accumulation step.
inline void AccumulateSigned(double* out, const double* parts,
                             const uint32_t* probe_of, double sign,
                             size_t count) {
  for (size_t i = 0; i < count; ++i) {
    out[i] += sign * parts[probe_of[i]];
  }
}

}  // namespace simd
}  // namespace boxagg

#endif  // BOXAGG_SIMD_SIMD_H_
