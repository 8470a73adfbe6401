// Raw-speed descent path: kernel microbenchmarks (active SIMD backend vs the
// always-compiled scalar reference, each side the median of five timed runs)
// and warm-pool batched descent throughput per corner-transform backend —
// all measured in ONE run, so every emitted speedup compares
// binaries-identical inputs.
//
// Correctness is asserted inline, benchmark-style: every batched descent is
// byte-compared against sequential Query calls and every kernel sample
// against its scalar reference. Any violation exits 1.
//
// Output: stderr carries the human-readable table; stdout carries one
// "JSON "-prefixed line per measurement and one
// "BASELINE backend=<tree> logical_per_round=<n>" line per warm-batch
// record, which the descent_io_small ctest (and descent_io_small_obs, with
// BOXAGG_OBS=1) diffs against bench/baselines/descent_io_small.txt. The
// JSON lines are also written to $BOXAGG_BENCH_DIR/BENCH_descent.json
// (BOXAGG_BENCH_DIR defaults to "."), one object per line, which
// tools/perf_gate.py compares with results/BENCH_descent.json.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "bench/suite.h"
#include "core/box_sum_index.h"
#include "ecdf/ecdf_btree.h"
#include "simd/simd.h"

using namespace boxagg;
using namespace boxagg::bench;

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Kernel microbenchmarks: active backend vs scalar reference, verified equal
// on every sample while timing. Each side is timed as the median of
// kRepeats runs, so one descheduled run cannot move the recorded speedup.

constexpr int kRepeats = 5;

template <class Body>
double MedianMillis(Body&& body) {
  std::array<double, kRepeats> ms;
  for (double& m : ms) {
    const auto t0 = Clock::now();
    body();
    m = MillisSince(t0);
  }
  std::sort(ms.begin(), ms.end());
  return ms[kRepeats / 2];
}

void EmitKernel(const Config& cfg, JsonSink* sink, const char* kernel,
                const char* backend, size_t reps, double ref_ms,
                double act_ms) {
  obs::LogInfo("  %-18s scalar=%.2fms %s=%.2fms speedup=%.2fx", kernel,
               ref_ms, backend, act_ms, ref_ms / act_ms);
  sink->Emit(Fmt("{\"bench\":\"descent\",\"kernel\":\"%s\","
                 "\"backend\":\"%s\",\"reps\":%zu,\"scalar_ms\":%.3f,"
                 "\"simd_ms\":%.3f,\"speedup\":%.3f,%s}",
                 kernel, backend, reps, ref_ms, act_ms, ref_ms / act_ms,
                 JsonRunMeta(cfg).c_str()));
}

void BenchKernels(const Config& cfg, JsonSink* sink, bool* ok) {
  std::mt19937 rng(cfg.seed);
  std::uniform_real_distribution<double> u(0, 1000);
  const size_t reps = 200000;

  // FirstGreater over a node-sized sorted key strip.
  {
    std::vector<double> keys(256);
    for (double& k : keys) k = u(rng);
    std::sort(keys.begin(), keys.end());
    std::vector<double> probes(1024);
    for (double& p : probes) p = u(rng);
    uint64_t sink_ref = 0, sink_act = 0;
    const double ref_ms = MedianMillis([&] {
      for (size_t r = 0; r < reps; ++r) {
        sink_ref += simd::ref::FirstGreater(keys.data(), 256,
                                            probes[r % probes.size()]);
      }
    });
    const double act_ms = MedianMillis([&] {
      for (size_t r = 0; r < reps; ++r) {
        sink_act +=
            simd::FirstGreater(keys.data(), 256, probes[r % probes.size()]);
      }
    });
    if (sink_ref != sink_act) {
      std::fprintf(stderr, "FirstGreater diverges from scalar reference\n");
      *ok = false;
    }
    EmitKernel(cfg, sink, "first_greater", simd::kBackend, reps, ref_ms,
               act_ms);
  }

  // UnpackFixedWidth over strips of every vector width (the compact
  // replica's column decode); the base changes per call so no call can be
  // hoisted out of the timed loop.
  {
    constexpr uint32_t kCount = 256;
    constexpr std::array<uint32_t, 4> kWidths = {1, 2, 4, 8};
    const size_t unpack_reps = 20000;
    std::vector<uint8_t> src(size_t{kCount} * 8);
    for (uint8_t& b : src) b = static_cast<uint8_t>(rng());
    std::vector<uint64_t> out_ref(kCount), out_act(kCount);
    for (uint32_t w : kWidths) {
      simd::ref::UnpackFixedWidth(src.data(), kCount, w, 12345,
                                  out_ref.data());
      simd::UnpackFixedWidth(src.data(), kCount, w, 12345, out_act.data());
      if (out_ref != out_act) {
        std::fprintf(stderr,
                     "UnpackFixedWidth diverges from scalar reference "
                     "(width %u)\n",
                     w);
        *ok = false;
      }
    }
    uint64_t sink_ref = 0, sink_act = 0;
    const double ref_ms = MedianMillis([&] {
      for (size_t r = 0; r < unpack_reps; ++r) {
        simd::ref::UnpackFixedWidth(src.data(), kCount, kWidths[r % 4], r,
                                    out_ref.data());
        sink_ref += out_ref[r % kCount];
      }
    });
    const double act_ms = MedianMillis([&] {
      for (size_t r = 0; r < unpack_reps; ++r) {
        simd::UnpackFixedWidth(src.data(), kCount, kWidths[r % 4], r,
                               out_act.data());
        sink_act += out_act[r % kCount];
      }
    });
    if (sink_ref != sink_act) {
      std::fprintf(stderr, "UnpackFixedWidth diverges from scalar reference\n");
      *ok = false;
    }
    EmitKernel(cfg, sink, "unpack_fixed_width", simd::kBackend, unpack_reps,
               ref_ms, act_ms);
  }

  // Crc32c over 8 KiB page payloads (the DecodePageSlot verification).
  {
    const size_t kBytes = 8192, kBuffers = 64, crc_reps = 2000;
    std::vector<uint8_t> bufs(kBytes * kBuffers);
    for (uint8_t& b : bufs) b = static_cast<uint8_t>(rng());
    for (size_t i = 0; i < kBuffers; ++i) {
      const uint8_t* b = bufs.data() + i * kBytes;
      if (simd::Crc32c(b, kBytes) != simd::ref::Crc32c(b, kBytes)) {
        std::fprintf(stderr, "Crc32c diverges from scalar reference\n");
        *ok = false;
      }
    }
    uint64_t sink_ref = 0, sink_act = 0;
    const double ref_ms = MedianMillis([&] {
      for (size_t r = 0; r < crc_reps; ++r) {
        sink_ref += simd::ref::Crc32c(
            bufs.data() + (r % kBuffers) * kBytes, kBytes);
      }
    });
    const double act_ms = MedianMillis([&] {
      for (size_t r = 0; r < crc_reps; ++r) {
        sink_act +=
            simd::Crc32c(bufs.data() + (r % kBuffers) * kBytes, kBytes);
      }
    });
    if (sink_ref != sink_act) {
      std::fprintf(stderr, "Crc32c diverges from scalar reference\n");
      *ok = false;
    }
    EmitKernel(cfg, sink, "crc32c", simd::kCrc32cBackend, crc_reps, ref_ms,
               act_ms);
  }
}

// ---------------------------------------------------------------------------
// Warm-pool batched descent throughput per backend, byte-checked against
// sequential Query calls.

template <class Index>
void BenchDescent(const char* name, const Config& cfg, Storage* storage,
                  BoxSumIndex<Index>* index, const std::vector<Box>& queries,
                  JsonSink* sink, bool* ok) {
  const size_t nq = queries.size();
  std::vector<double> oracle(nq), results(nq);
  for (size_t i = 0; i < nq; ++i) {
    DieIf(index->Query(queries[i], &oracle[i]), "sequential query");
  }
  // Warm-up: pool resident, arena grown to the batch high-water mark.
  DieIf(index->QueryBatch(queries.data(), nq, results.data()), "warm-up");
  if (std::memcmp(results.data(), oracle.data(), nq * sizeof(double)) != 0) {
    std::fprintf(stderr, "%s: batch diverges from sequential queries\n",
                 name);
    *ok = false;
  }
  const int rounds = 20;
  const IoStats before = storage->pool()->stats();
  auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    DieIf(index->QueryBatch(queries.data(), nq, results.data()),
          "warm batch");
  }
  const double wall = MillisSince(t0);
  const IoStats d = storage->pool()->stats().Since(before);
  const double qps = 1e3 * static_cast<double>(nq) * rounds / wall;
  obs::LogInfo("  %-6s warm batch: %zu queries x%d rounds  wall=%.2fms  "
               "%.0f q/s  logical/round=%llu",
               name, nq, rounds, wall, qps,
               static_cast<unsigned long long>(d.logical_reads / rounds));
  sink->Emit(Fmt("{\"bench\":\"descent\",\"phase\":\"warm_batch\","
                 "\"backend_tree\":\"%s\",\"simd\":\"%s\",\"n\":%zu,"
                 "\"queries\":%zu,\"rounds\":%d,\"wall_ms\":%.3f,"
                 "\"queries_per_sec\":%.1f,\"logical_per_round\":%llu,%s}",
                 name, simd::kBackend, cfg.n, nq, rounds, wall, qps,
                 static_cast<unsigned long long>(d.logical_reads / rounds),
                 JsonRunMeta(cfg).c_str()));
  std::printf("BASELINE backend=%s logical_per_round=%llu\n", name,
              static_cast<unsigned long long>(d.logical_reads / rounds));
}

}  // namespace

int main() {
  Config cfg = Config::FromEnv();
  cfg.Log("Raw-speed descent: SIMD kernels, warm batched descent");
  obs::LogInfo("simd backend: %s, crc32c: %s", simd::kBackend,
               simd::kCrc32cBackend);

  bool ok = true;
  JsonSink descent_sink("BENCH_descent.json");

  BenchKernels(cfg, &descent_sink, &ok);

  workload::RectConfig rc;
  rc.n = cfg.n;
  rc.seed = cfg.seed;
  auto objects = workload::UniformRects(rc);
  auto queries = workload::QueryBoxes(std::min<size_t>(cfg.queries, 256),
                                      0.0001, cfg.seed + 7);
  {
    Storage storage(cfg, "descent_ecdfu");
    BoxSumIndex<EcdfBTree<double>> index(2, [&] {
      return EcdfBTree<double>(storage.pool(), 2,
                               EcdfVariant::kUpdateOptimized);
    });
    DieIf(index.BulkLoad(objects), "ECDFu bulk load");
    BenchDescent("ecdfu", cfg, &storage, &index, queries, &descent_sink, &ok);
  }
  {
    Storage storage(cfg, "descent_ecdfq");
    BoxSumIndex<EcdfBTree<double>> index(2, [&] {
      return EcdfBTree<double>(storage.pool(), 2,
                               EcdfVariant::kQueryOptimized);
    });
    DieIf(index.BulkLoad(objects), "ECDFq bulk load");
    BenchDescent("ecdfq", cfg, &storage, &index, queries, &descent_sink, &ok);
  }
  {
    Storage storage(cfg, "descent_bat");
    BoxSumIndex<PackedBaTree<double>> index(
        2, [&] { return PackedBaTree<double>(storage.pool(), 2); });
    DieIf(index.BulkLoad(objects), "BA-tree bulk load");
    BenchDescent("bat", cfg, &storage, &index, queries, &descent_sink, &ok);
  }

  return ok ? 0 : 1;
}
