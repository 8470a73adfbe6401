// boxagg_perfbench: runs one workload of the benchmark and prints its
// metrics. Human-readable lines go to stderr; the last line of stdout is
//   {"correct": .., "attempted": .., "failed": .., "end_to_end": {..},
//    "per_layer": {..}}
// A per-layer metric of a layer the workload does not reach is absent.
// perfbench/run.py turns this into the result object BENCHMARK.json names.
//
//   boxagg_perfbench --workload warm_batch --seed 1 --seconds 10 --trace 0
//       [--scale full|tiny] [--workdir DIR] [--inject-wrong]
//
// Exit status is 0 only when every answer checked out and every identity
// and determinism check held.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: boxagg_perfbench --workload "
               "warm_batch|cold_file|update_mix|functional --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] [--workdir DIR] "
               "[--inject-wrong]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--scale") {
      const std::string s = value();
      if (s != "full" && s != "tiny") Usage("--scale must be full or tiny");
      o.tiny = s == "tiny";
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--inject-wrong") {
      o.inject_wrong = true;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(o.seconds > 0 && o.seconds <= 600)) Usage("--seconds out of range");
  return o;
}

/// Prints `metrics` to stderr and returns them as a JSON object body. JSON
/// has no NaN or infinity: a non-finite value is an error and prints as 0.
std::string Emit(const std::vector<Report::Metric>& metrics, Report* r) {
  std::string json;
  for (const Report::Metric& m : metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      r->Error("non-finite value for " + m.name);
      v = 0;
    }
    std::fprintf(stderr, "  %-42s %16.6g %s\n", m.name.c_str(), v,
                 m.unit.c_str());
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    json += buf;
  }
  return json;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = Parse(argc, argv);
  // A fixed mmap threshold: large buffers are always mapped and unmapped
  // whole, so peak_rss_mb does not depend on glibc's adaptive threshold and
  // on where earlier frees left the heap.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Report r;
  if (o.workload == "warm_batch") {
    RunWarmBatch(o, &r);
  } else if (o.workload == "cold_file") {
    RunColdFile(o, &r);
  } else if (o.workload == "update_mix") {
    RunUpdateMix(o, &r);
  } else if (o.workload == "functional") {
    RunFunctional(o, &r);
  } else {
    Usage(("unknown workload " + o.workload).c_str());
  }
  r.E2e("peak_rss_mb", PeakRssMb(), "MB");
  r.PerLayer("check.failed_frac",
             Ratio(static_cast<double>(r.failed),
                   static_cast<double>(r.attempted)),
             "fraction");

  std::fprintf(stderr, "%s seed=%llu seconds=%g trace=%d scale=%s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0, o.tiny ? "tiny" : "full");
  std::fprintf(stderr, "end-to-end:\n");
  const std::string e2e = Emit(r.e2e, &r);
  std::fprintf(stderr, "per-layer:\n");
  const std::string layer = Emit(r.layer, &r);
  if (r.attempted == 0) r.Error("no operation was attempted");
  const bool correct = r.errors.empty() && r.failed == 0;
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"end_to_end\": {%s}, \"per_layer\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), e2e.c_str(),
              layer.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
