// Shared pieces of the benchmark: run options, the metric report, latency
// statistics, deterministic input streams, the naive oracle with its error
// bound, and the count signature every run compares across its set-ups.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/naive.h"
#include "geom/box.h"
#include "obs/query_obs.h"
#include "storage/io_stats.h"
#include "storage/status.h"
#include "workload/generators.h"

namespace perfbench {

using boxagg::Box;
using boxagg::BoxObject;
using boxagg::IoStats;
using boxagg::Point;
using boxagg::Status;

/// Command-line options of one run (see main.cc for the flags).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;         // self-test scale: small index, short passes
  bool inject_wrong = false;  // corrupt one checked answer (self-test)
  std::string workdir = ".";
};

/// Repeated set-ups per run: setup_s is their median, and the count passes
/// that follow each one must agree exactly.
inline constexpr int kSetups = 3;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Everything one run reports; main.cc prints it.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> errors;  // failed checks: the run is not correct
  uint64_t attempted = 0;
  uint64_t failed = 0;  // operations that errored or answered wrongly

  void E2e(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void PerLayer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
  /// Records a failed check; the first 16 messages are kept.
  void Error(const std::string& what) {
    if (errors.size() < 16) errors.push_back(what);
  }

  /// Records a failed library call: it counts as one failed operation.
  void OpFailed(const Status& s, const char* what) {
    ++failed;
    Error(std::string(what) + ": " + s.ToString());
  }
};

/// splitmix64: derives independent sub-seeds from the run seed.
inline uint64_t Mix(uint64_t seed, uint64_t k) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ull * (k + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Endless stream of query boxes from workload::QueryBoxes, cycling over the
/// given QBS values; every box is a fresh draw, so boxes are distinct.
class BoxStream {
 public:
  BoxStream(uint64_t seed, std::vector<double> qbs) {
    for (size_t i = 0; i < qbs.size(); ++i) {
      sources_.push_back({qbs[i], Mix(seed, 100 + i), 0, {}, 0});
    }
  }

  Box Next() {
    Source& s = sources_[next_++ % sources_.size()];
    if (s.pos == s.buf.size()) {
      s.buf = boxagg::workload::QueryBoxes(kChunk, s.qbs,
                                           Mix(s.seed, s.chunk++));
      s.pos = 0;
    }
    return s.buf[s.pos++];
  }

 private:
  static constexpr size_t kChunk = 4096;
  struct Source {
    double qbs;
    uint64_t seed;
    uint64_t chunk;
    std::vector<Box> buf;
    size_t pos;
  };
  std::vector<Source> sources_;
  size_t next_ = 0;
};

/// Endless stream of new rectangles (the paper's generator) for inserts.
class ObjectStream {
 public:
  explicit ObjectStream(uint64_t seed) : seed_(seed) {}

  BoxObject Next() {
    if (pos_ == buf_.size()) {
      boxagg::workload::RectConfig rc;
      rc.n = 4096;
      rc.seed = Mix(seed_, chunk_++);
      buf_ = boxagg::workload::UniformRects(rc);
      pos_ = 0;
    }
    return buf_[pos_++];
  }

 private:
  uint64_t seed_;
  uint64_t chunk_ = 0;
  std::vector<BoxObject> buf_;
  size_t pos_ = 0;
};

/// The paper's object set: n uniform rectangles, average side 1e-4.
inline std::vector<BoxObject> PaperObjects(size_t n, uint64_t seed) {
  boxagg::workload::RectConfig rc;
  rc.n = n;
  rc.seed = Mix(seed, 0);
  return boxagg::workload::UniformRects(rc);
}

// ---------------------------------------------------------------------------
// Correctness: the naive oracle and the error bound answers are judged by.
//
// An answer is a signed sum of 2^d partial sums (dominance sums for box-sum,
// evaluated coefficient aggregates for functional box-sum), and each partial
// is itself a floating-point sum over up to N indexed objects. The forward
// error of such a sum is at most gamma_N * M, where u is the unit roundoff,
// gamma_N ~ N * u, and M is the sum of the absolute values of every term
// that enters the computation; with rounding errors of random sign it is
// about sqrt(N) * u * M (Higham, Accuracy and Stability of Numerical
// Algorithms, 2nd ed., Secs. 2.8 and 4.2). An answer is correct when
//
//   |answer - oracle| <= kErrorBoundFactor * sqrt(N) * u * M.

inline constexpr double kUnitRoundoff =
    std::numeric_limits<double>::epsilon() / 2;
inline constexpr double kErrorBoundFactor = 4;

/// Oracle answer plus the magnitude M the bound is computed from.
struct Expected {
  double value = 0;
  double magnitude = 0;
};

/// Box-sum oracle: NaiveBoxSum's answer; M sums |p_s| over the 2^d
/// dominance sums of the corner transform plus |v| over intersecting objects.
Expected SimpleOracle(const boxagg::NaiveBoxSum& naive, const Box& q);

/// Accumulates answer checks into max_rel_err / max_err_over_bound / wrong.
struct AnswerCheck {
  uint64_t checked = 0;
  uint64_t wrong = 0;
  double max_rel_err = 0;
  double max_err_over_bound = 0;

  /// `objects` is N, the number of objects indexed when the answer was made.
  void Add(double got, const Expected& e, size_t objects) {
    ++checked;
    const double err = std::fabs(got - e.value);
    const double bound = kErrorBoundFactor *
                         std::sqrt(static_cast<double>(objects)) *
                         kUnitRoundoff * e.magnitude;
    if (!(err <= bound)) ++wrong;  // NaN answers fail too
    if (e.value != 0) {
      max_rel_err = std::max(max_rel_err, err / std::fabs(e.value));
    }
    if (bound > 0) {
      max_err_over_bound = std::max(max_err_over_bound, err / bound);
    }
  }
};

// ---------------------------------------------------------------------------
// Count signature: what a fixed-length pass must reproduce exactly.

struct CountSignature {
  IoStats io{};        // whole pass, including any final flush
  IoStats query_io{};  // summed over query calls only
  IoStats insert_io{};  // summed over insert calls plus the final flush
  boxagg::obs::QueryObsSnapshot obs{};
  uint64_t page_allocs = 0;
  uint64_t queries = 0;  // box answers
  uint64_t inserts = 0;  // objects inserted
  std::vector<double> answers;

  /// Empty when equal, else the first field that differs.
  std::string Diff(const CountSignature& o) const {
    if (std::memcmp(&io, &o.io, sizeof(io)) != 0) return "io";
    if (std::memcmp(&query_io, &o.query_io, sizeof(io)) != 0) return "query_io";
    if (std::memcmp(&insert_io, &o.insert_io, sizeof(io)) != 0) {
      return "insert_io";
    }
    if (std::memcmp(&obs, &o.obs, sizeof(obs)) != 0) return "query_obs";
    if (page_allocs != o.page_allocs) return "page_allocs";
    if (queries != o.queries || inserts != o.inserts) {
      return "op_counts";
    }
    if (answers.size() != o.answers.size() ||
        std::memcmp(answers.data(), o.answers.data(),
                    answers.size() * sizeof(double)) != 0) {
      return "answers";
    }
    return "";
  }
};

/// Set-up timings of one run (median over kSetups).
struct SetupTimes {
  std::vector<double> total_s, bulkload_s, flush_s;
  uint64_t pages = 0;
};

/// Adds the count-derived per-layer metrics of a count pass.
void ReportCounts(const CountSignature& c, Report* r);

/// Adds setup_s, index_bytes_per_object and the build.* metrics.
void ReportSetup(const SetupTimes& t, size_t objects, uint32_t page_size,
                 Report* r);

/// Adds the check.* metrics and counts wrong answers as failed operations.
void ReportCheck(const AnswerCheck& c, Report* r);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
