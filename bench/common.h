// Shared infrastructure for the experiment harness: configuration via
// environment variables, the paper's measurement conventions (Sec. 6), and
// stderr logging for the human-readable tables (stdout stays machine-only).
//
// Every bench binary reproduces one table or figure of the paper. Scale
// defaults to laptop size; the paper's exact setup is reachable with
//   BOXAGG_N=6000000 BOXAGG_QUERIES=1000 BOXAGG_BUFFER_MB=10
//
// Environment knobs:
//   BOXAGG_N          number of objects            (default 200000)
//   BOXAGG_QUERIES    queries per measurement      (default 200)
//   BOXAGG_PAGE_SIZE  page size in bytes           (default 8192, paper)
//   BOXAGG_BUFFER_MB  LRU buffer size in MB        (default 10, paper)
//   BOXAGG_DISK       1 = file-backed PageFile     (default 0, in-memory;
//                     I/O *counts* are identical, only wall time differs)
//   BOXAGG_SEED       workload seed                (default 42)
//   BOXAGG_SHARDS     buffer-pool shards           (default 1, the paper-
//                     fidelity mode; >1 enables concurrent readers)
//   BOXAGG_THREADS    max worker threads for the parallel benches
//                     (default 8)

#ifndef BOXAGG_BENCH_COMMON_H_
#define BOXAGG_BENCH_COMMON_H_

#include <time.h>

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/logger.h"
#include "obs/query_obs.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "tools/parse_number.h"
#include "workload/generators.h"

namespace boxagg {
namespace bench {

/// Reads the BOXAGG_* knob `name` into *out when it is set. A value that
/// is not wholly a non-negative integer that fits ("300x", "-1", "abc")
/// ends the bench with status 2 rather than running a configuration that
/// nobody asked for.
template <class T>
void EnvUnsigned(const char* name, T* out) {
  const char* v = std::getenv(name);
  if (v == nullptr) return;
  if (!ParseUnsigned(v, out)) {
    std::fprintf(stderr, "%s needs a non-negative integer, got '%s'\n", name,
                 v);
    std::exit(2);
  }
}

/// A 0/1-style BOXAGG_* switch: any non-zero integer turns it on.
inline bool EnvFlag(const char* name) {
  unsigned v = 0;
  EnvUnsigned(name, &v);
  return v != 0;
}

/// BOXAGG_OBS=1 installs a process-global query-observation sink
/// (intentionally leaked: observability outlives every benchmark scope).
/// The *_io_small_obs ctests use this to verify that enabled-mode I/O
/// counts are bit-identical to disabled-mode — instrumentation observes,
/// never fetches.
inline void MaybeEnableObsFromEnv() {
  if (!EnvFlag("BOXAGG_OBS")) return;
  static auto* qobs = new obs::QueryObs();
  obs::InstallQueryObs(qobs);
}

struct Config {
  size_t n = 200000;
  size_t queries = 200;
  uint32_t page_size = kDefaultPageSize;
  size_t buffer_mb = 10;
  bool disk = false;
  uint64_t seed = 42;
  size_t shards = 1;
  size_t threads = 8;

  static Config FromEnv() {
    Config c;
    EnvUnsigned("BOXAGG_N", &c.n);
    EnvUnsigned("BOXAGG_QUERIES", &c.queries);
    EnvUnsigned("BOXAGG_PAGE_SIZE", &c.page_size);
    EnvUnsigned("BOXAGG_BUFFER_MB", &c.buffer_mb);
    c.disk = EnvFlag("BOXAGG_DISK");
    EnvUnsigned("BOXAGG_SEED", &c.seed);
    EnvUnsigned("BOXAGG_SHARDS", &c.shards);
    EnvUnsigned("BOXAGG_THREADS", &c.threads);
    MaybeEnableObsFromEnv();
    return c;
  }

  size_t BufferPages() const {
    return BufferPool::CapacityForMegabytes(buffer_mb, page_size);
  }

  /// Banner + knobs to stderr via the logger. Bench stdout is reserved for
  /// machine-readable BASELINE/JSON lines (enforced by tools/lint.sh), so
  /// there is deliberately no stdout variant of this.
  void Log(const char* experiment) const {
    obs::LogInfo("== %s ==", experiment);
    obs::LogInfo(
        "config: n=%zu queries=%zu page=%uB buffer=%zuMB (%zu pages) "
        "backend=%s seed=%llu shards=%zu",
        n, queries, page_size, buffer_mb, BufferPages(),
        disk ? "file" : "memory", static_cast<unsigned long long>(seed),
        shards);
  }
};

#ifndef BOXAGG_GIT_SHA
#define BOXAGG_GIT_SHA "unknown"
#endif
#ifndef BOXAGG_BUILD_TYPE
#define BOXAGG_BUILD_TYPE "unknown"
#endif

/// Run-metadata JSON fragment (no surrounding braces) appended to every
/// bench JSON line, so scraped results carry the build they came from:
///   "meta":{"git_sha":...,"build":...,"page_size":...,...}
inline std::string JsonRunMeta(const Config& cfg) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"meta\":{\"git_sha\":\"%s\",\"build\":\"%s\","
                "\"page_size\":%u,\"buffer_mb\":%zu,\"shards\":%zu}",
                BOXAGG_GIT_SHA, BOXAGG_BUILD_TYPE, cfg.page_size,
                cfg.buffer_mb, cfg.shards);
  return std::string(buf);
}

/// Collects the JSON lines destined for one $BOXAGG_BENCH_DIR/BENCH_*.json
/// file (BOXAGG_BENCH_DIR defaults to "."). Every line is also echoed to
/// stdout with the "JSON " prefix the CI scrapers key on; the file is
/// opened (truncated) at construction and written at destruction, one object
/// per line (jq-friendly). A file that cannot be opened or written ends the
/// bench with status 1, so no gate reads a stale file from an earlier run.
class JsonSink {
 public:
  explicit JsonSink(const char* filename) {
    const char* dir = std::getenv("BOXAGG_BENCH_DIR");
    path_ = std::string(dir != nullptr ? dir : ".") + "/" + filename;
    file_ = std::fopen(path_.c_str(), "w");
    if (file_ == nullptr) Fail();
  }

  JsonSink(const JsonSink&) = delete;
  JsonSink& operator=(const JsonSink&) = delete;

  void Emit(const std::string& line) {
    std::printf("JSON %s\n", line.c_str());
    lines_.push_back(line);
  }

  ~JsonSink() {
    for (const std::string& l : lines_) {
      std::fprintf(file_, "%s\n", l.c_str());
    }
    const bool write_failed = std::ferror(file_) != 0;
    if (std::fclose(file_) != 0 || write_failed) Fail();
  }

 private:
  [[noreturn]] void Fail() const {
    std::fprintf(stderr, "cannot write %s: %s\n", path_.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<std::string> lines_;
};

/// printf into a std::string (bench JSON lines are well under the cap).
inline std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return std::string(buf);
}

/// A PageFile + BufferPool pair per index under test, so that sizes and I/O
/// counts are attributable to one structure.
class Storage {
 public:
  Storage(const Config& cfg, const std::string& tag) : cfg_(cfg) {
    if (cfg.disk) {
      std::string dir = std::getenv("TMPDIR") ? std::getenv("TMPDIR") : "/tmp";
      path_ = dir + "/boxagg_bench_" + tag + ".dat";
      std::unique_ptr<FilePageFile> f;
      Status s = FilePageFile::Open(path_, cfg.page_size, /*truncate=*/true, &f);
      if (!s.ok()) {
        std::fprintf(stderr, "open %s: %s\n", path_.c_str(),
                     s.ToString().c_str());
        std::abort();
      }
      file_ = std::move(f);
    } else {
      file_ = std::make_unique<MemPageFile>(cfg.page_size);
    }
    pool_ = std::make_unique<BufferPool>(file_.get(), cfg.BufferPages(),
                                         cfg.shards);
  }

  ~Storage() {
    pool_.reset();
    file_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  BufferPool* pool() { return pool_.get(); }
  PageFile* file() { return file_.get(); }

  double SizeMb() const {
    return static_cast<double>(file_->live_page_count()) *
           static_cast<double>(cfg_.page_size) / (1024.0 * 1024.0);
  }

 private:
  Config cfg_;
  std::string path_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
};

/// Process CPU time in milliseconds (the paper used getrusage; same
/// quantity).
inline double CpuMillis() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Result of measuring a query batch under the paper's cost model.
struct BatchCost {
  uint64_t ios = 0;        // physical page I/Os
  double cpu_ms = 0;       // process CPU time
  double checksum = 0;     // sum of results (keeps the optimizer honest)

  /// "Execution time" per the paper: CPU + #I/Os x 10ms (Sec. 6).
  double ModelMillis() const {
    return cpu_ms + static_cast<double>(ios) * kPaperIoMillis;
  }
};

/// Runs `fn(query, &result)` over all queries, resetting the pool first
/// (cold start, then the LRU warms up across the batch exactly as in the
/// paper's 1000-query totals).
template <class Fn>
BatchCost MeasureQueries(BufferPool* pool, const std::vector<Box>& queries,
                         Fn&& fn) {
  BatchCost out;
  if (!pool->Reset().ok()) std::abort();
  IoStats before = pool->stats();
  double cpu0 = CpuMillis();
  for (const Box& q : queries) {
    double r = 0;
    fn(q, &r);
    out.checksum += r;
  }
  out.cpu_ms = CpuMillis() - cpu0;
  out.ios = pool->stats().Since(before).TotalIos();
  return out;
}

}  // namespace bench
}  // namespace boxagg

#endif  // BOXAGG_BENCH_COMMON_H_
