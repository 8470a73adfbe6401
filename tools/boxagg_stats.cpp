// boxagg_stats: runs a fig9b-style box-sum workload with full observability
// enabled and reports the latency / I/O breakdown.
//
//   boxagg_stats [--backend ecdfu|ecdfq|bat|replica] [--n N] [--queries Q]
//                [--batch B] [--threads T] [--seed S]
//                [--json PATH|-]
//
// The tool installs the process-global query-observation sink, bulk-loads
// a 2-d corner-transform index over uniform rectangles, answers Q square
// queries through the batched executor path (morsels of B queries), and
// then:
//
//   - prints a table to stdout of the workload's deltas of the two ledgers
//     the benches read: the buffer pool's IoStats (io.*) and the
//     QueryObsSnapshot (query.*: per-level node visits, border probes,
//     corner dedup), plus the executor's BatchExecStats (executor.*:
//     wall time, throughput, morsel latency percentiles);
//   - with --json, writes the same values as one flat JSON object (PATH or
//     "-" for stdout).
//
// Numeric flags take a plain decimal value; anything else (a sign, trailing
// characters, overflow) prints the usage text and exits 2. Exit status is 1
// if any cross-check fails. Two invariants are enforced, both documented in
// src/obs/query_obs.h and storage/io_stats.h:
//
//   coverage identity   sum over levels of node_visits == the workload's
//                       logical-read delta (every dominance-descent fetch
//                       is attributed to exactly one level)
//   eviction ordering   evictions >= dirty_writebacks (write-backs are
//                       counted on the eviction path only)

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "core/box_sum_index.h"
#include "ecdf/ecdf_btree.h"
#include "exec/parallel_executor.h"
#include "exec/query_adapters.h"
#include "obs/logger.h"
#include "obs/query_obs.h"
#include "parse_number.h"
#include "replica/compact_replica.h"
#include "replica/replica_builder.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "workload/generators.h"

using namespace boxagg;

namespace {

struct Options {
  std::string backend = "bat";
  size_t n = 50000;
  size_t queries = 512;
  size_t batch = 256;
  size_t threads = 2;
  size_t shards = 1;
  size_t buffer_mb = 10;
  uint32_t page_size = kDefaultPageSize;
  uint64_t seed = 42;
  std::string json_path;  // empty = no JSON dump; "-" = stdout
};

int Usage() {
  std::fprintf(stderr,
               "usage: boxagg_stats [--backend ecdfu|ecdfq|bat|replica]\n"
               "                    [--n N]\n"
               "                    [--queries Q] [--batch B] [--threads T]\n"
               "                    [--shards S] [--buffer-mb M] [--seed S]\n"
               "                    [--json PATH|-]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "boxagg_stats: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* a = argv[i];
    const char* v = nullptr;
    auto number = [&](auto* dst) {
      if ((v = next(a)) == nullptr) return false;
      if (ParseUnsigned(v, dst)) return true;
      std::fprintf(stderr,
                   "boxagg_stats: %s needs a non-negative integer, got '%s'\n",
                   a, v);
      return false;
    };
    if (std::strcmp(a, "--backend") == 0) {
      if ((v = next(a)) == nullptr) return false;
      opt->backend = v;
    } else if (std::strcmp(a, "--n") == 0) {
      if (!number(&opt->n)) return false;
    } else if (std::strcmp(a, "--queries") == 0) {
      if (!number(&opt->queries)) return false;
    } else if (std::strcmp(a, "--batch") == 0) {
      if (!number(&opt->batch)) return false;
    } else if (std::strcmp(a, "--threads") == 0) {
      if (!number(&opt->threads)) return false;
    } else if (std::strcmp(a, "--shards") == 0) {
      if (!number(&opt->shards)) return false;
    } else if (std::strcmp(a, "--buffer-mb") == 0) {
      if (!number(&opt->buffer_mb)) return false;
    } else if (std::strcmp(a, "--seed") == 0) {
      if (!number(&opt->seed)) return false;
    } else if (std::strcmp(a, "--json") == 0) {
      if ((v = next(a)) == nullptr) return false;
      opt->json_path = v;
    } else {
      std::fprintf(stderr, "boxagg_stats: unknown argument %s\n", a);
      return false;
    }
  }
  if (opt->backend != "ecdfu" && opt->backend != "ecdfq" &&
      opt->backend != "bat" && opt->backend != "replica") {
    std::fprintf(stderr, "boxagg_stats: unknown backend %s\n",
                 opt->backend.c_str());
    return false;
  }
  if (opt->threads == 0) opt->threads = 1;
  if (opt->batch == 0) opt->batch = opt->queries;
  return true;
}

int Die(const char* what, const Status& s) {
  obs::LogError("boxagg_stats: %s: %s", what, s.ToString().c_str());
  return 1;
}

/// One reported value, already formatted as a JSON number.
struct Row {
  std::string name;
  std::string value;
};

/// The workload's report: the executor's batch figures, the IoStats delta
/// and the QueryObsSnapshot delta (levels with no visits are left out).
std::vector<Row> ReportRows(const exec::BatchExecStats& st, const IoStats& io,
                            const obs::QueryObsSnapshot& q) {
  std::vector<Row> rows;
  char buf[64];
  auto count = [&](std::string name, uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    rows.push_back({std::move(name), buf});
  };
  auto real = [&](std::string name, double v) {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    rows.push_back({std::move(name), buf});
  };
  count("executor.threads", st.threads);
  count("executor.queries", st.queries);
  count("executor.morsels", st.morsels);
  real("executor.wall_ms", st.wall_ms);
  real("executor.queries_per_sec", st.queries_per_sec);
  real("executor.morsel_p50_us", st.latency_p50_us);
  real("executor.morsel_p95_us", st.latency_p95_us);
  real("executor.morsel_p99_us", st.latency_p99_us);
  real("executor.morsel_max_us", st.latency_max_us);
  count("io.logical_reads", io.logical_reads);
  count("io.physical_reads", io.physical_reads);
  count("io.buffer_hits", io.buffer_hits);
  count("io.physical_writes", io.physical_writes);
  count("io.evictions", io.evictions);
  count("io.dirty_writebacks", io.dirty_writebacks);
  count("io.probe_fetches_saved", io.probe_fetches_saved);
  count("io.checksum_failures", io.checksum_failures);
  count("io.read_retries", io.read_retries);
  for (size_t i = 0; i < obs::QueryObsSnapshot::kMaxLevels; ++i) {
    if (q.node_visits[i] == 0) continue;
    count("query.level" + std::to_string(i) + ".node_visits",
          q.node_visits[i]);
  }
  count("query.border_probes", q.border_probes);
  count("query.corner_probes_issued", q.corner_probes_issued);
  count("query.corner_probes_deduped", q.corner_probes_deduped);
  return rows;
}

void WriteTable(FILE* out, const std::vector<Row>& rows) {
  size_t width = 0;
  for (const Row& r : rows) width = std::max(width, r.name.size());
  for (const Row& r : rows) {
    std::fprintf(out, "%-*s %s\n", static_cast<int>(width), r.name.c_str(),
                 r.value.c_str());
  }
}

void WriteJson(FILE* out, const std::vector<Row>& rows) {
  std::fputc('{', out);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "%s\"%s\":%s", i == 0 ? "" : ",", rows[i].name.c_str(),
                 rows[i].value.c_str());
  }
  std::fputs("}\n", out);
}

/// Runs the query phase against an already-built index and reports the
/// I/O breakdown and its invariants. Callers flush+reset the pool first so
/// the measured deltas cover query traffic only.
template <class Index>
int QueryAndReport(const Options& opt, BufferPool* pool,
                   BoxSumIndex<Index>* indexp, const std::vector<Box>& queries) {
  obs::QueryObs* qobs = obs::CurrentQueryObs();
  BoxSumIndex<Index>& index = *indexp;

  const IoStats io0 = pool->stats();
  const obs::QueryObsSnapshot q0 = qobs->Snapshot();

  exec::ParallelQueryExecutor executor(opt.threads);
  exec::BatchQueryFn fn = exec::BoxSumBatchQueryFn(&index);
  std::vector<double> results;
  exec::BatchExecStats st;
  if (Status s =
          executor.RunBatchGrouped(fn, queries, opt.batch, &results, &st);
      !s.ok()) {
    return Die("query batch", s);
  }

  const IoStats io = pool->stats().Since(io0);
  const obs::QueryObsSnapshot qd = qobs->Snapshot().Since(q0);

  // Coverage identity: every descent fetch was attributed to one level.
  int rc = 0;
  if (qd.TotalNodeVisits() != io.logical_reads) {
    obs::LogError(
        "boxagg_stats: coverage identity violated: node_visits=%" PRIu64
        " != logical_reads=%" PRIu64,
        qd.TotalNodeVisits(), io.logical_reads);
    rc = 1;
  }
  const IoStats total = pool->stats();
  if (total.evictions < total.dirty_writebacks) {
    obs::LogError("boxagg_stats: eviction invariant violated: "
                  "evictions=%" PRIu64 " < dirty_writebacks=%" PRIu64,
                  total.evictions, total.dirty_writebacks);
    rc = 1;
  }

  std::printf("boxagg_stats: backend=%s n=%zu queries=%zu batch=%zu "
              "threads=%zu shards=%zu\n",
              opt.backend.c_str(), opt.n, queries.size(), opt.batch,
              opt.threads, opt.shards);
  std::printf("  coverage: node_visits=%" PRIu64 " logical_reads=%" PRIu64
              " %s\n",
              qd.TotalNodeVisits(), io.logical_reads,
              qd.TotalNodeVisits() == io.logical_reads ? "OK" : "MISMATCH");
  const std::vector<Row> rows = ReportRows(st, io, qd);
  WriteTable(stdout, rows);

  if (!opt.json_path.empty()) {
    FILE* out = opt.json_path == "-" ? stdout
                                     : std::fopen(opt.json_path.c_str(), "w");
    if (out == nullptr) {
      obs::LogError("boxagg_stats: cannot open %s", opt.json_path.c_str());
      return 1;
    }
    WriteJson(out, rows);
    if (out != stdout) std::fclose(out);
  }
  return rc;
}

template <class Index, class Factory>
int RunWorkload(const Options& opt, BufferPool* pool,
                const std::vector<BoxObject>& objects,
                const std::vector<Box>& queries, Factory&& factory) {
  BoxSumIndex<Index> index(2, factory);
  if (Status s = index.BulkLoad(objects); !s.ok()) return Die("bulk load", s);
  if (Status s = pool->FlushAll(); !s.ok()) return Die("flush", s);
  if (Status s = pool->Reset(); !s.ok()) return Die("reset", s);
  return QueryAndReport(opt, pool, &index, queries);
}

/// Replica mode: bulk-load a live BA-tree index, freeze each sign index into
/// a compact replica segment, drop the live tree, and answer the whole
/// workload from the replicas alone.
int RunReplicaWorkload(const Options& opt, BufferPool* pool,
                       const std::vector<BoxObject>& objects,
                       const std::vector<Box>& queries) {
  std::vector<PageId> roots;
  {
    BoxSumIndex<PackedBaTree<double>> live(
        2, [&] { return PackedBaTree<double>(pool, 2); });
    if (Status s = live.BulkLoad(objects); !s.ok()) {
      return Die("bulk load", s);
    }
    ReplicaBuilder<double> builder(pool);
    for (uint32_t s = 0; s < live.index_count(); ++s) {
      PageId root = kInvalidPageId;
      if (Status st = builder.Build(live.index(s), &root); !st.ok()) {
        return Die("replica build", st);
      }
      roots.push_back(root);
    }
    if (Status s = live.Destroy(); !s.ok()) return Die("destroy live", s);
  }
  size_t next = 0;
  BoxSumIndex<CompactReplica<double>> index(
      2, [&] { return CompactReplica<double>(pool, 2, roots[next++]); });
  for (uint32_t s = 0; s < index.index_count(); ++s) {
    if (Status st = index.index(s).Open(); !st.ok()) {
      return Die("replica open", st);
    }
  }
  if (Status s = pool->FlushAll(); !s.ok()) return Die("flush", s);
  if (Status s = pool->Reset(); !s.ok()) return Die("reset", s);
  return QueryAndReport(opt, pool, &index, queries);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();

  // Observability on for the whole process lifetime (static: outlives every
  // query and the teardown of the index/pool).
  static obs::QueryObs qobs;
  obs::InstallQueryObs(&qobs);

  workload::RectConfig rc;
  rc.n = opt.n;
  rc.seed = opt.seed;
  const auto objects = workload::UniformRects(rc);
  const auto queries = workload::QueryBoxes(opt.queries, 0.0001, opt.seed + 7);

  MemPageFile file(opt.page_size);
  BufferPool pool(&file,
                  BufferPool::CapacityForMegabytes(opt.buffer_mb,
                                                   opt.page_size),
                  opt.shards);

  if (opt.backend == "replica") {
    return RunReplicaWorkload(opt, &pool, objects, queries);
  }
  if (opt.backend == "ecdfu" || opt.backend == "ecdfq") {
    const EcdfVariant variant = opt.backend == "ecdfu"
                                    ? EcdfVariant::kUpdateOptimized
                                    : EcdfVariant::kQueryOptimized;
    return RunWorkload<EcdfBTree<double>>(
        opt, &pool, objects, queries,
        [&] { return EcdfBTree<double>(&pool, 2, variant); });
  }
  return RunWorkload<PackedBaTree<double>>(
      opt, &pool, objects, queries,
      [&] { return PackedBaTree<double>(&pool, 2); });
}
