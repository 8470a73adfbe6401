// boxagg_cli: build and query persistent box-sum indexes from the command
// line — the downstream-user workflow (CSV in, disk index out, ad-hoc
// queries) without writing any C++.
//
//   boxagg_cli gen   data.csv [n] [avg_side] [seed]   synthesize a dataset
//   boxagg_cli build data.csv index.bag [--replica]   bulk-load 2x4 packed
//                                                     BA-trees (SUM + COUNT);
//                                                     with --replica, freeze
//                                                     them into compact
//                                                     read-replica segments
//                                                     and publish those
//   boxagg_cli query index.bag xlo ylo xhi yhi        SUM / COUNT / AVG
//   boxagg_cli stats index.bag                        size & structure info
//
// query and stats sniff the root page class, so they work transparently on
// both live-tree and replica index files. Numeric arguments must be whole
// numbers ("12x" and "abc" are errors, not 12 and 0).
//
// The index file is a crash-safe BagFile (core/bag_file.h): every page is
// stored under a CRC32C envelope, and `build` publishes the finished trees
// with one atomic Commit — a killed build leaves either a complete index
// or no generation at all, never a half-written one.

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "batree/packed_ba_tree.h"
#include "core/bag_file.h"
#include "core/box_sum_index.h"
#include "parse_number.h"
#include "replica/compact_replica.h"
#include "replica/replica_builder.h"
#include "storage/buffer_pool.h"
#include "workload/generators.h"

using namespace boxagg;

namespace {

constexpr int kDims = 2;
constexpr uint32_t kNumRoots = 8;  // 4 sum corners + 4 count corners

int Die(const std::string& msg) {
  std::fprintf(stderr, "boxagg_cli: %s\n", msg.c_str());
  return 1;
}

int DieIf(const Status& s, const char* what) {
  if (s.ok()) return 0;
  return Die(std::string(what) + ": " + s.ToString());
}

int BadArg(const char* what, const char* needs, const char* got) {
  return Die(std::string(what) + " needs " + needs + ", got '" + got + "'");
}

int CmdGen(int argc, char** argv) {
  if (argc < 1) return Die("gen: missing output csv");
  workload::RectConfig cfg;
  cfg.n = 100000;
  cfg.avg_side = 1e-3;
  cfg.seed = 42;
  if (argc >= 2 && !ParseUnsigned(argv[1], &cfg.n)) {
    return BadArg("gen: n", "a non-negative integer", argv[1]);
  }
  if (argc >= 3 && (!ParseDouble(argv[2], &cfg.avg_side) ||
                    !std::isfinite(cfg.avg_side) || cfg.avg_side < 0)) {
    return BadArg("gen: avg_side", "a finite number >= 0", argv[2]);
  }
  if (argc >= 4 && !ParseUnsigned(argv[3], &cfg.seed)) {
    return BadArg("gen: seed", "a non-negative integer", argv[3]);
  }
  auto objs = workload::UniformRects(cfg);
  std::ofstream out(argv[0]);
  if (!out) return Die("gen: cannot open output file");
  // max_digits10 digits read back as the same double, so `build` indexes
  // exactly the generated objects.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "xlo,ylo,xhi,yhi,value\n";
  for (const auto& o : objs) {
    out << o.box.lo[0] << ',' << o.box.lo[1] << ',' << o.box.hi[0] << ','
        << o.box.hi[1] << ',' << o.value << '\n';
  }
  std::printf("wrote %zu objects to %s\n", objs.size(), argv[0]);
  return 0;
}

// Reads `path` as rows of exactly five comma-separated numbers
// (xlo,ylo,xhi,yhi,value), after an optional header line naming xlo. Blank
// lines are skipped and a trailing '\r' is dropped. On failure `*err` names
// the file and, for a bad row, its line number.
bool ParseCsv(const std::string& path, std::vector<BoxObject>* out,
              std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = path + ": " + std::strerror(errno);
    return false;
  }
  std::string line;
  for (size_t lineno = 1; std::getline(in, line); ++lineno) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (lineno == 1 && line.find("xlo") != std::string::npos) continue;
    if (line.empty()) continue;
    std::vector<std::string> fields;
    for (size_t start = 0;;) {
      const size_t comma = line.find(',', start);
      fields.push_back(line.substr(start, comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    double f[5];
    bool ok = fields.size() == 5;
    for (size_t i = 0; ok && i < 5; ++i) {
      ok = ParseDouble(fields[i].c_str(), &f[i]);
    }
    if (!ok) {
      *err = path + ":" + std::to_string(lineno) +
             ": want 5 comma-separated numbers, got '" + line + "'";
      return false;
    }
    BoxObject o;
    o.box.lo[0] = f[0];
    o.box.lo[1] = f[1];
    o.box.hi[0] = f[2];
    o.box.hi[1] = f[3];
    o.value = f[4];
    out->push_back(o);
  }
  return true;
}

int CmdBuild(int argc, char** argv) {
  bool replica = false;
  std::vector<char*> pos;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--replica") == 0) {
      replica = true;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.size() < 2) {
    return Die("build: usage: build data.csv index.bag [--replica]");
  }
  argv = pos.data();
  std::vector<BoxObject> objs;
  if (std::string err; !ParseCsv(argv[0], &objs, &err)) {
    return Die("build: " + err);
  }
  std::printf("loaded %zu objects from %s\n", objs.size(), argv[0]);

  std::unique_ptr<FilePageFile> file;
  if (DieIf(FilePageFile::Open(argv[1], kDefaultPageSize, /*truncate=*/true,
                               &file),
            "open index")) {
    return 1;
  }
  std::unique_ptr<BagFile> bag;
  if (DieIf(BagFile::Create(file.get(), kDims, kNumRoots, &bag),
            "initialize index")) {
    return 1;
  }
  BufferPool pool(bag.get(),
                  BufferPool::CapacityForMegabytes(64, kDefaultPageSize));

  std::vector<PageId> roots;
  {
    BoxSumIndex<PackedBaTree<double>> sums(
        kDims, [&] { return PackedBaTree<double>(&pool, kDims); });
    if (DieIf(sums.BulkLoad(objs), "bulk load sums")) return 1;
    BoxSumIndex<PackedBaTree<double>> counts(
        kDims, [&] { return PackedBaTree<double>(&pool, kDims); });
    for (auto& o : objs) o.value = 1.0;
    if (DieIf(counts.BulkLoad(objs), "bulk load counts")) return 1;
    if (replica) {
      // Snapshot every live sign index into a compact replica segment, then
      // drop the live trees so the committed generation holds replicas only.
      ReplicaBuilder<double> builder(&pool);
      for (uint32_t s = 0; s < 4; ++s) {
        PageId r = kInvalidPageId;
        if (DieIf(builder.Build(sums.index(s), &r), "replica build")) return 1;
        roots.push_back(r);
      }
      for (uint32_t s = 0; s < 4; ++s) {
        PageId r = kInvalidPageId;
        if (DieIf(builder.Build(counts.index(s), &r), "replica build")) {
          return 1;
        }
        roots.push_back(r);
      }
      if (DieIf(sums.Destroy(), "destroy live sums")) return 1;
      if (DieIf(counts.Destroy(), "destroy live counts")) return 1;
    } else {
      for (uint32_t s = 0; s < 4; ++s) roots.push_back(sums.index(s).root());
      for (uint32_t s = 0; s < 4; ++s) {
        roots.push_back(counts.index(s).root());
      }
    }
  }
  // Flush the trees' pages into the shadow layer, then publish them as
  // generation 1 in one atomic, durable step.
  if (DieIf(pool.FlushAll(), "flush")) return 1;
  if (DieIf(bag->Commit(roots), "commit")) return 1;
  if (DieIf(file->Close(), "close")) return 1;
  std::printf("built %s: %" PRIu64 " pages (%.1f MB)\n", argv[1],
              bag->live_page_count(),
              static_cast<double>(file->size_bytes()) / (1024 * 1024));
  return 0;
}

int OpenIndex(const char* path, std::unique_ptr<FilePageFile>* file,
              std::unique_ptr<BagFile>* bag,
              std::unique_ptr<BufferPool>* pool,
              std::vector<PageId>* roots) {
  if (DieIf(FilePageFile::Open(path, kDefaultPageSize, /*truncate=*/false,
                               file),
            "open index")) {
    return 1;
  }
  if (DieIf(BagFile::Open(file->get(), bag), "recover index")) return 1;
  if ((*bag)->dims() != kDims || (*bag)->num_roots() != kNumRoots) {
    return Die("unsupported index layout");
  }
  *pool = std::make_unique<BufferPool>(
      bag->get(), BufferPool::CapacityForMegabytes(10, kDefaultPageSize));
  *roots = (*bag)->roots();
  return 0;
}

template <class Index>
int RunQuery(BoxSumIndex<Index>& sums, BoxSumIndex<Index>& counts,
             BufferPool* pool, char** argv) {
  // NaN and inverted boxes parse here; the index's CheckBox rejects them.
  Box q;
  double* coords[4] = {&q.lo[0], &q.lo[1], &q.hi[0], &q.hi[1]};
  for (int i = 0; i < 4; ++i) {
    if (!ParseDouble(argv[i + 1], coords[i])) {
      return BadArg("query: a coordinate", "a number", argv[i + 1]);
    }
  }
  double sum, count;
  IoStats before = pool->stats();
  if (DieIf(sums.Query(q, &sum), "sum query")) return 1;
  if (DieIf(counts.Query(q, &count), "count query")) return 1;
  IoStats d = pool->stats().Since(before);
  std::printf("query %s\n", q.ToString(kDims).c_str());
  std::printf("  SUM   = %.6f\n", sum);
  std::printf("  COUNT = %.0f\n", count);
  std::printf("  AVG   = %.6f\n", count < 0.5 ? 0.0 : sum / count);
  std::printf("  cost  = %" PRIu64 " physical I/Os\n", d.TotalIos());
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 5) {
    return Die("query: usage: query index.bag xlo ylo xhi yhi");
  }
  std::unique_ptr<FilePageFile> file;
  std::unique_ptr<BagFile> bag;
  std::unique_ptr<BufferPool> pool;
  std::vector<PageId> roots;
  if (OpenIndex(argv[0], &file, &bag, &pool, &roots)) return 1;

  uint32_t next_sum = 0, next_count = 4;
  bool is_replica = false;
  if (DieIf(IsReplicaRoot(pool.get(), roots[0], &is_replica), "read root")) {
    return 1;
  }
  if (is_replica) {
    BoxSumIndex<CompactReplica<double>> sums(kDims, [&] {
      return CompactReplica<double>(pool.get(), kDims, roots[next_sum++]);
    });
    BoxSumIndex<CompactReplica<double>> counts(kDims, [&] {
      return CompactReplica<double>(pool.get(), kDims, roots[next_count++]);
    });
    for (uint32_t s = 0; s < 4; ++s) {
      if (DieIf(sums.index(s).Open(), "open replica")) return 1;
      if (DieIf(counts.index(s).Open(), "open replica")) return 1;
    }
    return RunQuery(sums, counts, pool.get(), argv);
  }
  BoxSumIndex<PackedBaTree<double>> sums(kDims, [&] {
    return PackedBaTree<double>(pool.get(), kDims, roots[next_sum++]);
  });
  BoxSumIndex<PackedBaTree<double>> counts(kDims, [&] {
    return PackedBaTree<double>(pool.get(), kDims, roots[next_count++]);
  });
  return RunQuery(sums, counts, pool.get(), argv);
}

int CmdStats(int argc, char** argv) {
  if (argc < 1) return Die("stats: usage: stats index.bag");
  std::unique_ptr<FilePageFile> file;
  std::unique_ptr<BagFile> bag;
  std::unique_ptr<BufferPool> pool;
  std::vector<PageId> roots;
  if (OpenIndex(argv[0], &file, &bag, &pool, &roots)) return 1;
  std::printf("index file: %s\n", argv[0]);
  std::printf("  generation %" PRIu64 ", %" PRIu64 " logical pages "
              "(%" PRIu64 " physical, %.1f MB), page size %u\n",
              bag->generation(), bag->live_page_count(),
              file->page_count(),
              static_cast<double>(file->size_bytes()) / (1024 * 1024),
              bag->page_size());
  const char* names[kNumRoots] = {"sum[ll]",   "sum[hl]",   "sum[lh]",
                                  "sum[hh]",   "count[ll]", "count[hl]",
                                  "count[lh]", "count[hh]"};
  for (uint32_t i = 0; i < kNumRoots; ++i) {
    uint64_t pages = 0;
    bool rep = false;
    if (DieIf(IsReplicaRoot(pool.get(), roots[i], &rep), "read root")) {
      return 1;
    }
    if (rep) {
      CompactReplica<double> t(pool.get(), kDims, roots[i]);
      if (DieIf(t.Open(), "open replica")) return 1;
      if (DieIf(t.PageCount(&pages), "page count")) return 1;
    } else {
      PackedBaTree<double> t(pool.get(), kDims, roots[i]);
      if (DieIf(t.PageCount(&pages), "page count")) return 1;
    }
    std::printf("  %-10s root=%" PRIu64 " pages=%" PRIu64 "%s\n", names[i],
                roots[i], pages, rep ? " (replica)" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: boxagg_cli gen|build|query|stats ...\n"
                 "  gen   out.csv [n] [avg_side] [seed]\n"
                 "  build data.csv index.bag [--replica]\n"
                 "  query index.bag xlo ylo xhi yhi\n"
                 "  stats index.bag\n");
    return 1;
  }
  std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc - 2, argv + 2);
  if (cmd == "build") return CmdBuild(argc - 2, argv + 2);
  if (cmd == "query") return CmdQuery(argc - 2, argv + 2);
  if (cmd == "stats") return CmdStats(argc - 2, argv + 2);
  return Die("unknown command: " + cmd);
}
