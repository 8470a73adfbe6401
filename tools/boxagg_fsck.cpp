// boxagg_fsck: offline verifier for .bag index files.
//
//   boxagg_fsck [--no-oracle] [--strict] index.bag
//
// Recovers the file to its committed generation (exactly as a normal open
// would), verifies every physical slot's CRC32C envelope, cross-checks
// page epochs against the generation map (lost-write detection), runs each
// root tree's structural invariants (page typing, key order, subtree-
// aggregate identities, border tiling, packed-heap layout) with errors
// collected per structure, audits buffer-pool/page-file accounting, and
// sweeps for orphaned pages. A file at rest holds one generation: pages the
// committed generation does not reference are free, and damage to them is
// only a note. Exit status 0 iff the file is clean; 1 on corruption (with
// page-level diagnostics) or usage error.
//
// --no-oracle  skips the query self-oracle (structural checks only; much
//              faster on large files)
// --strict     treats orphaned and stale (older-generation) reachable
//              pages as corruption instead of a warning

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "check/fsck.h"

using namespace boxagg;

namespace {

int Usage() {
  std::fprintf(stderr, "usage: boxagg_fsck [--no-oracle] [--strict] "
                       "index.bag\n");
  return 1;
}

void PrintSummary(const char* path, const FsckReport& report) {
  std::printf("%s: generation %" PRIu64 ", %" PRIu64 " physical pages, "
              "%" PRIu64 " logical (%" PRIu64 " mapped), %u dims, "
              "%zu roots\n",
              path, report.generation, report.file_pages,
              report.logical_pages, report.mapped_pages, report.dims,
              report.roots.size());
  std::printf("  verified %" PRIu64 " pages, %" PRIu64 " orphaned, "
              "%" PRIu64 " stale\n",
              report.visited_pages, report.orphan_pages, report.stale_pages);
  if (report.checksum_failures_live + report.checksum_failures_free > 0) {
    std::printf("  checksum failures: %" PRIu64 " on live pages, %" PRIu64
                " on free pages\n",
                report.checksum_failures_live, report.checksum_failures_free);
  }
  for (const std::string& err : report.root_errors) {
    std::printf("  CORRUPT %s\n", err.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  FsckOptions options;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-oracle") == 0) {
      options.check_oracle = false;
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      options.strict_orphans = true;
      options.strict_stale = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "boxagg_fsck: unknown option %s\n", argv[i]);
      return Usage();
    } else if (path != nullptr) {
      return Usage();
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) return Usage();

  FsckReport report;
  Status st = FsckIndexFile(path, options, &report);
  // A file recovery could not read has no summary to print.
  if (report.opened) PrintSummary(path, report);
  if (!st.ok()) {
    std::fprintf(stderr, "boxagg_fsck: %s: %s\n", path,
                 st.ToString().c_str());
    return 1;
  }
  std::printf("  clean\n");
  return 0;
}
