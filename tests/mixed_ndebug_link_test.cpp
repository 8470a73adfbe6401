// Links a translation unit compiled without NDEBUG against the library as
// the build type compiled it (NDEBUG in optimized builds). Class layouts
// must not depend on NDEBUG, or this program corrupts the pool it shares
// with the library: it drives a BufferPool over a MemPageFile through
// eviction and write-back and exits 0 only if every page reads back.

#include <cstdint>
#include <cstdio>

#include "storage/buffer_pool.h"
#include "storage/page_file.h"

#ifdef NDEBUG
#error "mixed_ndebug_link_test must be compiled without NDEBUG"
#endif

using namespace boxagg;

namespace {

int Fail(const char* what, const Status& st) {
  std::fprintf(stderr, "mixed_ndebug_link_test: %s: %s\n", what,
               st.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  constexpr uint32_t kPageSize = 512;
  constexpr PageId kPages = 32;
  MemPageFile file(kPageSize);
  // Four frames over 32 pages: every pass evicts and writes back.
  BufferPool pool(&file, /*capacity=*/4, /*shards=*/2);

  for (PageId i = 0; i < kPages; ++i) {
    PageGuard g;
    if (Status st = pool.New(&g); !st.ok()) return Fail("New", st);
    g.page()->WriteAt<uint64_t>(0, 0xC0FFEE00u + g.id());
    g.MarkDirty();
  }
  for (PageId id = 0; id < kPages; ++id) {
    PageGuard g;
    if (Status st = pool.Fetch(id, &g); !st.ok()) return Fail("Fetch", st);
    if (g.page()->ReadAt<uint64_t>(0) != 0xC0FFEE00u + id) {
      std::fprintf(stderr, "mixed_ndebug_link_test: page %llu reads back "
                           "wrong contents\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
  }
  if (Status st = pool.FlushAll(); !st.ok()) return Fail("FlushAll", st);

  Page p(kPageSize);
  for (PageId id = 0; id < kPages; ++id) {
    if (Status st = file.ReadPage(id, &p); !st.ok()) {
      return Fail("ReadPage", st);
    }
    if (p.ReadAt<uint64_t>(0) != 0xC0FFEE00u + id) {
      std::fprintf(stderr, "mixed_ndebug_link_test: page %llu was not "
                           "written back\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
  }
  if (Status st = pool.CheckConsistency(); !st.ok()) {
    return Fail("CheckConsistency", st);
  }
  std::printf("mixed_ndebug_link_test: %llu pages round-tripped\n",
              static_cast<unsigned long long>(kPages));
  return 0;
}
