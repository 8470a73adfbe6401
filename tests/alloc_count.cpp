// Counting replacements of the global operator new/delete (alloc_count.h).
// They are kept out of line so the compiler never pairs an inlined malloc
// with a library operator delete at a call site.

#include "alloc_count.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

namespace boxagg {
namespace testutil {

uint64_t HeapAllocations() { return g_news.load(std::memory_order_relaxed); }

}  // namespace testutil
}  // namespace boxagg

[[gnu::noinline]] void* operator new(size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<size_t>(al),
                                   (n + static_cast<size_t>(al) - 1) &
                                       ~(static_cast<size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
