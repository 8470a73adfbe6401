// Process-wide heap allocation counter for the zero-allocation tests.
// Linking alloc_count.cpp into a test replaces the global operator
// new/delete with counting versions, so HeapAllocations() observes every
// allocation in the process, not just one allocator's.

#ifndef BOXAGG_TESTS_ALLOC_COUNT_H_
#define BOXAGG_TESTS_ALLOC_COUNT_H_

#include <cstdint>

namespace boxagg {
namespace testutil {

/// Number of global operator new calls so far.
uint64_t HeapAllocations();

}  // namespace testutil
}  // namespace boxagg

#endif  // BOXAGG_TESTS_ALLOC_COUNT_H_
