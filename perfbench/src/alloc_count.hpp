// Heap allocation counters fed by the counting global operator new in
// alloc_count.cpp, which is linked into the benchmark binary only. Counts
// are per thread, so reading them costs nothing and takes no lock.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

AllocCounts& tls_allocs();

}  // namespace perfbench
