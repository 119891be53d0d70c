// Replaces the global allocation functions with counting wrappers over
// malloc/free. Every form the program can reach (plain, array, aligned,
// sized delete) is replaced so no allocation escapes the count.
#include "alloc_count.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {

AllocCounts& tls_allocs() {
  thread_local AllocCounts counts;
  return counts;
}

}  // namespace perfbench

namespace {

void* counted_alloc(std::size_t n, std::size_t align) {
  perfbench::AllocCounts& c = perfbench::tls_allocs();
  ++c.count;
  c.bytes += n;
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
