// Replaces the global allocation functions with counting ones, so a test can
// assert that a code path allocates nothing. Kept in a translation unit of
// its own: inlined into test code, GCC's -Wmismatched-new-delete mistakes
// these malloc/free pairs for mismatched new/free.
#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace moteur {

std::size_t allocation_count() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace moteur
