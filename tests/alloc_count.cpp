// Replaces the global allocation functions with counting ones, so a test can
// assert that a code path allocates nothing, or that what it holds stays
// bounded. Kept in a translation unit of its own: inlined into test code,
// GCC's -Wmismatched-new-delete mistakes these malloc/free pairs for
// mismatched new/free.
#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_live{0};

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_live.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_partition's temporary buffer uses them):
// a sanitizer runtime supplies its own otherwise, and its blocks would reach
// the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace moteur {

std::size_t allocation_count() { return g_allocations.load(std::memory_order_relaxed); }

std::size_t live_allocation_count() { return g_live.load(std::memory_order_relaxed); }

}  // namespace moteur
