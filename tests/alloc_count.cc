// Replacement global allocation functions for the test binary: every
// operator new bumps a counter that the no-allocation tests snapshot.
// They sit in their own translation unit because replacements may not be
// inline: defined next to their callers, GCC inlines operator delete and
// then reports its std::free as mismatched with operator new.
#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

namespace faultlab::testing_support {

std::size_t allocation_count() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace faultlab::testing_support

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms must come from this set too (std::stable_sort's
// temporary buffer uses them): the library's own would pair a foreign
// allocation with the std::free below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
