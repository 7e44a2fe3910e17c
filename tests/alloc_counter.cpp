// Binary-wide allocation counter for the allocation-budget tests in
// clock_test.cpp, debugger_tier_test.cpp and move_once_test.cpp.
// Replacing operator new
// affects the whole binary, so the hooks stay trivial.  Kept in its own
// translation unit so the replaced operators are never inlined into the
// code under test (g++ 12 then misreports mismatched new/delete).
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

std::size_t allocation_count() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
