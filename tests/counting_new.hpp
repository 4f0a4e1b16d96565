// Global allocation counter for zero-allocation tests. Replaces the global
// operator new / delete of the test binary that includes it, so include it
// from exactly one translation unit per test binary. Counting is always on
// (a relaxed atomic); tests read g_allocations around the region of
// interest.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The replaced operator new above allocates with malloc, so freeing with
// free() is the matching deallocation; GCC cannot see the pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
