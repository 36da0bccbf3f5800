// Counting replacements for the global allocation functions (linked into
// allocation-sensitive test targets only). Every operator-new family member
// funnels through counting malloc wrappers, so a test can snapshot
// `allocation_count()` (or `allocated_bytes()`) around a region and assert
// the region's exact heap behavior. The counters are atomics: some tests
// drive the engine thread pool.
#include "support/alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_deallocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_aligned(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded ? rounded : alignment);
}

void counted_free(void* p) {
  if (!p) return;
  g_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace dsrt::testing {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t deallocation_count() {
  return g_deallocations.load(std::memory_order_relaxed);
}

std::uint64_t allocated_bytes() {
  return g_bytes.load(std::memory_order_relaxed);
}

}  // namespace dsrt::testing

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  if (void* p = counted_aligned(size, static_cast<std::size_t>(alignment)))
    return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  if (void* p = counted_aligned(size, static_cast<std::size_t>(alignment)))
    return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
