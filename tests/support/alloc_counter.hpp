#pragma once

#include <cstdint>

namespace dsrt::testing {

/// Global-`operator new` invocation count since process start. Only
/// available in test targets that link `tests/support/alloc_counter.cpp`,
/// which replaces the global allocation functions with counting versions
/// (delegating to malloc/free). Count the difference across a code region
/// to assert allocation behavior — e.g. that the warmed-up simulation hot
/// path performs zero heap allocations.
std::uint64_t allocation_count();

/// Matching `operator delete` invocation count (non-null frees only).
std::uint64_t deallocation_count();

/// Bytes requested from the global `operator new` family since process
/// start (the sizes asked for, before any alignment rounding). Count the
/// difference across a region to bound its heap footprint.
std::uint64_t allocated_bytes();

}  // namespace dsrt::testing
