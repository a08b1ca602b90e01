#pragma once

#include <cstddef>

namespace moteur {

/// Heap allocations made through operator new so far in this process. Only
/// binaries that link alloc_count.cpp (which replaces the global operator
/// new and delete) have it.
std::size_t allocation_count();

/// Allocations made through operator new and not yet released through
/// operator delete: what the process holds on the heap right now, counted
/// in blocks.
std::size_t live_allocation_count();

}  // namespace moteur
