#pragma once

#include <cstddef>

namespace moteur {

/// Heap allocations made through operator new so far in this process. Only
/// test binaries that link alloc_count.cpp (which replaces the global
/// operator new) have it.
std::size_t allocation_count();

}  // namespace moteur
