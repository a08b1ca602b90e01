#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// The tenant-open arrival schedule: due times (seconds from the loop's
/// start) at a fixed 400 runs/s with seeded jitter, over `seconds`.
std::vector<double> tenant_schedule(std::uint64_t seed, double seconds);

}  // namespace perfbench
