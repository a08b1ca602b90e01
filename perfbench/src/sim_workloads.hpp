#pragma once

// Building blocks of the simulated workloads, shared with the benchmark's
// own tests.

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench.hpp"
#include "enactor/enactor.hpp"
#include "enactor/policy.hpp"
#include "grid/config.hpp"
#include "services/registry.hpp"

namespace perfbench {

class Tracer;

/// Registers the Bronze-Standard simulated services (the same catalog as
/// app::register_simulated_services), each wrapped in a TracingService when
/// `tracer` is set.
void register_bronze(moteur::services::ServiceRegistry& registry, Tracer* tracer);

/// Digest of a run's observable output: its timeline CSV (with the data
/// plane columns when asked), its sink provenance XML and its makespan.
std::uint64_t run_digest(const moteur::enactor::EnactmentResult& result, bool data_plane);

/// Checks one simulated Bronze enactment of `pairs` pairs in which
/// `jobs_failed` grid jobs ran out of attempts (egee2006 fails 4% of
/// attempts and allows 5, so nearly always none). Under the default
/// fail-fast policy each such job loses its tuple and the tuple's per-pair
/// descendants never fire. The run is correct when it reports exactly that
/// many failures, every other logical invocation happened (6 per pair plus
/// the synchronized MultiTransfoTest), nothing was skipped, and each sink
/// holds one clean token (none when MultiTransfoTest itself was lost).
void check_bronze(const moteur::enactor::EnactmentResult& result, std::size_t pairs,
                  std::size_t jobs_failed, const std::string& label, Report& report);

/// egee2006 (background load and job failures on) with three regional SEs
/// (close SE = CE index mod 3, remote penalty 3), data-gravity matchmaking
/// and push-to-consumer replication.
moteur::grid::GridConfig dataplane_grid(std::uint64_t seed);

/// SP+DP with the invocation cache and data-gravity matchmaking.
moteur::enactor::EnactmentPolicy dataplane_policy();

}  // namespace perfbench
