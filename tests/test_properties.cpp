// Randomized cross-module properties: random layered workflows over random
// data sets, enacted under every policy on the simulated grid. Whatever the
// optimization level, the *science* must be identical — same result
// multiset, same provenance identities — and the §3.5 dominance relations
// must hold on a deterministic grid.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/grid.hpp"
#include "policy/registry.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workflow/analysis.hpp"
#include "workflow/grouping.hpp"
#include "workflow/scufl.hpp"

namespace moteur {
namespace {

struct RandomApplication {
  workflow::Workflow workflow{"random"};
  data::InputDataSet inputs;
  std::vector<std::pair<std::string, services::JobProfile>> profiles;
};

/// Layered random DAG: sources feed layer 0; each service picks 1-2 feeds
/// from strictly earlier outputs; every terminal output reaches a sink.
RandomApplication make_random_application(Rng& rng) {
  RandomApplication app;

  struct Output {
    std::string processor;
    std::string port;
  };
  std::vector<Output> available;

  const std::size_t n_sources = 1 + static_cast<std::size_t>(rng.uniform_int(0, 1));
  for (std::size_t s = 0; s < n_sources; ++s) {
    const std::string name = "src" + std::to_string(s);
    app.workflow.add_source(name);
    available.push_back(Output{name, "out"});
    const std::size_t items = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t j = 0; j < items; ++j) {
      app.inputs.add_item(name, name + "-item" + std::to_string(j));
    }
  }

  const std::size_t layers = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  std::set<std::string> consumed;  // "proc.port" keys with a consumer
  int counter = 0;
  for (std::size_t layer = 0; layer < layers; ++layer) {
    const std::size_t width = 1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    std::vector<Output> produced;
    for (std::size_t w = 0; w < width; ++w) {
      const std::string name = "P" + std::to_string(counter++);
      const std::size_t n_inputs =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 1));
      std::vector<std::string> input_ports;
      for (std::size_t i = 0; i < n_inputs; ++i) {
        input_ports.push_back("in" + std::to_string(i));
      }
      // Occasionally a cross product (only meaningful with 2 ports).
      const auto iteration = n_inputs == 2 && rng.bernoulli(0.3)
                                 ? workflow::IterationStrategy::kCross
                                 : workflow::IterationStrategy::kDot;
      app.workflow.add_processor(name, input_ports, {"out"}, iteration);
      for (std::size_t i = 0; i < n_inputs; ++i) {
        const Output& feed = available[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(available.size()) - 1))];
        app.workflow.link(feed.processor, feed.port, name, input_ports[i]);
        consumed.insert(feed.processor + "." + feed.port);
      }
      produced.push_back(Output{name, "out"});
      app.profiles.emplace_back(
          name, services::JobProfile{std::floor(rng.uniform(5.0, 60.0)), 0.0, 0.0});
    }
    available.insert(available.end(), produced.begin(), produced.end());
  }

  // Terminal outputs flow into sinks.
  int sink_counter = 0;
  for (const Output& output : available) {
    if (output.port == "out" && consumed.count(output.processor + ".out") == 0) {
      const std::string sink = "sink" + std::to_string(sink_counter++);
      app.workflow.add_sink(sink);
      app.workflow.link(output.processor, output.port, sink, "in");
    }
  }
  app.workflow.validate();
  return app;
}

enactor::EnactmentResult enact(const RandomApplication& app,
                               enactor::EnactmentPolicy policy) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::constant(30.0));
  enactor::SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  for (const auto& proc : app.workflow.processors()) {
    if (proc.kind != workflow::ProcessorKind::kService) continue;
    for (const auto& [name, profile] : app.profiles) {
      if (name == proc.name) {
        registry.add(services::make_simulated_service(name, proc.input_ports,
                                                      proc.output_ports, profile));
      }
    }
  }
  enactor::Enactor moteur(backend, registry, policy);
  return moteur.run({.workflow = app.workflow, .inputs = app.inputs});
}

/// Signature of a run's science: per sink, the multiset of result indices.
std::map<std::string, std::multiset<data::IndexVector>> science_of(
    const enactor::EnactmentResult& result) {
  std::map<std::string, std::multiset<data::IndexVector>> out;
  for (const auto& [sink, tokens] : result.sink_outputs) {
    for (const auto& token : tokens) out[sink].insert(token.indices());
  }
  return out;
}

class RandomWorkflows : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorkflows, AllPoliciesProduceTheSameScience) {
  Rng rng(GetParam());
  const RandomApplication app = make_random_application(rng);

  const auto reference = enact(app, enactor::EnactmentPolicy::sp_dp());
  const auto reference_science = science_of(reference);
  EXPECT_EQ(reference.failures(), 0u);

  for (const auto* config : {"NOP", "JG", "SP", "DP", "SP+DP+JG"}) {
    const auto result = enact(app, enactor::EnactmentPolicy::parse(config));
    EXPECT_EQ(science_of(result), reference_science) << "policy " << config;
    EXPECT_EQ(result.invocations(), reference.invocations()) << "policy " << config;
  }
}

TEST_P(RandomWorkflows, DominanceRelationsOnDeterministicGrid) {
  Rng rng(GetParam() * 31 + 7);
  const RandomApplication app = make_random_application(rng);

  const double nop = enact(app, enactor::EnactmentPolicy::nop()).makespan();
  const double sp = enact(app, enactor::EnactmentPolicy::sp()).makespan();
  const double dp = enact(app, enactor::EnactmentPolicy::dp()).makespan();
  const double dsp = enact(app, enactor::EnactmentPolicy::sp_dp()).makespan();

  const double eps = 1e-9;
  EXPECT_LE(sp, nop + eps);   // adding SP never hurts
  EXPECT_LE(dp, nop + eps);   // adding DP never hurts
  EXPECT_LE(dsp, sp + eps);   // DP on top of SP never hurts
  EXPECT_LE(dsp, dp + eps);   // SP on top of DP never hurts
}

TEST_P(RandomWorkflows, GroupingRewriteIsSemanticallyTransparent) {
  Rng rng(GetParam() * 131 + 3);
  const RandomApplication app = make_random_application(rng);

  workflow::GroupingReport report;
  const workflow::Workflow grouped =
      workflow::group_sequential_processors(app.workflow, &report);
  EXPECT_NO_THROW(grouped.validate());

  // Members never disappear, never duplicate.
  std::multiset<std::string> original_services, grouped_members;
  for (const auto* proc : app.workflow.services()) {
    original_services.insert(proc->name);
  }
  for (const auto* proc : grouped.services()) {
    if (proc->is_grouped()) {
      for (const auto& member : proc->group_members) grouped_members.insert(member);
    } else {
      grouped_members.insert(proc->name);
    }
  }
  EXPECT_EQ(original_services, grouped_members);

  // Scufl round-trip of the rewritten workflow (grouped processors incl.
  // member lists and internal links survive serialization).
  const workflow::Workflow reparsed = workflow::from_scufl(workflow::to_scufl(grouped));
  EXPECT_EQ(reparsed.processors().size(), grouped.processors().size());
  for (const auto* proc : grouped.services()) {
    EXPECT_EQ(reparsed.processor(proc->name).group_members, proc->group_members);
    EXPECT_EQ(reparsed.processor(proc->name).internal_links.size(),
              proc->internal_links.size());
  }
}

TEST_P(RandomWorkflows, TimelineInvariants) {
  Rng rng(GetParam() * 17 + 11);
  const RandomApplication app = make_random_application(rng);
  const auto result = enact(app, enactor::EnactmentPolicy::sp_dp());

  for (const auto& trace : result.timeline.traces()) {
    EXPECT_LE(trace.submit_time, trace.start_time + 1e-9);
    EXPECT_LE(trace.start_time, trace.end_time + 1e-9);
    ASSERT_TRUE(trace.job.has_value());
    EXPECT_GE(trace.job->overhead_seconds(), -1e-9);
    EXPECT_EQ(trace.job->state, grid::JobState::kDone);
  }
  EXPECT_DOUBLE_EQ(result.timeline.makespan(), result.finished_at);
}

TEST_P(RandomWorkflows, CapacityCapIsRespected) {
  Rng rng(GetParam() * 57 + 23);
  const RandomApplication app = make_random_application(rng);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.data_parallelism_cap = 2;
  const auto result = enact(app, policy);

  // Per processor, no instant may carry more than 2 overlapping invocations.
  for (const auto* proc : app.workflow.services()) {
    const auto traces = result.timeline.for_processor(proc->name);
    for (const auto* a : traces) {
      std::size_t overlapping = 0;
      for (const auto* b : traces) {
        if (b->submit_time <= a->submit_time && a->submit_time < b->end_time) {
          ++overlapping;
        }
      }
      EXPECT_LE(overlapping, 2u) << proc->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkflows,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// ---------------------------------------------------------------------------
// Run manifests survive their own XML form
// ---------------------------------------------------------------------------

std::size_t draw_count(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(lo, hi));
}

bool draw_bool(Rng& rng) { return rng.uniform_int(0, 1) == 1; }

/// A real in (0, max] — often one without a short decimal form — or 0 when
/// `zero_ok` and the draw says so.
double draw_real(Rng& rng, double max, bool zero_ok) {
  if (zero_ok && rng.uniform_int(0, 5) == 0) return 0.0;
  const double awkward[] = {0.1 + 0.2, 5e-7, 1.0 / 3.0, max,
                            max * rng.uniform(1e-9, 1.0)};
  return awkward[rng.uniform_int(0, 4)];
}

/// Unset (inherit the default) or one of the family's names.
template <class Family>
std::string draw_name(Rng& rng, const Family& family) {
  const std::vector<std::string> names = family.names();
  const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(names.size()));
  return pick == 0 ? std::string() : names[static_cast<std::size_t>(pick - 1)];
}

/// Every <policy>, <grid> and <service> attribute drawn from the range its
/// reader accepts. A switched-off breaker keeps its default knobs: its
/// attributes are written only while it is on.
enactor::RunManifest random_manifest(Rng& rng) {
  const policy::PolicyRegistry& policies = policy::PolicyRegistry::instance();
  enactor::RunManifest m;
  RandomApplication app = make_random_application(rng);
  m.workflow = std::move(app.workflow);
  m.inputs = std::move(app.inputs);
  const char* configs[] = {"NOP", "JG", "SP", "DP", "SP+DP", "SP+DP+JG"};
  enactor::EnactmentPolicy& p = m.policy;
  p = enactor::EnactmentPolicy::parse(configs[rng.uniform_int(0, 5)]);
  p.data_parallelism_cap = draw_count(rng, 0, 64);
  p.batch_size = draw_count(rng, 1, 64);
  p.adaptive_batching = draw_bool(rng);
  p.overhead_fraction_target = draw_real(rng, 1.0, false);
  p.max_batch = draw_count(rng, 1, 64);
  p.retry.max_attempts = draw_count(rng, 1, 8);
  p.retry.timeout_multiplier = draw_real(rng, 10.0, true);
  p.retry.timeout_min_samples = draw_count(rng, 1, 10);
  p.retry.backoff_initial_seconds = draw_real(rng, 600.0, true);
  p.retry.backoff_factor = draw_real(rng, 4.0, true);
  p.failure_policy = draw_bool(rng) ? enactor::FailurePolicy::kContinue
                                    : enactor::FailurePolicy::kFailFast;
  p.breaker.enabled = draw_bool(rng);
  if (p.breaker.enabled) {
    p.breaker.window = draw_count(rng, 1, 20);
    p.breaker.threshold = draw_count(rng, 1, 20);
    p.breaker.cooldown_seconds = draw_real(rng, 3600.0, false);
  }
  p.cache = draw_bool(rng);
  p.data_aware = draw_bool(rng);
  p.matchmaking = draw_name(rng, policies.matchmaking);
  p.placement = draw_name(rng, policies.placement);
  p.replica_policy = draw_name(rng, policies.replica);
  p.admission = draw_name(rng, policies.admission);
  p.replication = draw_name(rng, policies.replication);
  p.lineage_recovery = draw_bool(rng);
  p.max_recovery_depth = draw_count(rng, 1, 16);

  const char* presets[] = {"egee2006", "cluster", "constant"};
  m.grid_preset = presets[rng.uniform_int(0, 2)];
  m.seed = rng.next_u64();
  m.constant_overhead_seconds = draw_real(rng, 1000.0, true);
  m.cluster_nodes = draw_count(rng, 1, 512);
  m.orchestrator_bandwidth_mbps = draw_real(rng, 100.0, true);
  m.shards = draw_count(rng, 1, 8);
  m.pin_policy = draw_bool(rng) ? "least-loaded" : "hash";
  return m;
}

TEST(ManifestProperties, EveryAttributeSurvivesTheRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const enactor::RunManifest m = random_manifest(rng);
    const std::string xml = m.to_xml();
    const enactor::RunManifest r = enactor::RunManifest::from_xml(xml);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 xml.substr(0, xml.find("<workflow")));
    const enactor::EnactmentPolicy& a = m.policy;
    const enactor::EnactmentPolicy& b = r.policy;
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.data_parallelism_cap, b.data_parallelism_cap);
    EXPECT_EQ(a.batch_size, b.batch_size);
    EXPECT_EQ(a.adaptive_batching, b.adaptive_batching);
    EXPECT_EQ(a.overhead_fraction_target, b.overhead_fraction_target);
    EXPECT_EQ(a.overhead_hint_seconds, b.overhead_hint_seconds);
    EXPECT_EQ(a.max_batch, b.max_batch);
    EXPECT_EQ(a.retry.max_attempts, b.retry.max_attempts);
    EXPECT_EQ(a.retry.timeout_multiplier, b.retry.timeout_multiplier);
    EXPECT_EQ(a.retry.timeout_min_samples, b.retry.timeout_min_samples);
    EXPECT_EQ(a.retry.backoff_initial_seconds, b.retry.backoff_initial_seconds);
    EXPECT_EQ(a.retry.backoff_factor, b.retry.backoff_factor);
    EXPECT_EQ(a.failure_policy, b.failure_policy);
    EXPECT_EQ(a.breaker.enabled, b.breaker.enabled);
    EXPECT_EQ(a.breaker.window, b.breaker.window);
    EXPECT_EQ(a.breaker.threshold, b.breaker.threshold);
    EXPECT_EQ(a.breaker.cooldown_seconds, b.breaker.cooldown_seconds);
    EXPECT_EQ(a.cache, b.cache);
    EXPECT_EQ(a.data_aware, b.data_aware);
    EXPECT_EQ(a.matchmaking, b.matchmaking);
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_EQ(a.replica_policy, b.replica_policy);
    EXPECT_EQ(a.admission, b.admission);
    EXPECT_EQ(a.replication, b.replication);
    EXPECT_EQ(a.lineage_recovery, b.lineage_recovery);
    EXPECT_EQ(a.max_recovery_depth, b.max_recovery_depth);
    EXPECT_EQ(m.grid_preset, r.grid_preset);
    EXPECT_EQ(m.seed, r.seed);
    EXPECT_EQ(m.constant_overhead_seconds, r.constant_overhead_seconds);
    EXPECT_EQ(m.cluster_nodes, r.cluster_nodes);
    EXPECT_EQ(m.orchestrator_bandwidth_mbps, r.orchestrator_bandwidth_mbps);
    EXPECT_EQ(m.shards, r.shards);
    EXPECT_EQ(m.pin_policy, r.pin_policy);
    EXPECT_EQ(r.to_xml(), xml);  // workflow and data set included
  }
}

}  // namespace
}  // namespace moteur
