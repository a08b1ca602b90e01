// Tests of the benchmark itself: the tracing decorators must not change
// what the program computes, their spans must account for the root span,
// decorated channels must keep a RunService's shard count, and the
// open-loop schedule must be a pure function of the seed.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "app/bronze_standard.hpp"
#include "bench.hpp"
#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/threaded_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "service/run_service.hpp"
#include "services/catalog.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "sim_workloads.hpp"
#include "tenant_open.hpp"
#include "trace.hpp"
#include "tracing_backend.hpp"

namespace {

using namespace moteur;
using perfbench::Layer;
using perfbench::Tracer;
using perfbench::TracingBackend;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Artifacts {
  std::string csv;
  std::string provenance;
  std::size_t submissions = 0;
};

/// One simulated Bronze run, decorated end to end when `tracer` is set.
Artifacts enact(const grid::GridConfig& config, const enactor::EnactmentPolicy& policy,
                const workflow::Workflow& wf, const data::InputDataSet& inputs,
                services::ServiceRegistry& registry, Tracer* tracer, bool data_plane) {
  data::ReplicaCatalog catalog;
  sim::Simulator simulator;
  grid::Grid grid(simulator, config);
  enactor::SimGridBackend sim_backend(grid);
  if (data_plane) sim_backend.set_catalog(&catalog);
  std::optional<TracingBackend> traced;
  if (tracer != nullptr) traced.emplace(sim_backend, *tracer);
  enactor::ExecutionBackend& backend =
      traced ? static_cast<enactor::ExecutionBackend&>(*traced) : sim_backend;
  enactor::Enactor moteur(backend, registry, policy);
  enactor::RunRequest request;
  request.workflow = wf;
  request.inputs = inputs;
  enactor::EnactmentResult result;
  {
    Tracer::Scope span(tracer, Layer::kRun);
    result = moteur.run(request);
  }
  EXPECT_EQ(result.failures(), 0u);
  return {enactor::timeline_to_csv(result.timeline, data_plane),
          data::export_provenance(result.sink_outputs), result.submissions()};
}

TEST(TracingDecorators, DecoratedManifestRunReproducesTheCommittedGolden) {
  const std::string repo = MOTEUR_REPO_DIR;
  const enactor::RunManifest manifest =
      enactor::RunManifest::from_xml(read_file(repo + "/examples/data/bronze_run.xml"));
  Tracer tracer;
  services::ServiceRegistry registry;
  for (const services::CatalogEntry& e :
       services::parse_catalog(read_file(repo + "/examples/data/bronze_services.xml"))) {
    perfbench::add_service(registry,
                           services::make_simulated_service(e.id, e.input_ports,
                                                            e.output_ports, e.profile),
                           &tracer);
  }
  const Artifacts traced = enact(manifest.make_grid_config(), manifest.policy, manifest.workflow,
                                 manifest.inputs, registry, &tracer, false);
  EXPECT_EQ(traced.csv, read_file(repo + "/tests/golden/bronze_timeline.csv"));
  EXPECT_EQ(traced.provenance, read_file(repo + "/tests/golden/bronze_provenance.xml"));
}

TEST(TracingDecorators, BronzeTimelinesAreByteIdenticalWithAndWithout) {
  const workflow::Workflow wf = app::bronze_standard_workflow();
  const data::InputDataSet inputs = app::bronze_standard_dataset(12);
  services::ServiceRegistry plain;
  perfbench::register_bronze(plain, nullptr);
  for (const char* config : {"NOP", "SP+DP", "SP+DP+JG"}) {
    Tracer tracer;
    services::ServiceRegistry wrapped;
    perfbench::register_bronze(wrapped, &tracer);
    const enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::parse(config);
    const grid::GridConfig grid = grid::GridConfig::egee2006(7);
    const Artifacts a = enact(grid, policy, wf, inputs, plain, nullptr, false);
    const Artifacts b = enact(grid, policy, wf, inputs, wrapped, &tracer, false);
    EXPECT_EQ(a.csv, b.csv) << config;
    EXPECT_EQ(a.provenance, b.provenance) << config;
  }
  // The data plane path: catalog, data-gravity, push-to-consumer, cache.
  Tracer tracer;
  services::ServiceRegistry wrapped;
  perfbench::register_bronze(wrapped, &tracer);
  const grid::GridConfig grid = perfbench::dataplane_grid(11);
  const Artifacts a = enact(grid, perfbench::dataplane_policy(), wf, inputs, plain, nullptr, true);
  const Artifacts b =
      enact(grid, perfbench::dataplane_policy(), wf, inputs, wrapped, &tracer, true);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.provenance, b.provenance);
}

TEST(TracingDecorators, SelfTimesAccountForTheRootSpan) {
  Tracer tracer;
  services::ServiceRegistry wrapped;
  perfbench::register_bronze(wrapped, &tracer);
  const Artifacts run =
      enact(grid::GridConfig::egee2006(3), enactor::EnactmentPolicy::sp_dp(),
            app::bronze_standard_workflow(), app::bronze_standard_dataset(12), wrapped, &tracer,
            false);
  std::int64_t self_sum = 0;
  std::int64_t root_sum = 0;
  for (std::size_t k = 0; k < perfbench::kLayers; ++k) {
    const perfbench::LayerTotals t = tracer.totals(static_cast<Layer>(k));
    self_sum += t.self_ns;
    root_sum += t.root_ns;
    EXPECT_GE(t.self_ns, 0);
    EXPECT_LE(t.self_ns, t.total_ns);
  }
  const perfbench::LayerTotals root = tracer.totals(Layer::kRun);
  EXPECT_EQ(root.count, 1u);
  EXPECT_EQ(root_sum, root.total_ns);  // the run span is the only root
  EXPECT_EQ(self_sum, root_sum);
  // Every execute got exactly one completion callback.
  EXPECT_EQ(tracer.totals(Layer::kExecute).count, run.submissions);
  EXPECT_EQ(tracer.totals(Layer::kCallback).count, run.submissions);
  EXPECT_GT(tracer.totals(Layer::kService).count, 0u);
}

TEST(TracingDecorators, SpansAfterStopKeepingAreCountedButNotKept) {
  Tracer tracer;
  { Tracer::Scope span(&tracer, Layer::kRun); }
  tracer.stop_keeping();
  for (int i = 0; i < 3; ++i) Tracer::Scope span(&tracer, Layer::kRun);
  EXPECT_EQ(tracer.totals(Layer::kRun).count, 4u);
  EXPECT_EQ(tracer.dropped(), 3u);
  EXPECT_DOUBLE_EQ(tracer.not_kept_frac(), 0.75);
}

TEST(BronzeCheck, AcceptsExactlyTheTuplesLostToExhaustedGridJobs) {
  const workflow::Workflow wf = app::bronze_standard_workflow();
  const data::InputDataSet inputs = app::bronze_standard_dataset(12);
  services::ServiceRegistry registry;
  perfbench::register_bronze(registry, nullptr);
  std::size_t sinks_fed = 0;  // runs with losses whose MultiTransfoTest still fired
  std::size_t sinks_lost = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    grid::GridConfig config = grid::GridConfig::egee2006(seed);
    config.failure_probability = 0.05;
    config.max_attempts = 1;  // every failed attempt loses its job
    for (const char* name : {"NOP", "SP+DP", "SP+DP+JG"}) {
      sim::Simulator simulator;
      grid::Grid grid(simulator, config);
      enactor::SimGridBackend backend(grid);
      enactor::Enactor moteur(backend, registry, enactor::EnactmentPolicy::parse(name));
      enactor::RunRequest request;
      request.workflow = wf;
      request.inputs = inputs;
      const enactor::EnactmentResult result = moteur.run(request);
      const std::size_t failed = grid.stats().failed;
      const std::string label = std::string(name) + " seed " + std::to_string(seed);

      perfbench::Report accepted;
      perfbench::check_bronze(result, 12, failed, label, accepted);
      EXPECT_EQ(accepted.failed, 0u) << accepted.problems.front();
      if (failed == 0) continue;
      const auto sink = result.sink_outputs.find("accuracy_rotation");
      if (sink != result.sink_outputs.end() && !sink->second.empty()) {
        ++sinks_fed;
      } else {
        ++sinks_lost;
      }

      perfbench::Report miscounted;
      perfbench::check_bronze(result, 12, failed - 1, label, miscounted);
      EXPECT_EQ(miscounted.failed, 1u) << label;

      enactor::EnactmentResult short_one = result;  // one more invocation missing
      --short_one.stats.invocations;
      perfbench::Report incomplete;
      perfbench::check_bronze(short_one, 12, failed, label, incomplete);
      EXPECT_EQ(incomplete.failed, 1u) << label;
    }
  }
  EXPECT_GT(sinks_fed, 0u);
  EXPECT_GT(sinks_lost, 0u);
}

TEST(TracingDecorators, DecoratedChannelsKeepTheShardCount) {
  Tracer tracer;
  enactor::ThreadedBackend threaded(1);
  TracingBackend backend(threaded, tracer);
  services::ServiceRegistry registry;
  perfbench::add_service(registry,
                         std::make_shared<services::FunctionalService>(
                             "p0", std::vector<std::string>{"in"},
                             std::vector<std::string>{"out"},
                             [](const services::Inputs&) {
                               services::Result result;
                               result.outputs["out"].repr = "x";
                               return result;
                             }),
                         &tracer);
  workflow::Workflow wf("one-stage");
  wf.add_source("src");
  wf.add_processor("p0", {"in"}, {"out"});
  wf.add_sink("sink");
  wf.link("src", "out", "p0", "in");
  wf.link("p0", "out", "sink", "in");
  data::InputDataSet inputs;
  for (int i = 0; i < 4; ++i) inputs.add_item("src", "i" + std::to_string(i));

  service::RunServiceConfig config;
  config.sharding.shards = 2;
  std::int64_t roundtrips = 0;
  {
    service::RunService runs(backend, registry, config);
    EXPECT_EQ(runs.shards(), 2u);
    std::vector<service::RunHandle> handles;
    for (int r = 0; r < 8; ++r) {
      enactor::RunRequest request;
      request.name = "r" + std::to_string(r);
      request.workflow = wf;
      request.inputs = inputs;
      handles.push_back(runs.submit(std::move(request)));
    }
    for (const auto& h : handles) {
      EXPECT_EQ(h.wait(), service::RunState::kFinished);
      EXPECT_EQ(h.result().invocations(), 4u);
    }
    runs.shutdown();
    roundtrips = static_cast<std::int64_t>(backend.counters().roundtrips().size());
  }
  EXPECT_EQ(roundtrips, 32);
  EXPECT_EQ(backend.counters().inflight.load(), 0);
  EXPECT_GE(tracer.totals(Layer::kDrive).count, 2u);  // both shards drove their channel
  EXPECT_EQ(tracer.totals(Layer::kService).count, 32u);
}

TEST(OpenLoopSchedule, IsDeterministicPerSeed) {
  const std::vector<double> a = perfbench::tenant_schedule(42, 5.0);
  const std::vector<double> b = perfbench::tenant_schedule(42, 5.0);
  const std::vector<double> c = perfbench::tenant_schedule(43, 5.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // 400 runs/s: 2000 arrivals in 5 s, at least half an interval apart.
  ASSERT_EQ(a.size(), 2000u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i] - a[i - 1], 0.5 / 400.0 - 1e-12);
  EXPECT_LT(a.back(), 5.0);
  // A shorter window is a prefix of a longer one.
  const std::vector<double> prefix = perfbench::tenant_schedule(42, 2.5);
  ASSERT_LE(prefix.size(), a.size());
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), a.begin()));
}

TEST(Statistics, PercentileInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(perfbench::percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::percentile({0.0, 10.0}, 90.0), 9.0);
}

}  // namespace
