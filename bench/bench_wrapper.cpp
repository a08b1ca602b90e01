// E9 — Microbenchmarks of the hot enactor-side paths: descriptor parsing,
// dynamic command-line composition, iteration-buffer matching (flat and
// composed), token copies, provenance construction, the grouping optimizer,
// the discrete-event kernel and the resource broker's matchmaking.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "app/bronze_standard.hpp"
#include "data/token.hpp"
#include "grid/background_load.hpp"
#include "grid/config.hpp"
#include "grid/overhead_model.hpp"
#include "grid/resource_broker.hpp"
#include "services/descriptor.hpp"
#include "sim/simulator.hpp"
#include "workflow/grouping.hpp"
#include "workflow/iteration.hpp"
#include "workflow/iteration_tree.hpp"
#include "workflow/scufl.hpp"

namespace {

using namespace moteur;

const char* kFigure8Xml = R"(<description>
  <executable name="CrestLines.pl">
    <access type="URL"><path value="http://colors.unice.fr"/></access>
    <value value="CrestLines.pl"/>
    <input name="floating_image" option="-im1"><access type="GFN"/></input>
    <input name="reference_image" option="-im2"><access type="GFN"/></input>
    <input name="scale" option="-s"/>
    <output name="crest_reference" option="-c1"><access type="GFN"/></output>
    <output name="crest_floating" option="-c2"><access type="GFN"/></output>
    <sandbox name="convert8bits">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="Convert8bits.pl"/>
    </sandbox>
  </executable>
</description>)";

void BM_DescriptorParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(services::Descriptor::from_xml(kFigure8Xml));
  }
}
BENCHMARK(BM_DescriptorParse);

void BM_CommandLineComposition(benchmark::State& state) {
  const auto descriptor = services::Descriptor::from_xml(kFigure8Xml);
  const std::map<std::string, std::string> values{
      {"floating_image", "gfn://images/p0_flo.mhd"},
      {"reference_image", "gfn://images/p0_ref.mhd"},
      {"scale", "1"},
      {"crest_reference", "gfn://crests/p0_c1"},
      {"crest_floating", "gfn://crests/p0_c2"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(descriptor.compose_command_line(values));
  }
}
BENCHMARK(BM_CommandLineComposition);

void BM_ScuflRoundTrip(benchmark::State& state) {
  const auto wf = app::bronze_standard_workflow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(workflow::from_scufl(workflow::to_scufl(wf)));
  }
}
BENCHMARK(BM_ScuflRoundTrip);

void BM_DotProductMatching(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    workflow::IterationBuffer buffer(workflow::IterationStrategy::kDot, {"a", "b"});
    for (std::size_t j = 0; j < n; ++j) {
      buffer.push("a", data::Token::from_source("A", j, j, "a"));
    }
    for (std::size_t j = 0; j < n; ++j) {
      buffer.push("b", data::Token::from_source("B", j, j, "b"));
    }
    benchmark::DoNotOptimize(buffer.drain_ready());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DotProductMatching)->Arg(16)->Arg(128)->Arg(1024);

void BM_CrossProductMatching(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    workflow::IterationBuffer buffer(workflow::IterationStrategy::kCross, {"a", "b"});
    for (std::size_t j = 0; j < n; ++j) {
      buffer.push("a", data::Token::from_source("A", j, j, "a"));
      buffer.push("b", data::Token::from_source("B", j, j, "b"));
    }
    benchmark::DoNotOptimize(buffer.drain_ready());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_CrossProductMatching)->Arg(8)->Arg(32)->Arg(64);

// Push plus pump through the engine's iteration layer: N tokens per port
// into a flat 2-port dot (range(1) == 0) or into cross(dot(a,b),c)
// (range(1) == 1), draining every firing tuple. Tokens are built once.
void BM_CompositeIterationPush(benchmark::State& state) {
  using workflow::IterationNode;
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool nested = state.range(1) != 0;
  std::vector<std::string> ports{"a", "b"};
  if (nested) ports.push_back("c");
  std::vector<std::vector<data::Token>> tokens(ports.size());
  for (std::size_t p = 0; p < ports.size(); ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::string value = "gfn://" + ports[p] + "/" + std::to_string(j);
      tokens[p].push_back(data::Token::from_source(ports[p], j, value, value));
    }
  }
  const auto tree = [&] {
    auto ab = IterationNode::dot({IterationNode::leaf("a"), IterationNode::leaf("b")});
    if (!nested) return ab;
    return IterationNode::cross({std::move(ab), IterationNode::leaf("c")});
  };
  std::size_t tuples = 0;
  for (auto _ : state) {
    workflow::CompositeIterationBuffer buffer(tree());
    for (std::size_t p = 0; p < ports.size(); ++p) {
      const std::size_t slot = buffer.port_index(ports[p]);
      for (const auto& token : tokens[p]) buffer.push(slot, token);
    }
    const auto ready = buffer.drain_ready();
    tuples = ready.size();
    benchmark::DoNotOptimize(ready.data());
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * ports.size()));
}
BENCHMARK(BM_CompositeIterationPush)
    ->ArgsProduct({{16, 128}, {0, 1}})
    ->ArgNames({"n", "nested"});

// Copying one derived token, the way fan-out and bindings copy them.
void BM_TokenCopy(benchmark::State& state) {
  const std::string ref = "gfn://images/p3_ref.mhd";
  const std::string flo = "gfn://images/p3_flo.mhd";
  const data::Token a = data::Token::from_source("referenceImage", 3, ref, ref);
  const data::Token b = data::Token::from_source("floatingImage", 3, flo, flo);
  const std::string out =
      "gfn://crestLines/crest_reference(" + a.id() + "," + b.id() + ")";
  const data::Token token =
      data::Token::derived("crestLines", "crest_reference", {a, b}, {3}, out, out);
  for (auto _ : state) {
    data::Token copy = token;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_TokenCopy);

void BM_ProvenanceChain(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    data::Token token = data::Token::from_source("src", 0, 0, "0");
    for (std::size_t d = 0; d < depth; ++d) {
      token = data::Token::derived("P" + std::to_string(d), "out", {token},
                                   token.indices(), 0, "0");
    }
    benchmark::DoNotOptimize(token.id());
  }
}
BENCHMARK(BM_ProvenanceChain)->Arg(5)->Arg(20);

void BM_GroupingOptimizer(benchmark::State& state) {
  const auto wf = app::bronze_standard_workflow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(workflow::group_sequential_processors(wf));
  }
}
BENCHMARK(BM_GroupingOptimizer);

void BM_SimulatorThroughput(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    for (std::size_t e = 0; e < events; ++e) {
      simulator.schedule(static_cast<double>(e % 97), [] {});
    }
    simulator.run();
    benchmark::DoNotOptimize(simulator.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorThroughput)->Arg(1000)->Arg(100000)->Arg(1000000);

// Watchdog-style churn: every other event is cancelled before it runs, so
// half the heap entries surface stale.
void BM_SimulatorCancelHeavy(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::vector<sim::EventId> ids(events);
  for (auto _ : state) {
    sim::Simulator simulator;
    for (std::size_t e = 0; e < events; ++e) {
      ids[e] = simulator.schedule(static_cast<double>(e % 97), [] {});
    }
    for (std::size_t e = 0; e < events; e += 2) simulator.cancel(ids[e]);
    simulator.run();
    benchmark::DoNotOptimize(simulator.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorCancelHeavy)->Arg(1000)->Arg(100000);

// One matchmaking decision on the egee2006 sites, with CE queues in the state
// six simulated hours of background load leave them in.
void BM_BrokerMatch(benchmark::State& state) {
  sim::Simulator simulator;
  const grid::GridConfig config = grid::GridConfig::egee2006(11);
  const Rng rng(11);
  grid::OverheadModel overhead(config, rng);
  grid::ResourceBroker broker(simulator, overhead, config.broker_concurrency,
                              config.broker_occupancy_fraction, rng);
  for (const auto& ce : config.computing_elements) {
    broker.add_computing_element(
        std::make_unique<grid::ComputingElement>(simulator, ce, rng));
  }
  const grid::BackgroundLoad background(
      simulator, broker, config.background_jobs_per_hour, config.background_mean_duration,
      config.background_horizon_seconds, rng);
  simulator.run_until(6 * 3600.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&broker.match());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrokerMatch);

}  // namespace
