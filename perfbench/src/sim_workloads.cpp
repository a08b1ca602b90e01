// The two simulated workloads: `table1-sim` (the paper's Table-1 cells back
// to back) and `dataplane-sim` (Bronze SP+DP over three regional SEs with the
// data plane, the invocation cache and the standard RunRecorder).

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "app/bronze_standard.hpp"
#include "bench.hpp"
#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "obs/recorder.hpp"
#include "services/catalog.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "sim_workloads.hpp"
#include "trace.hpp"
#include "tracing_backend.hpp"

namespace perfbench {

using namespace moteur;

void register_bronze(services::ServiceRegistry& registry, Tracer* tracer) {
  for (const services::CatalogEntry& e : app::bronze_catalog()) {
    add_service(registry,
                services::make_simulated_service(e.id, e.input_ports, e.output_ports, e.profile),
                tracer);
  }
}

std::uint64_t run_digest(const enactor::EnactmentResult& result, bool data_plane) {
  std::uint64_t h = fnv1a(enactor::timeline_to_csv(result.timeline, data_plane));
  h = fnv1a(data::export_provenance(result.sink_outputs), h);
  char makespan[32];
  std::snprintf(makespan, sizeof makespan, "%.17g", result.makespan());
  return fnv1a(makespan, h);
}

grid::GridConfig dataplane_grid(std::uint64_t seed) {
  grid::GridConfig cfg = grid::GridConfig::egee2006(seed);
  for (const char* name : {"se-north", "se-south", "se-east"}) {
    grid::StorageElementConfig se;
    se.name = name;
    se.transfer_latency_seconds = 2.0;
    se.transfer_bandwidth_mb_per_s = 10.0;
    cfg.storage_elements.push_back(se);
  }
  for (std::size_t i = 0; i < cfg.computing_elements.size(); ++i) {
    cfg.computing_elements[i].close_storage_element = cfg.storage_elements[i % 3].name;
  }
  cfg.remote_transfer_penalty = 3.0;
  cfg.matchmaking_policy = "data-gravity";
  cfg.replication_policy = "push-to-consumer";
  return cfg;
}

enactor::EnactmentPolicy dataplane_policy() {
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.cache = true;
  policy.matchmaking = "data-gravity";
  policy.replication = "push-to-consumer";
  return policy;
}

namespace {

constexpr const char* kSyncProcessor = "MultiTransfoTest";

/// The Bronze services a tuple of `processor` takes with it when it fails
/// under the default fail-fast policy: the processor's members (a JG group
/// is named "a+b") and every per-pair service downstream of them, none of
/// which fires for that pair. The synchronized MultiTransfoTest is not per
/// pair; it still fires once, on the tuples that arrived.
std::set<std::string> lost_with(const std::string& processor) {
  static const workflow::Workflow wf = app::bronze_standard_workflow();
  std::set<std::string> lost;
  std::vector<std::string> todo;
  for (std::size_t begin = 0, end = 0; end != std::string::npos; begin = end + 1) {
    end = processor.find('+', begin);
    todo.push_back(processor.substr(begin, end - begin));
  }
  while (!todo.empty()) {
    const std::string name = std::move(todo.back());
    todo.pop_back();
    const workflow::Processor& p = wf.processor(name);
    if (p.kind != workflow::ProcessorKind::kService || p.synchronization) continue;
    if (!lost.insert(name).second) continue;
    for (const workflow::Link* link : wf.links_out_of(name)) todo.push_back(link->to_processor);
  }
  return lost;
}

}  // namespace

void check_bronze(const enactor::EnactmentResult& r, std::size_t pairs, std::size_t jobs_failed,
                  const std::string& label, Report& report) {
  std::map<std::size_t, std::set<std::string>> lost_at_pair;
  bool sync_lost = false;
  for (const enactor::FailureReport::LostTuple& tuple : r.failure_report.lost) {
    if (tuple.processor == kSyncProcessor) {
      sync_lost = true;
      continue;
    }
    const std::set<std::string> lost = lost_with(tuple.processor);
    lost_at_pair[tuple.indices.empty() ? 0 : tuple.indices.front()].insert(lost.begin(),
                                                                           lost.end());
  }
  std::size_t expected = 6 * pairs + (sync_lost ? 0 : 1);
  for (const auto& [pair, lost] : lost_at_pair) expected -= lost.size();
  const std::size_t tokens = sync_lost ? 0 : 1;

  bool ok = r.failures() == jobs_failed && r.failure_report.lost.size() == jobs_failed &&
            r.skipped() == 0 && r.invocations() == expected;
  for (const char* sink : {"accuracy_rotation", "accuracy_translation"}) {
    const auto it = r.sink_outputs.find(sink);
    const std::size_t got = it == r.sink_outputs.end() ? 0 : it->second.size();
    ok = ok && got == tokens && (got == 0 || !it->second.front().poisoned());
  }
  report.check(ok, ok ? std::string()
                     : label + ": " + std::to_string(jobs_failed) +
                           " grid jobs ran out of attempts; expected as many failures, " +
                           std::to_string(expected) + " invocations and " +
                           std::to_string(tokens) + " clean token(s) per sink; got " +
                           std::to_string(r.failures()) + " failures, " +
                           std::to_string(r.invocations()) + " invocations");
}

namespace {

constexpr const char* kConfigs[] = {"NOP", "JG", "SP", "DP", "SP+DP", "SP+DP+JG"};
constexpr std::size_t kSizes[] = {12, 66, 126};
constexpr std::size_t kCells = 18;  // size-major: cell = size index * 6 + config
constexpr std::size_t kDataplanePairs[] = {84, 126};
constexpr std::uint64_t kWarmupStream = 1ull << 40;

/// Counts read from the program's public counters, summed over runs.
struct Tallies {
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t jobs = 0;
  std::uint64_t invocations = 0;
  std::uint64_t submissions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t transfers = 0;
  std::uint64_t obs_spans = 0;
  double matches = 0.0;
  double peer_mb = 0.0;
  double ui_mb = 0.0;
};

double matchmaking_decisions(const obs::MetricsRegistry& metrics) {
  const obs::MetricsRegistry::Family* family = metrics.find("moteur_policy_decisions_total");
  if (family == nullptr) return 0.0;
  double sum = 0.0;
  for (const auto& [labels, instrument] : family->series) {
    const auto kind = labels.find("kind");
    if (kind != labels.end() && kind->second == "matchmaking" && instrument.counter) {
      sum += instrument.counter->value();
    }
  }
  return sum;
}

/// Keeps one untraced registry and, on demand, one wrapped for the current
/// tracer.
class Registries {
 public:
  Registries() { register_bronze(plain_, nullptr); }
  services::ServiceRegistry& get(Tracer* tracer) {
    if (tracer == nullptr) return plain_;
    if (traced_for_ != tracer) {
      traced_ = std::make_unique<services::ServiceRegistry>();
      register_bronze(*traced_, tracer);
      traced_for_ = tracer;
    }
    return *traced_;
  }

 private:
  services::ServiceRegistry plain_;
  std::unique_ptr<services::ServiceRegistry> traced_;
  Tracer* traced_for_ = nullptr;
};

// --- table1-sim ------------------------------------------------------------

/// One enactment's result and the grid jobs that ran out of attempts in it.
struct Enacted {
  enactor::EnactmentResult result;
  std::size_t jobs_failed = 0;
};
using Results = std::vector<Enacted>;

/// Set-up shared by every cell: the workflow, one data set per size and the
/// service registry. One measured run is the 18 cells back to back.
class Table1 {
 public:
  static constexpr std::size_t kItems = kCells;

  Table1() : workflow_(app::bronze_standard_workflow()) {
    for (const std::size_t n : kSizes) datasets_.push_back(app::bronze_standard_dataset(n));
  }

  /// One cell on a fresh grid realization, from grid construction to the
  /// enactment result.
  Results run(std::size_t cell, std::uint64_t grid_seed, Tracer* tracer,
              obs::MetricsRegistry* metrics, std::vector<obs::RunEvent>*, Tallies& tallies) {
    const enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::parse(kConfigs[cell % 6]);
    Results results(1);
    sim::Simulator simulator;
    grid::Grid grid(simulator, grid::GridConfig::egee2006(grid_seed));
    enactor::SimGridBackend sim_backend(grid);
    std::optional<TracingBackend> traced;
    if (tracer != nullptr) traced.emplace(sim_backend, *tracer);
    enactor::ExecutionBackend& backend =
        traced ? static_cast<enactor::ExecutionBackend&>(*traced) : sim_backend;
    if (metrics != nullptr) backend.set_metrics(metrics);
    enactor::Enactor enactor(backend, registries_.get(tracer), policy);
    enactor::RunRequest request;
    request.workflow = workflow_;
    request.inputs = datasets_[cell / 6];
    {
      Tracer::Scope span(tracer, Layer::kRun);
      results[0].result = enactor.run(request);
    }
    results[0].jobs_failed = grid.stats().failed;
    tallies.events += simulator.executed_events();
    tallies.jobs += grid.stats().submitted;
    return results;
  }

  /// Checks a cell's result; returns its digest when asked (0 otherwise).
  static std::uint64_t verify(std::size_t cell, const Results& results, bool digest,
                              Report& report) {
    const std::size_t pairs = kSizes[cell / 6];
    check_bronze(results[0].result, pairs, results[0].jobs_failed,
                 std::string(kConfigs[cell % 6]) + "@" + std::to_string(pairs), report);
    return digest ? run_digest(results[0].result, false) : 0;
  }

 private:
  workflow::Workflow workflow_;
  std::vector<data::InputDataSet> datasets_;
  Registries registries_;
};

// --- dataplane-sim ---------------------------------------------------------

/// One measured run is one case: a fresh grid, catalog, recorder and
/// Enactor; 84 pairs, then 126 pairs on the same Enactor, so the second
/// enactment reads the cache the first one wrote.
class Dataplane {
 public:
  static constexpr std::size_t kItems = 1;

  Dataplane() : workflow_(app::bronze_standard_workflow()), policy_(dataplane_policy()) {
    for (const std::size_t n : kDataplanePairs) datasets_.push_back(app::bronze_standard_dataset(n));
  }

  Results run(std::size_t, std::uint64_t grid_seed, Tracer* tracer, obs::MetricsRegistry*,
              std::vector<obs::RunEvent>* capture, Tallies& tallies) {
    Results results(2);
    data::ReplicaCatalog catalog;
    obs::RunRecorder recorder;
    sim::Simulator simulator;
    grid::Grid grid(simulator, dataplane_grid(grid_seed));
    enactor::SimGridBackend sim_backend(grid);
    sim_backend.set_catalog(&catalog);
    std::optional<TracingBackend> traced;
    if (tracer != nullptr) traced.emplace(sim_backend, *tracer);
    enactor::ExecutionBackend& backend =
        traced ? static_cast<enactor::ExecutionBackend&>(*traced) : sim_backend;
    backend.set_metrics(&recorder.metrics());
    enactor::Enactor enactor(backend, registries_.get(tracer), policy_);
    enactor.set_recorder(&recorder);
    if (capture != nullptr) {
      enactor.add_event_subscriber(
          [capture](const obs::RunEvent& event) { capture->push_back(event); });
    }
    for (std::size_t i = 0; i < 2; ++i) {
      enactor::RunRequest request;
      request.workflow = workflow_;
      request.inputs = datasets_[i];
      const std::size_t failed_before = grid.stats().failed;
      {
        Tracer::Scope span(tracer, Layer::kRun);
        results[i].result = enactor.run(request);
      }
      results[i].jobs_failed = grid.stats().failed - failed_before;
    }
    tallies.events += simulator.executed_events();
    tallies.jobs += grid.stats().submitted;
    tallies.matches += matchmaking_decisions(recorder.metrics());
    tallies.peer_mb += grid.stats().transfer_megabytes;
    tallies.ui_mb += grid.stats().ui_megabytes;
    tallies.transfers += grid.stats().transfers_completed;
    tallies.obs_spans += recorder.tracer().spans().size();
    if (const data::InvocationCache* cache = enactor.invocation_cache()) {
      const data::InvocationCache::Stats totals = cache->totals();
      tallies.cache_hits += totals.hits;
      tallies.cache_lookups += totals.hits + totals.misses;
    }
    return results;
  }

  /// Checks both enactments of a case; returns the case's digest when asked.
  static std::uint64_t verify(std::size_t, const Results& results, bool digest,
                              Report& report) {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < 2; ++i) {
      check_bronze(results[i].result, kDataplanePairs[i], results[i].jobs_failed,
                   "dataplane run " + std::to_string(i + 1), report);
      if (digest) h = fnv1a(std::to_string(run_digest(results[i].result, true)), h ^ i);
    }
    return h;
  }

 private:
  workflow::Workflow workflow_;
  enactor::EnactmentPolicy policy_;
  std::vector<data::InputDataSet> datasets_;
  Registries registries_;
};

/// Host time of one round: wall and this thread's CPU, in ms.
struct RoundTime {
  double ms = 0.0;
  double cpu_ms = 0.0;
};

/// Runs the items of one round on `seed`, timing (and, with `count_allocs`,
/// counting the allocations of) the enactments only, then checks them and,
/// when `digests` is set, appends their digests.
template <typename Workload>
RoundTime run_round(Workload& workload, std::uint64_t seed, Tracer* tracer,
                 obs::MetricsRegistry* metrics, std::vector<obs::RunEvent>* capture,
                 bool count_allocs, Tallies& tallies, Report& report,
                 std::vector<std::uint64_t>* digests) {
  std::vector<Results> outputs(Workload::kItems);
  set_alloc_counting(count_allocs);
  const double cpu_start = thread_cpu_ms();
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < Workload::kItems; ++i) {
    outputs[i] = workload.run(i, seed, tracer, metrics, i == 0 ? capture : nullptr, tallies);
  }
  const RoundTime time{static_cast<double>(now_ns() - start) / 1e6, thread_cpu_ms() - cpu_start};
  set_alloc_counting(false);
  ++tallies.runs;
  for (std::size_t i = 0; i < Workload::kItems; ++i) {
    for (const Enacted& e : outputs[i]) {
      tallies.invocations += e.result.invocations();
      tallies.submissions += e.result.submissions();
    }
    const std::uint64_t digest = Workload::verify(i, outputs[i], digests != nullptr, report);
    if (digests != nullptr) digests->push_back(digest);
  }
  return time;
}

/// Per-layer metrics of a single-threaded simulated traced segment.
void sim_layers(const Tracer& tracer, const Tallies& t, Report& report) {
  const double runs = static_cast<double>(t.runs);
  const auto ms_per_run = [runs](std::int64_t ns) { return static_cast<double>(ns) / 1e6 / runs; };
  const LayerTotals run = tracer.totals(Layer::kRun);
  const LayerTotals drive = tracer.totals(Layer::kDrive);
  const LayerTotals callback = tracer.totals(Layer::kCallback);
  const LayerTotals timer = tracer.totals(Layer::kTimer);
  const LayerTotals execute = tracer.totals(Layer::kExecute);
  const LayerTotals service = tracer.totals(Layer::kService);
  auto& m = report.metrics;
  m["sim.events"] = static_cast<double>(t.events) / runs;
  m["grid.self_ms"] = ms_per_run(drive.self_ns);
  m["grid.ns_per_event"] =
      t.events ? static_cast<double>(drive.self_ns) / static_cast<double>(t.events) : 0.0;
  m["grid.jobs"] = static_cast<double>(t.jobs) / runs;
  m["enactor.callback_self_ms"] = ms_per_run(callback.self_ns + timer.self_ns);
  m["enactor.outside_drive_ms"] = ms_per_run(run.self_ns);
  m["enactor.execute_us"] =
      execute.count ? static_cast<double>(execute.total_ns) / 1e3 / static_cast<double>(execute.count)
                    : 0.0;
  m["enactor.invocations"] = static_cast<double>(t.invocations) / runs;
  m["enactor.submissions"] = static_cast<double>(t.submissions) / runs;
  m["services.self_ms"] = ms_per_run(service.self_ns);
  m["data.cache_lookups"] = static_cast<double>(t.cache_lookups) / runs;
  m["data.cache_hit_ratio"] = t.cache_lookups ? static_cast<double>(t.cache_hits) /
                                                    static_cast<double>(t.cache_lookups)
                                              : 0.0;
  m["data.peer_mb"] = t.peer_mb / runs;
  m["data.ui_mb"] = t.ui_mb / runs;
  m["data.transfers"] = static_cast<double>(t.transfers) / runs;
  m["obs.spans"] = static_cast<double>(t.obs_spans) / runs;
  m["trace.root_ms"] = ms_per_run(run.root_ns);
  const std::int64_t self_sum = run.self_ns + drive.self_ns + callback.self_ns + timer.self_ns +
                                execute.self_ns + service.self_ns;
  m["trace.accounted_frac"] =
      run.root_ns ? static_cast<double>(self_sum) / static_cast<double>(run.root_ns) : 0.0;
}

/// Drives one simulated workload through the shared measuring protocol:
/// set-up (timed, repeated), warm-up, an untraced measured segment, a
/// same-seed replay, and a traced segment whose outputs must match. One
/// measured run is a round of the workload's items on one grid seed.
template <typename Workload>
void measure_sim(const Options& options, const char* name, Report& report) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetupRepeats; ++k) {
    workload.reset();
    const double start_ms = process_cpu_ms();
    workload = std::make_unique<Workload>();
    setup_s.push_back((process_cpu_ms() - start_ms) / 1e3);
  }
  const auto seed_of = [&](std::uint64_t round) { return mix_seed(options.seed, round); };
  Tallies warm;
  run_round(*workload, seed_of(kWarmupStream), nullptr, nullptr, nullptr, false, warm, report,
            nullptr);

  // Untraced segment: whole runs until the budget is spent. Digests are
  // kept for the runs the traced segment replays (all of them when traced).
  std::vector<std::uint64_t> digests;
  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<double> run_ms;
  Tallies untraced;
  const std::int64_t begin = now_ns();
  Windows windows(begin);
  for (std::uint64_t round = 0;
       round == 0 || static_cast<double>(now_ns() - begin) / 1e9 < budget; ++round) {
    const RoundTime time = run_round(*workload, seed_of(round), nullptr, nullptr, nullptr, false,
                                     untraced, report,
                                     round == 0 || options.trace ? &digests : nullptr);
    run_ms.push_back(time.ms);
    windows.add(time.ms, time.cpu_ms, now_ns());
  }
  const std::size_t rounds = run_ms.size();

  // Same seed, same process: identical timeline and provenance. The replay
  // also counts matchmaking decisions (the dataplane recorder counts them
  // itself); a counter on the traced runs would inflate the grid's self time.
  Tallies replay;
  std::vector<std::uint64_t> replayed;
  obs::MetricsRegistry decisions;
  run_round(*workload, seed_of(0), nullptr, &decisions, nullptr, false, replay, report, &replayed);
  replay.matches += matchmaking_decisions(decisions);
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    report.check(replayed[i] == digests[i], std::string(name) + ": replaying run 0 item " +
                                                std::to_string(i) + " changed its digest");
  }

  // Traced segment: every measured run again (only run 0 when the run is
  // untraced) through the decorators; outputs must not change.
  Tracer tracer;
  std::vector<obs::RunEvent> captured;
  Tallies traced;
  std::vector<std::uint64_t> traced_digests;
  double traced_ms = 0.0;
  double untraced_ms = 0.0;
  const std::size_t traced_rounds = options.trace ? rounds : 1;
  for (std::size_t round = 0; round < traced_rounds; ++round) {
    if (round == kSampledRuns) tracer.stop_keeping();
    Tracer::set_current_run(round + 1);
    traced_ms += run_round(*workload, seed_of(round), &tracer, nullptr,
                           round == 0 ? &captured : nullptr, false, traced, report,
                           &traced_digests)
                     .ms;
    untraced_ms += run_ms[round];
  }
  Tracer::set_current_run(0);
  for (std::size_t i = 0; i < traced_digests.size(); ++i) {
    report.check(traced_digests[i] == digests[i], std::string(name) + ": traced item " +
                                                      std::to_string(i) +
                                                      " differs from the untraced run");
  }

  if (!options.trace) {
    auto& m = report.metrics;
    m["setup_s"] = median(setup_s);
    m["runs_per_s"] = windows.runs_per_s();
    m["cpu_ms_per_run"] = windows.cpu_ms_per_run();
    report.info["run_ms_p50"] = windows.percentile(50.0);
    report.info["run_ms_p90"] = windows.percentile(90.0);
    report.info["run_ms_p99"] = percentile(run_ms, 99.0);
    report.info["late_ms_p90"] = 0.0;
    report.info["runs_measured"] = static_cast<double>(run_ms.size());
    report.info["windows"] = static_cast<double>(windows.count());
    report.series = windows.series();
    return;
  }

  // Allocations are counted in a pass of their own, so no timed run pays
  // for the counting.
  Tallies counted;
  const std::uint64_t allocs_before = alloc_count();
  run_round(*workload, seed_of(0), nullptr, nullptr, nullptr, true, counted, report, nullptr);
  const std::uint64_t allocs = alloc_count() - allocs_before;

  sim_layers(tracer, traced, report);
  auto& m = report.metrics;
  m["policy.matches"] = replay.matches / static_cast<double>(replay.runs);
  m["enactor.allocs_per_invocation"] =
      static_cast<double>(allocs) / static_cast<double>(counted.invocations);
  m["trace.overhead_frac"] = traced_ms / untraced_ms - 1.0;

  if (!captured.empty()) {
    std::vector<double> ns_per_event;
    for (int k = 0; k < 7; ++k) {
      obs::RunRecorder fresh;
      const std::int64_t start = now_ns();
      for (const obs::RunEvent& event : captured) fresh.on_event(event);
      ns_per_event.push_back(static_cast<double>(now_ns() - start) /
                             static_cast<double>(captured.size()));
    }
    m["obs.on_event_ns"] = median(ns_per_event);
  }
  const std::string spans = options.out_dir + "/spans-" + name + "-seed" +
                            std::to_string(options.seed) + ".csv";
  report.info["spans_written"] = static_cast<double>(tracer.write_csv(spans));
  report.info["spans_not_kept_frac"] = tracer.not_kept_frac();
}

}  // namespace

Report run_table1(const Options& options) {
  Report report;
  measure_sim<Table1>(options, "table1-sim", report);
  return report;
}

Report run_dataplane(const Options& options) {
  Report report;
  measure_sim<Dataplane>(options, "dataplane-sim", report);
  return report;
}

}  // namespace perfbench
