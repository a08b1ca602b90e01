// moteur_cli — drive the MOTEUR enactor from XML documents, no code needed:
// run, save-manifest, validate, model (§3.5 predictions) and export-bronze.
// Every flag is one row of kFlags: its name, value, help line, the commands
// that take it, and how its value is checked and stored. The parser and each
// command's usage text (run with no arguments to see it) come from the table.
//
// Exit status: 0 on success, 1 on usage errors, 2 on run failures.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "app/bronze_standard.hpp"
#include "data/invocation_cache.hpp"
#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/diagram.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "model/dag.hpp"
#include "model/makespan.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "policy/registry.hpp"
#include "service/run_service.hpp"
#include "services/catalog.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "workflow/analysis.hpp"
#include "workflow/grouping.hpp"
#include "workflow/scufl.hpp"

namespace {

using namespace moteur;
using namespace std::string_literals;
using Text = const std::string&;
using Manifest = enactor::RunManifest;
using Policy = enactor::EnactmentPolicy;
using GridConfig = grid::GridConfig;
using Registry = policy::PolicyRegistry;
using enactor::parse_failure_policy;
using service::parse_pin_policy;

/// A command-line mistake: unknown flag, missing or malformed value, missing
/// required flag. main() prints it with the command's usage and exits 1.
struct UsageError : Error {
  using Error::Error;
};

std::string read_file(const std::string& path) {
  std::ifstream input(path);
  if (!input) throw Error("cannot read file '" + path + "'");
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream output(path);
  if (!output) throw Error("cannot write file '" + path + "'");
  output << content;
}

Text required(Text value, const char* flag) {
  if (value.empty()) throw UsageError(std::string("missing ") + flag);
  return value;
}

struct Flag;
using Given = std::map<const Flag*, std::string>;  // flag values by table row

/// What one command line asks for. Run overrides and grid knobs are checked
/// when parsed, then applied from `given` once the manifests are loaded.
struct Options {
  Given given;
  std::string manifest, workflow, data, services, out, dot, dir;
  std::vector<std::string> manifests;
  bool multi = false;  // a kMulti flag was given: enact through the RunService
  std::size_t runs = 1;
  service::RunServiceConfig service;
  double linger_seconds = 0.0;
  std::string csv, provenance, failure_report, trace_out, metrics_out, cache_stats_out,
      critical_path;
  bool trace = false, obs_summary = false;
  std::optional<double> diagram;  // seconds per column; 0 = auto scale
  std::optional<std::size_t> nd;
  std::size_t nw = 0, pairs = 12;
  double t = 1.0;
};

/// A flag's value as its row sees it: the text, the flag's name, and the
/// util/flags parsers bound to both.
using Value = FlagValue;

const Registry& policies() { return Registry::instance(); }

/// The run's circuit breakers, switched on: any breaker knob switches them on.
grid::BreakerPolicy& breaker(Policy& p) {
  p.breaker.enabled = true;
  return p.breaker;
}

enum Command : unsigned { kRun = 1, kSave = 2, kValidate = 4, kModel = 8, kExport = 16 };
constexpr unsigned kRunSave = kRun | kSave;
/// A run flag only the RunService honours: any one of them routes the run there.
constexpr unsigned kMulti = kRun | 32;

/// One row of kFlags. `set` is where the value goes: a string field of
/// Options, or a setter that checks it and writes it into Options, into every
/// run manifest or its policy, or into the grid config.
struct Flag {
  const char* name;
  const char* value;  // usage placeholder; nullptr = boolean, "[...]" = optional value
  const char* help;
  unsigned commands;  // Command bits
  std::variant<std::string Options::*, void (*)(Options&, Value),
               void (*)(Manifest&, Value), void (*)(Policy&, Value),
               void (*)(GridConfig&, Value)>
      set;
};

// Manifest rows apply before policy rows (--policy replaces the whole
// policy), and each kind in table order, whatever the argv order.
const Flag kFlags[] = {
    {"manifest", "RUN.xml", "run manifest", kRunSave, &Options::manifest},
    {"manifests", "A.xml,B.xml,...", "one concurrent run per listed manifest", kMulti,
     [](Options& o, Value v) { o.manifests = split(v.text, ','); }},
    {"workflow", "WF.xml", "Scufl workflow", kRunSave | kValidate, &Options::workflow},
    {"data", "DS.xml", "input data set", kRunSave, &Options::data},
    {"services", "CAT.xml", "service catalog", kRun | kValidate, &Options::services},
    // Run overrides, applied to every manifest of the run.
    {"policy", "NAME", "NOP|JG|SP|DP|SP+DP|SP+DP+JG", kRunSave,
     [](Manifest& m, Value v) { m.policy = Policy::parse(v.text, v.flag); }},
    {"grid", "PRESET", "egee2006|cluster|constant", kRunSave,
     [](Manifest& m, Value v) { m.grid_preset = v.text; }},
    {"seed", "N", "simulation seed", kRunSave,
     [](Manifest& m, Value v) { m.seed = v.count(); }},
    {"overhead", "SECONDS", "per-job overhead of the constant grid", kRunSave,
     [](Manifest& m, Value v) { m.constant_overhead_seconds = v.nonnegative_seconds(); }},
    {"batch", "K", "data tuples per grouped job", kRunSave,
     [](Policy& p, Value v) { p.batch_size = v.positive_count(); }},
    {"adaptive", nullptr, "batch size from the overhead/compute ratio", kRunSave,
     [](Policy& p, Value) { p.adaptive_batching = true; }},
    {"retries", "N", "enactor-level attempts per invocation", kRunSave,
     [](Policy& p, Value v) { p.retry.max_attempts = v.positive_count(); }},
    {"retry-timeout", "MULT", "watchdog deadline, x median latency (0 = off)", kRunSave,
     [](Policy& p, Value v) { p.retry.timeout_multiplier = v.nonnegative_real(); }},
    {"retry-backoff", "SECONDS", "initial resubmission backoff", kRunSave,
     [](Policy& p, Value v) {
       p.retry.backoff_initial_seconds = v.nonnegative_seconds();
     }},
    {"failure-policy", "NAME", "failfast|continue (with partial results)", kRunSave,
     [](Policy& p, Value v) { p.failure_policy = parse_failure_policy(v.text, v.flag); }},
    {"breaker", nullptr, "per-CE circuit breakers", kRunSave,
     [](Policy& p, Value) { breaker(p); }},
    {"breaker-window", "N", "outcomes a breaker remembers", kRunSave,
     [](Policy& p, Value v) { breaker(p).window = v.positive_count(); }},
    {"breaker-threshold", "N", "failures in the window that open a breaker", kRunSave,
     [](Policy& p, Value v) { breaker(p).threshold = v.positive_count(); }},
    {"breaker-cooldown", "SECONDS", "open time before a half-open probe", kRunSave,
     [](Policy& p, Value v) { breaker(p).cooldown_seconds = v.positive_seconds(); }},
    {"cache", nullptr, "memoize invocations", kRunSave,
     [](Policy& p, Value) { p.cache = true; }},
    {"data-aware", nullptr, "rank CEs by stage-in cost", kRunSave,
     [](Policy& p, Value) { p.data_aware = true; }},
    {"matchmaking", "NAME", "queue-rank|data-gravity|locality-first|k-choices", kRunSave,
     [](Policy& p, Value v) {
       p.matchmaking = policies().matchmaking.check(v.text, v.flag);
     }},
    {"placement", "NAME", "rematch|avoid-previous|spread", kRunSave,
     [](Policy& p, Value v) {
       p.placement = policies().placement.check(v.text, v.flag);
     }},
    {"replica-policy", "NAME", "close-se|broadcast", kRunSave,
     [](Policy& p, Value v) {
       p.replica_policy = policies().replica.check(v.text, v.flag);
     }},
    {"admission-policy", "NAME", "weighted|round-robin", kRunSave,
     [](Policy& p, Value v) {
       p.admission = policies().admission.check(v.text, v.flag);
     }},
    {"replication-policy", "NAME", "none|push-to-consumer|fanout-k", kRunSave,
     [](Policy& p, Value v) {
       p.replication = policies().replication.check(v.text, v.flag);
     }},
    {"orchestrator-bw", "MBPS", "orchestrator link bandwidth (0 = unlimited)", kRunSave,
     [](Manifest& m, Value v) { m.orchestrator_bandwidth_mbps = v.nonnegative_real(); }},
    {"no-recovery", nullptr, "turn lineage recovery of lost files off", kRunSave,
     [](Policy& p, Value) { p.lineage_recovery = false; }},
    {"recovery-depth", "N", "lineage re-derivation depth limit", kRunSave,
     [](Policy& p, Value v) { p.max_recovery_depth = v.positive_count(); }},
    {"shards", "N", "engine shards of the RunService", kRunSave,
     [](Manifest& m, Value v) { m.shards = v.positive_count(); }},
    {"pin-policy", "NAME", "hash|least-loaded (run-to-shard pinning)", kRunSave,
     [](Manifest& m, Value v) { m.pin_policy = to_string(parse_pin_policy(v.text)); }},
    {"inject-failures", "P", "per-attempt job failure probability", kRun,
     [](GridConfig& g, Value v) { g.failure_probability = v.probability(); }},
    {"inject-stuck", "P", "per-attempt stuck-job probability", kRun,
     [](GridConfig& g, Value v) { g.stuck_job_probability = v.probability(); }},
    {"grid-attempts", "N", "grid-level attempts per job", kRun,
     [](GridConfig& g, Value v) { g.max_attempts = v.positive_count(); }},
    {"se-loss", "P", "replica loss probability", kRun,
     [](GridConfig& g, Value v) { g.replica_loss_probability = v.probability(); }},
    {"se-corrupt", "P", "replica corruption probability", kRun,
     [](GridConfig& g, Value v) { g.replica_corruption_probability = v.probability(); }},
    // The CLI's grid presets declare no SEs beyond the default one, se0.
    {"se-outage", "SE:START:DUR[,...]", "se0 downtime windows", kRun,
     [](GridConfig& g, Value v) {
       for (const auto& outage : parse_se_outages(v.text, v.flag)) {
         if (outage.storage_element != "se0") {
           throw ParseError(v.flag + " names unknown storage element '" +
                            outage.storage_element + "'");
         }
         g.default_se_outages.push_back({outage.start_seconds, outage.duration_seconds});
       }
     }},
    {"se-capacity", "MB", "replica capacity of every SE (0 = unbounded)", kRun,
     [](GridConfig& g, Value v) { g.default_se_capacity_mb = v.nonnegative_real(); }},
    {"eviction-policy", "NAME", "lru|pin-sources", kRun,
     [](GridConfig& g, Value v) {
       g.replica_eviction_policy = policies().eviction.check(v.text, v.flag);
     }},
    // Multi-tenant enactment on one shared grid through the RunService.
    {"runs", "N", "enact N concurrent copies of the run", kMulti,
     [](Options& o, Value v) { o.runs = v.positive_count(); }},
    {"max-active", "N", "runs enacted at once", kRun,
     [](Options& o, Value v) { o.service.admission.max_active = v.positive_count(); }},
    {"max-inflight", "N", "backend executions at once (0 = unbounded)", kRun,
     [](Options& o, Value v) { o.service.admission.max_inflight = v.count(); }},
    {"telemetry-out", "FRAMES.jsonl", "stream telemetry frames each interval", kMulti,
     [](Options& o, Value v) { o.service.telemetry.jsonl_path = v.text; }},
    {"telemetry-port", "PORT", "scrape endpoint on 127.0.0.1 (0 = ephemeral)", kMulti,
     [](Options& o, Value v) { o.service.telemetry.scrape_port = v.port(); }},
    {"telemetry-interval", "SECONDS", "telemetry sampling interval", kMulti,
     [](Options& o, Value v) {
       o.service.telemetry.interval_seconds = v.positive_seconds();
     }},
    {"telemetry-linger", "SECONDS", "keep the endpoint up after the runs", kMulti,
     [](Options& o, Value v) { o.linger_seconds = v.nonnegative_seconds(); }},
    {"flight-recorder", "PREFIX", "dump PREFIX<run-id>.json on failure", kMulti,
     [](Options& o, Value v) { o.service.telemetry.flight_recorder_path = v.text; }},
    {"critical-path", "OUT.json", "per-run critical-path report", kMulti,
     &Options::critical_path},
    // Outputs; per-run files get a .run<K> suffix under the RunService.
    {"csv", "OUT.csv", "timeline CSV", kRun, &Options::csv},
    {"provenance", "OUT.xml", "sink provenance", kRun, &Options::provenance},
    {"failure-report", "OUT.json", "lost-tuple report", kRun, &Options::failure_report},
    {"trace", nullptr, "print the per-invocation trace table", kRun,
     [](Options& o, Value) { o.trace = true; }},
    {"diagram", "[SECONDS]", "print the execution diagram (seconds per column)", kRun,
     [](Options& o, Value v) {
       o.diagram = v.text.empty() ? 0.0 : v.nonnegative_seconds();  // bare: auto scale
     }},
    {"trace-out", "TRACE.json", "Chrome trace of the spans", kRun, &Options::trace_out},
    {"metrics-out", "METRICS.prom", "Prometheus metrics", kRun, &Options::metrics_out},
    {"obs-summary", nullptr, "print the metrics summary", kRun,
     [](Options& o, Value) { o.obs_summary = true; }},
    {"cache-stats-out", "STATS.json", "cache counters", kRun, &Options::cache_stats_out},
    {"out", "RUN.xml", "where to write the manifest", kSave, &Options::out},
    {"dot", "OUT.dot", "GraphViz rendering of the workflow", kValidate, &Options::dot},
    {"nd", "N", "input data set size", kValidate | kModel,
     [](Options& o, Value v) { o.nd = v.positive_count(); }},
    {"nw", "N", "services on the critical path", kModel,
     [](Options& o, Value v) { o.nw = v.positive_count(); }},
    {"t", "SECONDS", "time of one service invocation (default 1)", kModel,
     [](Options& o, Value v) { o.t = v.nonnegative_seconds(); }},
    {"dir", "DIR", "output directory", kExport, &Options::dir},
    {"pairs", "N", "image pairs in the data set (default 12)", kExport,
     [](Options& o, Value v) { o.pairs = v.positive_count(); }},
};

/// Apply the given flags whose rows write into a Target, in table order.
template <class Target>
void apply_flags(const Given& given, Target& target) {
  for (const auto& [flag, text] : given) {
    if (const auto* set = std::get_if<void (*)(Target&, Value)>(&flag->set)) {
      (*set)(target, Value{text, "--"s + flag->name});
    }
  }
}

/// Manifests of a run: the --manifests list, or one from --manifest or
/// --workflow/--data, with every run override applied to each.
std::vector<Manifest> load_manifests(const Options& o) {
  std::vector<Manifest> manifests;
  if (!o.manifests.empty()) {
    if (!o.manifest.empty() || !o.workflow.empty() || !o.data.empty()) {
      throw UsageError("--manifests excludes --manifest, --workflow and --data");
    }
    for (const auto& path : o.manifests) {
      manifests.push_back(Manifest::from_xml(read_file(path)));
    }
  } else if (!o.manifest.empty()) {
    manifests.push_back(Manifest::from_xml(read_file(o.manifest)));
  } else {
    Manifest& m = manifests.emplace_back();
    m.workflow = workflow::from_scufl(read_file(required(o.workflow, "--workflow")));
    m.inputs = data::InputDataSet::from_xml(read_file(required(o.data, "--data")));
  }
  for (auto& manifest : manifests) {
    apply_flags(o.given, manifest);
    apply_flags(o.given, manifest.policy);
  }
  return manifests;
}

/// One grid for every run: the first manifest decides its shape and the
/// grid-wide policy knobs (matchmaking stays per run through JobRequest),
/// the fault flags edit it, and any data-aware run turns locality ranking on.
GridConfig make_grid_config(const Options& o, const std::vector<Manifest>& manifests) {
  const Policy& first = manifests.front().policy;
  GridConfig config = manifests.front().make_grid_config();
  apply_flags(o.given, config);
  if (!first.matchmaking.empty()) config.matchmaking_policy = first.matchmaking;
  if (!first.replica_policy.empty()) config.replica_policy = first.replica_policy;
  for (const auto& manifest : manifests) {
    if (manifest.policy.data_aware) config.data_aware_matchmaking = true;
  }
  return config;
}

/// Whether the runs need the replica catalog: the cache records replicas,
/// stage-in-aware matchmaking ranks CEs by them, live replication routes them
/// SE→SE, and storage faults and capacity bounds need replicas to lose or evict.
bool needs_replica_catalog(const GridConfig& grid,
                           const std::vector<Manifest>& manifests) {
  if (grid.replica_loss_probability > 0.0 || grid.replica_corruption_probability > 0.0 ||
      !grid.default_se_outages.empty() || grid.default_se_capacity_mb > 0.0) {
    return true;
  }
  return std::any_of(manifests.begin(), manifests.end(), [](const Manifest& m) {
    const Policy& p = m.policy;
    return p.cache || p.data_aware ||
           (!p.matchmaking.empty() &&
            policies().matchmaking_wants_stage_in(p.matchmaking)) ||
           (!p.replication.empty() && p.replication != policy::kDefaultReplication);
  });
}

/// "out.csv" -> "out.run3.csv"; extensionless paths get ".run3" appended;
/// k = 0 (a single run) leaves the path alone.
std::string suffixed(const std::string& path, std::size_t k) {
  if (k == 0) return path;
  const std::string tag = ".run" + std::to_string(k);
  const auto dot = path.rfind('.');
  const auto slash = path.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + tag;
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

/// Report run k (0 = the only run) after its headline: fault containment,
/// the sink summary, --trace and --diagram, then its output files. Returns
/// whether tuples were lost with no --failure-policy continue to tolerate it.
bool report_run(const Options& o, const enactor::EnactmentResult& result,
                const Policy& policy, bool data_plane, std::size_t k) {
  if (!result.failure_report.empty()) {
    std::printf("fault containment: %s", result.failure_report.to_text().c_str());
  }
  for (const auto& [sink, tokens] : result.sink_outputs) {
    std::printf("sink %-20s %zu results\n", (sink + ":").c_str(), tokens.size());
  }
  if (o.trace) std::fputs(enactor::render_trace_table(result.timeline).c_str(), stdout);
  if (o.diagram) {
    enactor::DiagramOptions options;
    options.seconds_per_column = *o.diagram;
    std::vector<std::string> rows;
    for (const auto& proc : result.executed_workflow.processors()) {
      if (proc.kind == workflow::ProcessorKind::kService) rows.push_back(proc.name);
    }
    std::fputs(enactor::render_execution_diagram(result.timeline, rows, options).c_str(),
               stdout);
  }
  const auto write = [k](Text path, const std::string& content, const char* what) {
    write_file(suffixed(path, k), content);
    std::printf("%s written to %s\n", what, suffixed(path, k).c_str());
  };
  if (!o.provenance.empty()) {
    write(o.provenance, data::export_provenance(result.sink_outputs), "provenance");
  }
  if (!o.csv.empty()) {
    write(o.csv, enactor::timeline_to_csv(result.timeline, data_plane), "timeline");
  }
  if (!o.failure_report.empty()) {
    write(o.failure_report, result.failure_report.to_json() + "\n", "failure report");
  }
  return result.failures() != 0 &&
         policy.failure_policy != enactor::FailurePolicy::kContinue;
}

/// --cache-stats-out payload: totals, catalog entry count, per-run counters.
std::string cache_stats_json(const data::InvocationCache* cache) {
  std::ostringstream os;
  const auto stats = [&os](const data::InvocationCache::Stats& s) {
    os << "{\"hits\": " << s.hits << ", \"misses\": " << s.misses
       << ", \"insertions\": " << s.insertions
       << ", \"invalidations\": " << s.invalidations << "}";
  };
  os << "{\n  \"entry_count\": " << (cache ? cache->entry_count() : 0)
     << ",\n  \"totals\": ";
  stats(cache ? cache->totals() : data::InvocationCache::Stats{});
  os << ",\n  \"runs\": {";
  if (cache != nullptr) {
    bool first = true;
    for (const auto& run_id : cache->run_ids()) {
      os << (first ? "\n" : ",\n") << "    \"" << run_id << "\": ";
      stats(cache->stats(run_id));
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "}\n}\n";
  return os.str();
}

/// What both run paths share: the service catalog, the one grid and its
/// backend, the replica catalog when needed, and the recorder when any
/// observability output is asked for.
struct RunSetup {
  std::vector<Manifest> manifests;
  services::ServiceRegistry registry;
  sim::Simulator simulator;
  grid::Grid grid;
  enactor::SimGridBackend backend;
  bool data_plane;
  data::ReplicaCatalog catalog;
  obs::RunRecorder recorder;
  obs::RunRecorder* observer = nullptr;  // &recorder when observing

  // The backend and the telemetry hub hold addresses of the members.
  RunSetup(const RunSetup&) = delete;
  RunSetup& operator=(const RunSetup&) = delete;
  RunSetup(const Options& o, std::vector<Manifest> loaded)
      : manifests(std::move(loaded)),
        grid(simulator, make_grid_config(o, manifests)),
        backend(grid),
        data_plane(needs_replica_catalog(grid.config(), manifests)) {
    if (!o.services.empty()) {
      const std::size_t count = services::load_catalog(read_file(o.services), registry);
      std::printf("loaded %zu services from %s\n", count, o.services.c_str());
    }
    if (data_plane) backend.set_catalog(&catalog);
    if (!o.trace_out.empty() || !o.metrics_out.empty() || o.obs_summary ||
        !o.critical_path.empty() || o.service.telemetry.hub_enabled()) {
      observer = &recorder;
      backend.set_metrics(&recorder.metrics());
    }
  }

  /// The run set's own outputs, after every per-run report.
  void write_outputs(const Options& o, const data::InvocationCache* cache,
                     const char* trace_note) const {
    if (!o.cache_stats_out.empty()) {
      write_file(o.cache_stats_out, cache_stats_json(cache));
      std::printf("cache stats written to %s\n", o.cache_stats_out.c_str());
    }
    if (!o.trace_out.empty()) {
      write_file(o.trace_out, obs::chrome_trace_json(recorder.tracer()));
      std::printf("trace written to %s (%s)\n", o.trace_out.c_str(), trace_note);
    }
    if (!o.metrics_out.empty()) {
      write_file(o.metrics_out, obs::prometheus_text(recorder.metrics()));
      std::printf("metrics written to %s\n", o.metrics_out.c_str());
    }
    if (o.obs_summary) {
      std::fputs(obs::obs_summary(recorder.tracer(), recorder.metrics()).c_str(), stdout);
    }
  }
};

/// One run on the synchronous Enactor: no admission gate, so the simulated
/// timeline is the golden one.
int enact_one(const Options& o, RunSetup& s) {
  const Manifest& manifest = s.manifests.front();
  enactor::Enactor moteur(s.backend, s.registry, manifest.policy);
  moteur.set_recorder(s.observer);
  enactor::RunRequest request;
  request.workflow = manifest.workflow;
  request.inputs = manifest.inputs;
  const enactor::EnactmentResult result = moteur.run(std::move(request));

  std::printf("workflow:     %s  (policy %s, grid %s, seed %llu)\n",
              manifest.workflow.name().c_str(), manifest.policy.name().c_str(),
              manifest.grid_preset.c_str(),
              static_cast<unsigned long long>(manifest.seed));
  std::printf("makespan:     %s (%.0f s)\n", format_duration(result.makespan()).c_str(),
              result.makespan());
  std::printf("invocations:  %zu logical, %zu submissions, %zu failures\n",
              result.invocations(), result.submissions(), result.failures());
  if (result.retries() != 0 || result.timeouts() != 0) {
    std::printf("resubmission: %zu retries, %zu timeout clones\n", result.retries(),
                result.timeouts());
  }
  if (result.cache_hits() != 0) {
    std::printf("cache:        %zu invocation(s) served without a grid job\n",
                result.cache_hits());
  }
  const bool lost = report_run(o, result, manifest.policy, s.data_plane, 0);
  s.write_outputs(o, moteur.invocation_cache(), "open in chrome://tracing");
  return lost ? 2 : 0;
}

/// Multi-tenant mode: enact several runs concurrently on ONE shared simulated
/// grid through a RunService. The run set is the cross product of the
/// manifests and --runs copies.
int enact_many(const Options& o, RunSetup& s) {
  const Manifest& first = s.manifests.front();
  // Like the grid, admission policy and sharding follow the first manifest.
  service::RunServiceConfig config = o.service;
  if (!first.policy.admission.empty()) config.admission.policy = first.policy.admission;
  config.sharding.shards = first.shards;
  config.sharding.pin = parse_pin_policy(first.pin_policy);
  config.defaults.policy = first.policy;
  // The recorder (in RunSetup) outlives the service: the telemetry hub
  // samples it until RunService::shutdown().
  service::RunService runs(s.backend, s.registry, config);
  runs.set_recorder(s.observer);
  if (const obs::TelemetryHub* hub = runs.telemetry(); hub != nullptr) {
    if (hub->port() >= 0) {
      std::printf("telemetry scrape endpoint on http://127.0.0.1:%d/metrics\n",
                  hub->port());
    }
    if (!config.telemetry.jsonl_path.empty()) {
      std::printf("telemetry frames streaming to %s every %.3g s\n",
                  config.telemetry.jsonl_path.c_str(), config.telemetry.interval_seconds);
    }
    std::fflush(stdout);  // scripts read the bound port while we still run
  }

  std::vector<enactor::RunRequest> requests;
  for (std::size_t c = 0; c < o.runs; ++c) {
    for (const auto& manifest : s.manifests) {
      enactor::RunRequest& request = requests.emplace_back();
      request.name = manifest.workflow.name() + "-" + std::to_string(requests.size());
      request.workflow = manifest.workflow;
      request.inputs = manifest.inputs;
      request.policy = manifest.policy;
    }
  }
  const std::size_t total = requests.size();
  std::printf(
      "enacting %zu concurrent run(s) (max active %zu, gate %zu, %zu shard(s) [%s],"
      " grid %s)\n",
      total, config.admission.max_active, config.admission.max_inflight, runs.shards(),
      service::to_string(config.sharding.pin), first.grid_preset.c_str());
  auto handles = runs.submit_all(std::move(requests));
  runs.wait_idle();

  bool hard_failure = false;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const service::RunHandle& handle = handles[i];
    const service::RunState state = handle.wait();  // terminal after wait_idle()
    const enactor::EnactmentResult& result = handle.result();
    std::printf("run %-24s %-9s makespan %s, %zu invocations, %zu failures",
                (handle.id() + ":").c_str(), service::to_string(state),
                format_duration(result.makespan()).c_str(), result.invocations(),
                result.failures());
    if (result.cache_hits() != 0) std::printf(", %zu cache hits", result.cache_hits());
    std::printf("\n");
    const Policy& policy = s.manifests[i % s.manifests.size()].policy;
    const bool lost = report_run(o, result, policy, s.data_plane, i + 1);
    hard_failure = hard_failure || lost || state == service::RunState::kFailed;
  }
  // Critical-path attribution per run, before the metric exports so the
  // moteur_critical_path_seconds series land in --metrics-out too.
  if (!o.critical_path.empty()) {
    runs.with_observability([&](obs::RunRecorder& rec) {
      for (std::size_t i = 0; i < handles.size(); ++i) {
        const obs::CriticalPathReport report = obs::critical_path(
            rec.tracer(), handles[i].id(), handles[i].admission_wait());
        obs::record_phases(rec.metrics(), report);
        const std::string path = suffixed(o.critical_path, total > 1 ? i + 1 : 0);
        write_file(path, report.to_json() + "\n");
        std::fputs(report.to_text().c_str(), stdout);
      }
    });
  }
  s.write_outputs(o, runs.invocation_cache(), "one pid lane per run");
  // Keep the service (and its scrape endpoint) alive so external scrapers can
  // fetch /metrics after a fast simulated run finishes.
  if (o.linger_seconds > 0.0 && runs.telemetry() != nullptr) {
    std::printf("lingering %.3g s for telemetry scrapes\n", o.linger_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(o.linger_seconds));
  }
  return hard_failure ? 2 : 0;
}

int cmd_run(const Options& o) {
  RunSetup setup(o, load_manifests(o));
  return o.multi ? enact_many(o, setup) : enact_one(o, setup);
}

int cmd_save_manifest(const Options& o) {
  const std::string out = required(o.out, "--out");
  write_file(out, load_manifests(o).front().to_xml());
  std::printf("manifest written to %s\n", out.c_str());
  return 0;
}

int cmd_validate(const Options& o) {
  const workflow::Workflow wf =
      workflow::from_scufl(read_file(required(o.workflow, "--workflow")));
  std::printf("workflow '%s': OK\n", wf.name().c_str());
  std::printf("  processors: %zu (%zu sources, %zu services, %zu sinks)\n",
              wf.processors().size(), wf.sources().size(), wf.services().size(),
              wf.sinks().size());
  std::printf("  links: %zu, coordination constraints: %zu\n", wf.links().size(),
              wf.coordination_constraints().size());
  const auto path = workflow::critical_path(wf);
  std::printf("  critical path (nW = %zu): %s\n", workflow::critical_path_length(wf),
              join(path.services, " -> ").c_str());
  const auto layers = workflow::synchronization_layers(wf);
  std::printf("  synchronization layers: %zu\n", layers.size());

  workflow::GroupingReport report;
  workflow::group_sequential_processors(wf, &report);
  if (report.groups.empty()) {
    std::puts("  job grouping: no groupable chains");
  } else {
    std::printf("  job grouping would form %zu group(s):\n", report.groups.size());
    for (const auto& group : report.groups) {
      std::printf("    %s\n", join(group, " + ").c_str());
    }
  }

  if (!o.dot.empty()) {
    write_file(o.dot, workflow::to_dot(wf));
    std::printf("  GraphViz rendering written to %s\n", o.dot.c_str());
  }

  // With a catalog and a data-set size, predict makespans per policy.
  if (!o.services.empty() && o.nd) {
    services::ServiceRegistry registry;
    services::load_catalog(read_file(o.services), registry);
    std::map<std::string, double> times;
    for (const auto* proc : wf.services()) {
      times[proc->name] =
          registry.resolve(*proc)->job_profile(services::Inputs{}).compute_seconds;
    }
    const std::size_t n_d = *o.nd;
    try {
      const auto predicted = model::predict_dag_makespan(wf, times, n_d);
      std::printf("  DAG-model predictions for nD = %zu (compute only, no grid"
                  " overhead):\n", n_d);
      std::printf("    NOP   %10.0f s\n", predicted.sequential);
      std::printf("    DP    %10.0f s\n", predicted.dp);
      std::printf("    SP    %10.0f s\n", predicted.sp);
      std::printf("    SP+DP %10.0f s\n", predicted.dsp);
    } catch (const Error& e) {
      std::printf("  DAG-model predictions unavailable: %s\n", e.what());
    }
  }
  return 0;
}

int cmd_model(const Options& o) {
  if (o.nw == 0 || !o.nd) throw UsageError(o.nw == 0 ? "missing --nw" : "missing --nd");
  const std::size_t n_w = o.nw, n_d = *o.nd;
  const model::TimeMatrix times = model::constant_times(n_w, n_d, o.t);
  std::printf("§3.5 predictions for nW=%zu, nD=%zu, T=%.1f s:\n", n_w, n_d, o.t);
  std::printf("  Sigma     (sequential) = %.1f s\n", model::sigma_sequential(times));
  std::printf("  Sigma_DP               = %.1f s   (S_DP  = %.2f)\n",
              model::sigma_dp(times), model::speedup_dp(n_w, n_d));
  std::printf("  Sigma_SP               = %.1f s   (S_SP  = %.2f)\n",
              model::sigma_sp(times), model::speedup_sp(n_w, n_d));
  std::printf("  Sigma_DSP              = %.1f s   (S_DSP = %.2f, S_SDP = 1)\n",
              model::sigma_dsp(times), model::speedup_dsp(n_w, n_d));
  return 0;
}

int cmd_export_bronze(const Options& o) {
  const std::string dir = required(o.dir, "--dir");
  const std::size_t pairs = o.pairs;
  write_file(dir + "/bronze_workflow.xml",
             workflow::to_scufl(app::bronze_standard_workflow()));
  write_file(dir + "/bronze_dataset.xml",
             app::bronze_standard_dataset(pairs).to_xml());
  write_file(dir + "/bronze_services.xml",
             services::to_catalog_xml(app::bronze_catalog()));
  Manifest manifest;
  manifest.workflow = app::bronze_standard_workflow();
  manifest.inputs = app::bronze_standard_dataset(pairs);
  manifest.policy = Policy::sp_dp_jg();
  manifest.grid_preset = "egee2006";
  write_file(dir + "/bronze_run.xml", manifest.to_xml());
  std::printf("wrote bronze_workflow.xml, bronze_dataset.xml (%zu pairs),\n"
              "bronze_services.xml and bronze_run.xml to %s\n"
              "run it with:\n"
              "  moteur_cli run --manifest %s/bronze_run.xml \\\n"
              "             --services %s/bronze_services.xml\n",
              pairs, dir.c_str(), dir.c_str(), dir.c_str());
  return 0;
}

struct CommandSpec {
  const char* name;
  Command bit;
  const char* synopsis;
  int (*run)(const Options&);
};

const CommandSpec kCommands[] = {
    {"run", kRun,
     "(--manifest RUN.xml | --workflow WF.xml --data DS.xml | --manifests ...)\n"
     "    enact on a simulated grid; --runs, --manifests and the telemetry flags\n"
     "    enact concurrently through one RunService (out.csv -> out.run1.csv, ...)",
     cmd_run},
    {"save-manifest", kSave,
     "(--manifest RUN.xml | --workflow WF.xml --data DS.xml) --out RUN.xml",
     cmd_save_manifest},
    {"validate", kValidate, "--workflow WF.xml [--services CAT.xml --nd N]",
     cmd_validate},
    {"model", kModel, "--nw N --nd N [--t SECONDS]", cmd_model},
    {"export-bronze", kExport, "--dir DIR [--pairs N]", cmd_export_bronze},
};

/// Print the usage of one command (of all when `only` is null), generated
/// from kFlags, after an optional error message.
void print_usage(const CommandSpec* only, const std::string& message) {
  if (!message.empty()) std::fprintf(stderr, "error: %s\n\n", message.c_str());
  std::fputs("usage:\n", stderr);
  for (const CommandSpec& command : kCommands) {
    if (only != nullptr && only != &command) continue;
    std::fprintf(stderr, "  moteur_cli %s %s\n", command.name, command.synopsis);
    for (const Flag& flag : kFlags) {
      if ((flag.commands & command.bit) == 0) continue;
      const std::string value = flag.value ? std::string(" ") + flag.value : "";
      std::fprintf(stderr, "      --%-29s %s\n", (flag.name + value).c_str(), flag.help);
    }
  }
}

/// Parse argv[2..] against kFlags for one command. Unknown flags, value flags
/// without a value and boolean flags with one are usage errors, like any
/// malformed value: every value is checked before anything runs.
Options parse_flags(const CommandSpec& command, int argc, char** argv) {
  Options options;
  for (int i = 2; i < argc; ++i) {
    const std::string word = argv[i];
    const auto row = std::find_if(std::begin(kFlags), std::end(kFlags),
                                  [&](const Flag& f) { return word == "--"s + f.name; });
    if (word.rfind("--", 0) != 0) throw UsageError("unexpected argument '" + word + "'");
    if (row == std::end(kFlags) || (row->commands & command.bit) == 0) {
      throw UsageError("unknown flag '" + word + "' for " + command.name);
    }
    const bool next_is_value =
        i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--";
    if (row->value == nullptr && next_is_value) {
      throw UsageError(word + " takes no value (got '" + argv[i + 1] + "')");
    }
    const std::string value = row->value != nullptr && next_is_value ? argv[++i] : "";
    if (row->value != nullptr && row->value[0] != '[' && value.empty()) {
      throw UsageError(word + " needs a value " + row->value);
    }
    options.given[&*row] = value;  // a repeated flag's last value wins
    if ((row->commands & kMulti) == kMulti) options.multi = true;
    if (const auto* field = std::get_if<std::string Options::*>(&row->set)) {
      options.*(*field) = value;
    }
  }
  // Run overrides and grid knobs are checked on throwaway targets here, and
  // applied to the real ones once the manifests are loaded.
  Manifest probe_run;
  try {
    apply_flags(options.given, options);
    apply_flags(options.given, probe_run);
    apply_flags(options.given, probe_run.policy);
    GridConfig probe_grid = probe_run.make_grid_config();  // rejects an unknown preset
    apply_flags(options.given, probe_grid);
  } catch (const Error& e) {
    throw UsageError(e.what());
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const CommandSpec* command = nullptr;
  for (const CommandSpec& c : kCommands) {
    if (argc >= 2 && argv[1] == std::string_view(c.name)) command = &c;
  }
  if (command == nullptr) {
    print_usage(nullptr, argc < 2 ? "" : "unknown command '"s + argv[1] + "'");
    return 1;
  }
  try {
    return command->run(parse_flags(*command, argc, argv));
  } catch (const UsageError& e) {
    print_usage(command, e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
