// `tenant-open`: an open loop of small runs through RunService on a
// ThreadedBackend — the enactment core alone (engine, admission gate, shard
// channels, worker hop), with no simulator and no grid.

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "enactor/run_request.hpp"
#include "enactor/threaded_backend.hpp"
#include "service/run_service.hpp"
#include "services/functional_service.hpp"
#include "tenant_open.hpp"
#include "trace.hpp"
#include "tracing_backend.hpp"

namespace perfbench {

using namespace moteur;

namespace {

constexpr double kRatePerSecond = 400.0;
constexpr double kWarmupSeconds = 0.5;
/// After each timed set-up, time for the new shard and worker threads to
/// start and block before the process's CPU clock is read.
constexpr auto kSetupSettle = std::chrono::milliseconds(2);
constexpr double kSegmentSeconds = 2.5;
constexpr std::size_t kStages = 4;
constexpr std::size_t kItems = 16;
constexpr std::size_t kShards = 2;
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kInvocationsPerRun = kStages * kItems;

workflow::Workflow chain_workflow() {
  workflow::Workflow wf("tenant-chain");
  wf.add_source("src");
  std::string prev = "src";
  for (std::size_t i = 0; i < kStages; ++i) {
    const std::string name = "p" + std::to_string(i);
    wf.add_processor(name, {"in"}, {"out"});
    wf.link(prev, "out", name, "in");
    prev = name;
  }
  wf.add_sink("sink");
  wf.link(prev, "out", "sink", "in");
  return wf;
}

data::InputDataSet item_set() {
  data::InputDataSet inputs;
  inputs.declare_input("src");
  for (std::size_t j = 0; j < kItems; ++j) {
    std::string item = "i";
    item += std::to_string(j);
    inputs.add_item("src", std::move(item));
  }
  return inputs;
}

/// The set-up: workflow, inputs, registry, backend (decorated when traced)
/// and the RunService with its shard and worker threads. Members are
/// destroyed in reverse order, so the service stops before its backend.
class Tenant {
 public:
  explicit Tenant(Tracer* tracer)
      : workflow_(chain_workflow()), inputs_(item_set()), backend_(kWorkers) {
    if (tracer != nullptr) traced_.emplace(backend_, *tracer);
    for (std::size_t i = 0; i < kStages; ++i) {
      add_service(registry_,
                  std::make_shared<services::FunctionalService>(
                      "p" + std::to_string(i), std::vector<std::string>{"in"},
                      std::vector<std::string>{"out"},
                      [](const services::Inputs&) {
                        services::Result result;
                        result.outputs["out"].payload = 0;
                        result.outputs["out"].repr = "x";
                        return result;
                      }),
                  tracer);
    }
    service::RunServiceConfig config;
    config.admission.max_active = 16;
    config.admission.max_inflight = 32;
    config.sharding.shards = kShards;
    config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
    enactor::ExecutionBackend& backend =
        traced_ ? static_cast<enactor::ExecutionBackend&>(*traced_) : backend_;
    service_ = std::make_unique<service::RunService>(backend, registry_, config);
  }

  service::RunService& service() { return *service_; }
  const TracingBackend* traced() const { return traced_ ? &*traced_ : nullptr; }
  const workflow::Workflow& workflow() const { return workflow_; }
  const data::InputDataSet& inputs() const { return inputs_; }

 private:
  workflow::Workflow workflow_;
  data::InputDataSet inputs_;
  enactor::ThreadedBackend backend_;
  std::optional<TracingBackend> traced_;
  services::ServiceRegistry registry_;
  std::unique_ptr<service::RunService> service_;
};

struct LoopResult {
  std::vector<double> latency_ms;  // due time -> observed terminal
  Windows windows{0};              // latency_ms in completion order
  std::vector<double> late_ms;     // due time -> submit
  std::uint64_t completed = 0;
  std::uint64_t invocations = 0;
  std::uint64_t submissions = 0;
  double window_s = 0.0;  // first due time -> last completion
  std::vector<double> cpu_ms_per_run;  // process CPU over each loop, per run
};

/// Submits one run per due time and waits for results in between. Runs are
/// timed from their due time to the moment the generator sees them
/// terminal: it blocks on the oldest outstanding run until that run ends
/// or the next run falls due, then collects every run that has ended.
/// Submit spans carry run ids from `first_run` on; the tracer stops keeping
/// spans once kSampledRuns runs of the loop have completed.
LoopResult open_loop(Tenant& tenant, const std::vector<double>& due_s, const std::string& prefix,
                     std::uint64_t first_run, Tracer* tracer, bool count_allocs,
                     Report& report) {
  // Requests are built before the clock starts: the loop times the service.
  std::vector<enactor::RunRequest> requests(due_s.size());
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    requests[i].name = prefix + std::to_string(i);
    requests[i].workflow = tenant.workflow();
    requests[i].inputs = tenant.inputs();
  }
  struct Pending {
    service::RunHandle handle;
    std::int64_t due_ns;
  };
  std::deque<Pending> outstanding;
  LoopResult out;
  const std::int64_t origin = now_ns() + 1'000'000;
  out.windows = Windows(origin);
  const auto due_ns = [&](std::size_t i) {
    return origin + static_cast<std::int64_t>(due_s[i] * 1e9);
  };
  std::int64_t last_done = origin;

  const auto collect = [&](std::int64_t stamp) {
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      const service::RunState state = it->handle.poll();
      if (!service::is_terminal(state)) {
        ++it;
        continue;
      }
      const double latency_ms = static_cast<double>(stamp - it->due_ns) / 1e6;
      out.latency_ms.push_back(latency_ms);
      out.windows.add(latency_ms, 0.0, stamp);
      last_done = stamp;
      ++out.completed;
      const enactor::EnactmentResult& result = it->handle.result();
      out.invocations += result.invocations();
      out.submissions += result.submissions();
      const auto sink = result.sink_outputs.find("sink");
      const bool ok = state == service::RunState::kFinished &&
                      result.invocations() == kInvocationsPerRun && result.failures() == 0 &&
                      sink != result.sink_outputs.end() && sink->second.size() == kItems;
      report.check(ok, ok ? std::string()
                          : "run " + it->handle.id() + " ended " + service::to_string(state) +
                                " with " + std::to_string(result.invocations()) + " invocations");
      it = outstanding.erase(it);
      if (tracer != nullptr && out.completed == kSampledRuns) tracer->stop_keeping();
    }
  };

  std::size_t next = 0;
  const double cpu_start = process_cpu_ms();
  set_alloc_counting(count_allocs);
  while (next < due_s.size() || !outstanding.empty()) {
    const std::int64_t now = now_ns();
    if (next < due_s.size() && now >= due_ns(next)) {
      out.late_ms.push_back(static_cast<double>(now - due_ns(next)) / 1e6);
      service::RunHandle handle;
      {
        Tracer::set_current_run(first_run + next);
        Tracer::Scope span(tracer, Layer::kSubmit);
        handle = tenant.service().submit(std::move(requests[next]));
      }
      outstanding.push_back({std::move(handle), due_ns(next)});
      ++next;
      continue;
    }
    const std::int64_t wake = next < due_s.size() ? due_ns(next) : now + 100'000'000;
    if (!outstanding.empty()) {
      outstanding.front().handle.wait_for(std::chrono::nanoseconds(wake - now));
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
    }
    collect(now_ns());
  }
  set_alloc_counting(false);
  Tracer::set_current_run(0);
  if (out.completed > 0) {
    out.cpu_ms_per_run.push_back((process_cpu_ms() - cpu_start) /
                                 static_cast<double>(out.completed));
  }
  out.window_s = static_cast<double>(last_done - origin) / 1e9;
  return out;
}

/// What the traced runs' service layer reported, gathered from each
/// segment's service before it is torn down.
struct ServiceFigures {
  std::vector<double> admission_ms;
  std::vector<double> roundtrip_us;
  std::int64_t inflight_peak = 0;
};

/// The open loop over `schedule`, cut into segments of kSegmentSeconds, each
/// on a fresh service. RunService keeps every run's record, result included,
/// until it is destroyed (about 57 KB a run here), so one service over the
/// whole window would grow by hundreds of MB. The tear-down and set-up
/// between segments are not timed. Run ids count from 1 across segments.
LoopResult run_segments(const std::vector<double>& schedule, const std::string& prefix,
                        Tracer* tracer, ServiceFigures* figures, Report& report) {
  LoopResult total;
  std::size_t next = 0;
  for (std::size_t k = 0; next < schedule.size(); ++k) {
    const double offset = static_cast<double>(k) * kSegmentSeconds;
    std::vector<double> due;
    while (next < schedule.size() && schedule[next] < offset + kSegmentSeconds) {
      due.push_back(schedule[next++] - offset);
    }
    Tenant tenant(tracer);
    report.check(tenant.service().shards() == kShards, "the service runs 2 engine shards");
    LoopResult segment = open_loop(tenant, due, prefix + std::to_string(k) + "-",
                                   next - due.size() + 1, tracer, false, report);
    tenant.service().shutdown();  // joins the shard threads before their spans are read
    if (figures != nullptr) {
      for (const service::ShardStats& s : tenant.service().shard_stats()) {
        for (const double wait : s.admission_waits) figures->admission_ms.push_back(wait * 1e3);
      }
      const BackendCounters& counters = tenant.traced()->counters();
      for (const std::int64_t ns : counters.roundtrips()) {
        figures->roundtrip_us.push_back(static_cast<double>(ns) / 1e3);
      }
      figures->inflight_peak = std::max(figures->inflight_peak, counters.inflight_peak.load());
    }
    total.latency_ms.insert(total.latency_ms.end(), segment.latency_ms.begin(),
                            segment.latency_ms.end());
    total.late_ms.insert(total.late_ms.end(), segment.late_ms.begin(), segment.late_ms.end());
    total.completed += segment.completed;
    total.invocations += segment.invocations;
    total.submissions += segment.submissions;
    total.window_s += segment.window_s;
    total.cpu_ms_per_run.insert(total.cpu_ms_per_run.end(), segment.cpu_ms_per_run.begin(),
                                segment.cpu_ms_per_run.end());
    total.windows.absorb(segment.windows);
  }
  return total;
}

double runs_per_s(const LoopResult& r) {
  return r.window_s > 0.0 ? static_cast<double>(r.completed) / r.window_s : 0.0;
}

void tenant_layers(const Tracer& tracer, const ServiceFigures& figures, const LoopResult& r,
                   Report& report) {
  const double runs = static_cast<double>(r.completed);
  std::int64_t callback_self = 0, service_self = 0, outside_drive = 0, busy = 0;
  std::int64_t self_sum = 0, root_sum = 0;
  for (const Tracer::ThreadSummary& t : tracer.threads()) {
    const auto& l = t.layers;
    const LayerTotals& drive = l[static_cast<std::size_t>(Layer::kDrive)];
    callback_self += l[static_cast<std::size_t>(Layer::kCallback)].self_ns +
                     l[static_cast<std::size_t>(Layer::kTimer)].self_ns;
    service_self += l[static_cast<std::size_t>(Layer::kService)].self_ns;
    std::int64_t roots_outside_drive = 0;
    for (std::size_t k = 0; k < kLayers; ++k) {
      self_sum += l[k].self_ns;
      root_sum += l[k].root_ns;
      if (k != static_cast<std::size_t>(Layer::kDrive)) roots_outside_drive += l[k].root_ns;
    }
    if (drive.count > 0) {  // an engine shard's thread
      outside_drive += roots_outside_drive;
      busy += (drive.total_ns - drive.self_ns) + roots_outside_drive;
    }
  }
  const auto ms_per_run = [runs](std::int64_t ns) { return static_cast<double>(ns) / 1e6 / runs; };
  const LayerTotals execute = tracer.totals(Layer::kExecute);
  const LayerTotals submit = tracer.totals(Layer::kSubmit);

  auto& m = report.metrics;
  m["enactor.callback_self_ms"] = ms_per_run(callback_self);
  m["enactor.outside_drive_ms"] = ms_per_run(outside_drive);
  m["enactor.execute_us"] = execute.count ? static_cast<double>(execute.total_ns) / 1e3 /
                                                static_cast<double>(execute.count)
                                          : 0.0;
  m["enactor.invocations"] = static_cast<double>(r.invocations) / runs;
  m["enactor.submissions"] = static_cast<double>(r.submissions) / runs;
  m["services.self_ms"] = ms_per_run(service_self);
  m["service.submit_us"] =
      submit.count ? static_cast<double>(submit.total_ns) / 1e3 / static_cast<double>(submit.count)
                   : 0.0;
  m["service.admission_wait_ms_p90"] = percentile(figures.admission_ms, 90.0);
  m["service.roundtrip_us_p50"] = percentile(figures.roundtrip_us, 50.0);
  m["service.roundtrip_us_p90"] = percentile(figures.roundtrip_us, 90.0);
  m["service.shard_busy_frac"] =
      static_cast<double>(busy) / (r.window_s * 1e9 * static_cast<double>(kShards));
  m["service.inflight_peak"] = static_cast<double>(figures.inflight_peak);
  m["trace.root_ms"] = ms_per_run(root_sum);
  m["trace.accounted_frac"] =
      root_sum ? static_cast<double>(self_sum) / static_cast<double>(root_sum) : 0.0;
}

}  // namespace

std::vector<double> tenant_schedule(std::uint64_t seed, double seconds) {
  return open_loop_schedule(seed, kRatePerSecond, seconds);
}

Report run_tenant_open(const Options& options) {
  Report report;
  report.threads = 1 + kShards + kWorkers;  // generator, shard threads, worker

  std::vector<double> setup_s;
  std::unique_ptr<Tenant> tenant;
  for (int k = 0; k < kSetupRepeats; ++k) {
    tenant.reset();  // joins the previous set-up's threads before the clock starts
    const double start_ms = process_cpu_ms();
    tenant = std::make_unique<Tenant>(nullptr);
    std::this_thread::sleep_for(kSetupSettle);
    setup_s.push_back((process_cpu_ms() - start_ms) / 1e3);
  }
  open_loop(*tenant, tenant_schedule(mix_seed(options.seed, 1), kWarmupSeconds), "w", 1,
            nullptr, false, report);
  tenant.reset();

  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  const std::vector<double> schedule = tenant_schedule(options.seed, budget);
  report.info["offered_per_s"] = static_cast<double>(schedule.size()) / budget;
  const LoopResult untraced = run_segments(schedule, "u", nullptr, nullptr, report);

  if (!options.trace) {
    auto& m = report.metrics;
    m["setup_s"] = median(setup_s);
    m["runs_per_s"] = runs_per_s(untraced);
    m["cpu_ms_per_run"] = median(untraced.cpu_ms_per_run);
    report.info["run_ms_p50"] = untraced.windows.percentile(50.0);
    report.info["run_ms_p90"] = untraced.windows.percentile(90.0);
    report.info["run_ms_p99"] = percentile(untraced.latency_ms, 99.0);
    report.info["late_ms_p90"] = percentile(untraced.late_ms, 90.0);
    report.info["runs_measured"] = static_cast<double>(untraced.completed);
    report.info["windows"] = static_cast<double>(untraced.windows.count());
    report.series = untraced.windows.series();
    return report;
  }

  Tracer tracer;
  ServiceFigures figures;
  const LoopResult measured = run_segments(schedule, "t", &tracer, &figures, report);

  // Allocations are counted in a loop of their own, so no timed loop pays
  // for the counting.
  const std::uint64_t allocs_before = alloc_count();
  const LoopResult counted = [&] {
    Tenant counting(nullptr);
    return open_loop(counting, tenant_schedule(mix_seed(options.seed, 2), kWarmupSeconds), "a", 1,
                     nullptr, true, report);
  }();
  const std::uint64_t allocs = alloc_count() - allocs_before;

  tenant_layers(tracer, figures, measured, report);
  auto& m = report.metrics;
  m["enactor.allocs_per_invocation"] =
      static_cast<double>(allocs) / static_cast<double>(counted.invocations);
  m["gen.late_ms_p90"] = percentile(untraced.late_ms, 90.0);
  m["trace.overhead_frac"] =
      median(measured.cpu_ms_per_run) / median(untraced.cpu_ms_per_run) - 1.0;
  const std::string spans = options.out_dir + "/spans-tenant-open-seed" +
                            std::to_string(options.seed) + ".csv";
  report.info["spans_written"] = static_cast<double>(tracer.write_csv(spans));
  report.info["spans_not_kept_frac"] = tracer.not_kept_frac();
  return report;
}

}  // namespace perfbench
