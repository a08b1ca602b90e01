#pragma once

// Shared pieces of the benchmark program: options, the metric catalogue, the
// per-workload report, and small statistics/digest helpers.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string source_id = "unknown";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics (BENCHMARK.json), reported by every workload
/// in an untraced run.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"runs_per_s", "1/s"},
    {"cpu_ms_per_run", "ms"},
    {"peak_rss_mb", "MB"},
};

/// End-to-end metrics printed next to the gated ones but not gated: run
/// latency on tenant-open follows the host's wake-up latency and does not
/// repeat on a shared machine, late_ms_p90 and failed_frac are zero on a
/// healthy run, run_ms_p99 does not repeat anywhere.
inline constexpr MetricSpec kEndToEndInfo[] = {
    {"run_ms_p50", "ms"},  {"run_ms_p90", "ms"},     {"run_ms_p99", "ms"},
    {"late_ms_p90", "ms"}, {"failed_frac", "ratio"},
};

/// The per-layer metrics, reported by every workload in a traced run (0 for
/// layers the workload does not reach). "/run" is per measured run: one
/// sweep of the 18 Table-1 cells, one dataplane case, or one tenant run.
inline constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count/run"},
    {"grid.self_ms", "ms/run"},
    {"grid.ns_per_event", "ns"},
    {"grid.jobs", "count/run"},
    {"policy.matches", "count/run"},
    {"enactor.callback_self_ms", "ms/run"},
    {"enactor.outside_drive_ms", "ms/run"},
    {"enactor.execute_us", "us"},
    {"enactor.invocations", "count/run"},
    {"enactor.submissions", "count/run"},
    {"enactor.allocs_per_invocation", "count"},
    {"services.self_ms", "ms/run"},
    {"data.cache_hit_ratio", "ratio"},
    {"data.cache_lookups", "count/run"},
    {"data.peer_mb", "MB/run"},
    {"data.ui_mb", "MB/run"},
    {"data.transfers", "count/run"},
    {"obs.spans", "count/run"},
    {"obs.on_event_ns", "ns"},
    {"service.submit_us", "us"},
    {"service.admission_wait_ms_p90", "ms"},
    {"service.roundtrip_us_p50", "us"},
    {"service.roundtrip_us_p90", "us"},
    {"service.shard_busy_frac", "ratio"},
    {"service.inflight_peak", "count"},
    {"gen.late_ms_p90", "ms"},
    {"trace.root_ms", "ms/run"},
    {"trace.accounted_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// What one workload run measured and checked.
struct Report {
  std::uint64_t attempted = 0;  // runs and checks performed
  std::uint64_t failed = 0;     // runs or checks whose output was wrong
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;  // end-to-end or per-layer
  std::map<std::string, double> info;     // kEndToEndInfo plus notes
  std::size_t threads = 1;                // threads the workload keeps busy
  /// The measuring windows behind the run-time percentiles, one entry each:
  /// runs, p50 ms, p90 ms. Written to the results file only.
  std::vector<std::array<double, 3>> series;

  /// Counts one checked item; records why when `ok` is false.
  void check(bool ok, const std::string& what);
};

/// Heap-allocation counting for enactor.allocs_per_invocation: the
/// benchmark binary's operator new counts while `enabled` is set. Off by
/// default, so untraced runs pay one relaxed load per allocation.
struct AllocCounter {
  static inline std::atomic<bool> enabled{false};
  static inline std::atomic<std::uint64_t> count{0};
};
inline void set_alloc_counting(bool on) { AllocCounter::enabled.store(on); }
inline std::uint64_t alloc_count() { return AllocCounter::count.load(); }

// --- workloads -----------------------------------------------------------

Report run_table1(const Options& options);
Report run_dataplane(const Options& options);
Report run_tenant_open(const Options& options);

// --- helpers -------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// setup_s is the median of this many set-ups, each destroyed before the
/// next. Each is timed in process CPU time (all threads), not wall time, so
/// a set-up that starts threads is not timed by how soon the host schedules
/// them.
inline constexpr int kSetupRepeats = 101;

/// A traced run keeps, for its span dump, every span opened while its first
/// kSampledRuns measured runs were in progress (Tracer::stop_keeping).
inline constexpr std::uint64_t kSampledRuns = 3;

/// Consecutive measured runs, grouped into windows of at least
/// kWindowSeconds and kWindowRuns runs (a short last window joins the one
/// before it). Figures are taken per window and the median over windows is
/// reported, so a burst of noise from other tenants of the machine moves one
/// window, not the whole run's figure.
class Windows {
 public:
  static constexpr double kWindowSeconds = 1.0;
  static constexpr std::size_t kWindowRuns = 10;

  explicit Windows(std::int64_t begin_ns) : open_start_ns_(begin_ns) {}
  /// A run that took `run_ms` (and `cpu_ms` of CPU) and was seen complete
  /// at `end_ns`.
  void add(double run_ms, double cpu_ms, std::int64_t end_ns);
  /// Median over windows of each window's p-th percentile of run_ms.
  double percentile(double p) const;
  /// Median over windows of runs per second of measured run time: the
  /// throughput of a back-to-back loop, without the benchmark's checks.
  double runs_per_s() const;
  /// Median over windows of CPU ms per run.
  double cpu_ms_per_run() const;
  std::size_t count() const { return closed().size(); }
  /// runs, p50 ms, p90 ms per window.
  std::vector<std::array<double, 3>> series() const;
  /// Appends `other`'s windows, e.g. those of a later measuring segment.
  void absorb(const Windows& other);

 private:
  struct Window {
    std::vector<double> ms;
    double cpu_ms = 0.0;
  };
  std::vector<Window> closed() const;

  std::vector<Window> windows_;
  Window open_;
  std::int64_t open_start_ns_;
};

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a 64-bit.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = 0xcbf29ce484222325ull);

/// Due times (seconds from the loop's start) of an open loop at a fixed
/// `rate_per_s`, truncated at `seconds`: arrival i falls at (i + u/2) / rate
/// with u uniform in [0, 1) drawn from `seed`. The jitter keeps arrivals off
/// a fixed timer phase; no two arrivals come closer than half an interval.
/// Same seed, same schedule.
std::vector<double> open_loop_schedule(std::uint64_t seed, double rate_per_s, double seconds);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// CPU time (user + system) consumed so far by this process (all threads) /
/// this thread, ms.
double process_cpu_ms();
double thread_cpu_ms();

}  // namespace perfbench
