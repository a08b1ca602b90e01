// perfbench — the repository benchmark's main program.
//
//   perfbench --workload <table1-sim|dataplane-sim|tenant-open> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir DIR] [--source-id ID]
//
// With --trace 0 it measures the end-to-end metrics untraced; with --trace 1
// it measures the per-layer metrics through the tracing decorators (plus an
// untraced half for the tracing overhead and an untimed pass counting
// allocations). Either way it
// checks every run's output. It prints the metrics by name and unit, an
// environment line, and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage.

#include <sched.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>

#include "bench.hpp"

// Counts allocations for enactor.allocs_per_invocation (see AllocCounter).
void* operator new(std::size_t size) {
  if (perfbench::AllocCounter::enabled.load(std::memory_order_relaxed)) {
    perfbench::AllocCounter::count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <table1-sim|dataplane-sim|"
               "tenant-open> --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR] "
               "[--source-id ID]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
      have[1] = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) return false;
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value == "1";
      have[3] = true;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--source-id") {
      o.source_id = value;
    } else {
      return false;
    }
  }
  return have[0] && have[1] && have[2] && have[3];
}

std::size_t cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Specs>
std::string metrics_json(const Specs& specs, const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    out += (first ? "" : ", ") + json_string(spec.name) + ": {\"value\": " +
           json_number(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": " + json_string(spec.unit) + "}";
    first = false;
  }
  return out + "}";
}

template <typename Specs>
void print_table(const char* title, const Specs& specs, const std::map<std::string, double>& values) {
  std::printf("%s\n", title);
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    std::printf("  %-32s %16.6g %s\n", spec.name, it == values.end() ? 0.0 : it->second,
                spec.unit);
  }
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse(argc, argv, options)) return usage("bad or missing arguments");

  Report (*workload)(const Options&) = nullptr;
  if (options.workload == "table1-sim") workload = &run_table1;
  if (options.workload == "dataplane-sim") workload = &run_dataplane;
  if (options.workload == "tenant-open") workload = &run_tenant_open;
  if (workload == nullptr) return usage(("unknown workload '" + options.workload + "'").c_str());

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) return usage(("cannot create --out-dir " + options.out_dir).c_str());

  Report report;
  try {
    report = workload(options);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
  }
  if (!options.trace) report.metrics["peak_rss_mb"] = peak_rss_mb();
  report.info["failed_frac"] =
      report.attempted ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
                       : 1.0;

  // Every printed value must be a finite number.
  for (auto* values : {&report.metrics, &report.info}) {
    for (auto& [name, value] : *values) {
      if (!std::isfinite(value)) {
        report.check(false, name + " is not finite");
        value = 0.0;
      }
    }
  }
  // Every reported name must be catalogued; an unknown one is a bug here.
  const auto catalogued = [](const std::string& name, const auto& specs) {
    for (const MetricSpec& s : specs)
      if (name == s.name) return true;
    return false;
  };
  for (const auto& [name, value] : report.metrics) {
    (void)value;
    const bool known = options.trace ? catalogued(name, kPerLayer) : catalogued(name, kEndToEnd);
    if (!known) report.check(false, "uncatalogued metric " + name);
  }

  const std::size_t nproc = cpu_count();
  const bool oversubscribed = report.threads > nproc;
  if (oversubscribed) {
    std::fprintf(stderr, "perfbench: WARNING %s keeps %zu threads busy on %zu cpus\n",
                 options.workload.c_str(), report.threads, nproc);
  }
  const std::string env =
      "{\"nproc\": " + std::to_string(nproc) + ", \"threads\": " + std::to_string(report.threads) +
      ", \"oversubscribed\": " + (oversubscribed ? "true" : "false") +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + json_string(PERFBENCH_COMPILER " " __VERSION__) +
      ", \"commit\": " + json_string(options.source_id) + "}";

  std::string info = "{";
  for (const auto& [name, value] : report.info) {
    info += (info.size() > 1 ? ", " : "") + json_string(name) + ": " + json_number(value);
  }
  info += "}";
  std::string problems = "[";
  for (const std::string& p : report.problems) {
    problems += (problems.size() > 1 ? ", " : "") + json_string(p);
  }
  problems += "]";

  const bool correct = report.failed == 0 && report.attempted > 0;
  const std::string metrics = options.trace ? metrics_json(kPerLayer, report.metrics)
                                            : metrics_json(kEndToEnd, report.metrics);
  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(report.attempted) +
                             ", \"failed\": " + std::to_string(report.failed) +
                             ", \"metrics\": " + metrics + "}";

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (options.trace) {
    print_table("per-layer metrics:", kPerLayer, report.metrics);
  } else {
    print_table("end-to-end metrics:", kEndToEnd, report.metrics);
    print_table("end-to-end, not gated:", kEndToEndInfo, report.info);
  }
  for (const std::string& p : report.problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  const std::string detail = "{\"env\": " + env + ", \"info\": " + info +
                             ", \"problems\": " + problems + "}";
  std::string series = "[";
  for (const auto& w : report.series) {
    series += std::string(series.size() > 1 ? ", " : "") + "[" + json_number(w[0]) + ", " +
              json_number(w[1]) + ", " + json_number(w[2]) + "]";
  }
  series += "]";
  const std::string file = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  if (std::FILE* out = std::fopen(file.c_str(), "w")) {
    std::fprintf(out, "{\"detail\": %s, \"windows\": %s, \"result\": %s}\n", detail.c_str(),
                 series.c_str(), result.c_str());
    std::fclose(out);
  }
  std::printf("%s\n%s\n", detail.c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
