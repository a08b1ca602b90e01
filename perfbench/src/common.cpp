#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (problems.size() < 8) problems.push_back(what);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

void Windows::add(double run_ms, double cpu_ms, std::int64_t end_ns) {
  open_.ms.push_back(run_ms);
  open_.cpu_ms += cpu_ms;
  if (open_.ms.size() >= kWindowRuns &&
      static_cast<double>(end_ns - open_start_ns_) / 1e9 >= kWindowSeconds) {
    windows_.push_back(std::move(open_));
    open_ = Window{};
    open_start_ns_ = end_ns;
  }
}

std::vector<Windows::Window> Windows::closed() const {
  std::vector<Window> all = windows_;
  if (all.empty()) {
    all.push_back(open_);
  } else {
    all.back().ms.insert(all.back().ms.end(), open_.ms.begin(), open_.ms.end());
    all.back().cpu_ms += open_.cpu_ms;
  }
  return all;
}

double Windows::percentile(double p) const {
  std::vector<double> per_window;
  for (const Window& w : closed()) per_window.push_back(perfbench::percentile(w.ms, p));
  return median(std::move(per_window));
}

double Windows::runs_per_s() const {
  std::vector<double> per_window;
  for (const Window& w : closed()) {
    double ms = 0.0;
    for (const double run : w.ms) ms += run;
    if (ms > 0.0) per_window.push_back(static_cast<double>(w.ms.size()) * 1e3 / ms);
  }
  return median(std::move(per_window));
}

double Windows::cpu_ms_per_run() const {
  std::vector<double> per_window;
  for (const Window& w : closed()) {
    if (!w.ms.empty()) per_window.push_back(w.cpu_ms / static_cast<double>(w.ms.size()));
  }
  return median(std::move(per_window));
}

void Windows::absorb(const Windows& other) {
  for (Window& w : other.closed()) windows_.push_back(std::move(w));
}

std::vector<std::array<double, 3>> Windows::series() const {
  std::vector<std::array<double, 3>> out;
  for (const Window& w : closed()) {
    out.push_back({static_cast<double>(w.ms.size()), perfbench::percentile(w.ms, 50.0),
                   perfbench::percentile(w.ms, 90.0)});
  }
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::vector<double> open_loop_schedule(std::uint64_t seed, double rate_per_s, double seconds) {
  std::vector<double> due;
  std::uint64_t state = mix_seed(seed, 0x0de17e);
  const double interval = 1.0 / rate_per_s;
  for (std::size_t i = 0;; ++i) {
    state = mix_seed(state, 1);
    const double u = static_cast<double>(state >> 11) * 0x1.0p-53;  // [0, 1)
    const double t = (static_cast<double>(i) + 0.5 * u) * interval;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
