#pragma once

// Host-time spans recorded by the benchmark around its calls into MOTEUR's
// public interfaces. Every thread keeps its own span stack, so a span's self
// time (its duration minus the time its direct children cover) is computed
// when it closes, with no locking on the hot path. Spans are kept in memory
// while the tracer keeps a sample (see stop_keeping) and written out once,
// when the benchmark ends; the totals cover every span.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer boundary a span wraps.
enum class Layer : std::uint8_t {
  kRun,       // Enactor::run, one workflow enactment
  kDrive,     // ExecutionBackend::drive
  kCallback,  // a completion callback handed to ExecutionBackend::execute
  kTimer,     // a timer callback handed to ExecutionBackend::schedule
  kExecute,   // ExecutionBackend::execute
  kService,   // Service::invoke / job_profile / synthesize_outputs
  kSubmit,    // RunService::submit
};
inline constexpr std::size_t kLayers = 7;
const char* layer_name(Layer layer);

struct LayerTotals {
  std::int64_t total_ns = 0;  // summed span durations
  std::int64_t self_ns = 0;   // durations minus the direct children's
  std::int64_t root_ns = 0;   // durations of spans opened with no parent
  std::uint64_t count = 0;
};

/// One recorded span. `parent` indexes the same thread's span list (-1 for
/// a root); `run` is the benchmark's id of the run being enacted (0 when the
/// span belongs to no single run, e.g. a shard's drive loop).
struct Span {
  Layer layer = Layer::kRun;
  std::int32_t parent = -1;
  std::uint64_t run = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  struct ThreadLog;

  /// Opens a span on construction and closes it on destruction. A null
  /// tracer makes it a no-op, so untraced code paths share the call sites.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer) : log_(tracer ? &tracer->open(layer) : nullptr) {}
    ~Scope() {
      if (log_ != nullptr) close(*log_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadLog* log_;
  };

  /// Tags spans opened by the calling thread from now on with `run`.
  static void set_current_run(std::uint64_t run);

  /// Ends the kept sample: spans opened from now on count in the totals but
  /// are not kept for write_csv. A traced run of a whole workload opens
  /// millions of spans; the workloads keep those of their first few runs.
  void stop_keeping() { keeping_.store(false, std::memory_order_relaxed); }

  /// Per-thread view, in thread registration order. Call only once every
  /// thread that recorded spans has stopped (or been joined).
  struct ThreadSummary {
    std::array<LayerTotals, kLayers> layers;
    std::uint64_t spans_dropped = 0;
  };
  std::vector<ThreadSummary> threads() const;
  /// Totals of one layer across threads (same quiescence rule).
  LayerTotals totals(Layer layer) const;
  /// Spans counted in the totals but not kept, after stop_keeping().
  std::uint64_t dropped() const;
  /// dropped() over all spans opened (same quiescence rule).
  double not_kept_frac() const;

  /// Writes every kept span as CSV (thread, span, parent, layer, run,
  /// start_ns, end_ns). Returns the number of rows written, or -1 when the
  /// file cannot be opened.
  long write_csv(const std::string& path) const;

  struct Frame {
    Layer layer;
    std::int32_t index;  // position in ThreadLog::spans, -1 when not kept
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct ThreadLog {
    std::vector<Frame> stack;
    std::vector<Span> spans;
    std::array<LayerTotals, kLayers> layers{};
    std::uint64_t dropped = 0;
  };

 private:
  ThreadLog& log();
  ThreadLog& open(Layer layer);
  static void close(ThreadLog& log);

  std::atomic<bool> keeping_{true};
  const std::uint64_t generation_;  // unique per tracer; keys the thread-local cache
  mutable std::mutex mu_;           // guards logs_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

}  // namespace perfbench
