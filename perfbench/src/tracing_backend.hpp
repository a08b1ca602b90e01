#pragma once

// Transparent decorators that record spans around MOTEUR's layer interfaces
// without touching the program: an ExecutionBackend that forwards every
// hook (and hands out decorated completion channels), and a Service that
// forwards every member.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "enactor/backend.hpp"
#include "services/registry.hpp"
#include "services/service.hpp"
#include "trace.hpp"

namespace perfbench {

/// Counters shared by a decorated backend and every channel it opens.
struct BackendCounters {
  std::atomic<std::int64_t> inflight{0};
  std::atomic<std::int64_t> inflight_peak{0};

  std::mutex mu;  // guards channel_roundtrips
  /// Host ns from execute() to its completion callback, one list per
  /// decorated backend or channel (each appended by one drive thread only).
  std::vector<std::shared_ptr<std::vector<std::int64_t>>> channel_roundtrips;

  /// Every recorded round trip, merged. Call once the drive threads stopped.
  std::vector<std::int64_t> roundtrips() const;
};

/// Forwards every ExecutionBackend hook to `inner`, recording a span around
/// execute() and drive(), and wrapping each completion and timer callback
/// in a span of its own. make_channel() returns a decorated channel, so a
/// RunService over the decorator keeps its shard count.
class TracingBackend final : public moteur::enactor::ExecutionBackend {
 public:
  TracingBackend(moteur::enactor::ExecutionBackend& inner, Tracer& tracer);
  TracingBackend(const TracingBackend&) = delete;
  TracingBackend& operator=(const TracingBackend&) = delete;

  void execute(std::shared_ptr<moteur::services::Service> service,
               std::vector<moteur::services::Inputs> bindings,
               Callback on_complete) override;
  void execute(std::shared_ptr<moteur::services::Service> service,
               std::vector<moteur::services::Inputs> bindings,
               moteur::enactor::ExecOptions options, Callback on_complete) override;
  double now() const override { return inner_.now(); }
  TimerId schedule(double delay_seconds, std::function<void()> fn) override;
  void cancel(TimerId id) override { inner_.cancel(id); }
  bool drive(const std::function<bool()>& done) override;
  void set_metrics(moteur::obs::MetricsRegistry* metrics) override {
    inner_.set_metrics(metrics);
  }
  void set_event_sink(std::function<void(const moteur::obs::RunEvent&)> sink) override {
    inner_.set_event_sink(std::move(sink));
  }
  void set_health(moteur::grid::CeHealth* health) override { inner_.set_health(health); }
  void add_health(moteur::grid::CeHealth* health) override { inner_.add_health(health); }
  void remove_health(moteur::grid::CeHealth* health) override {
    inner_.remove_health(health);
  }
  void notify() override { inner_.notify(); }
  moteur::data::ReplicaCatalog* catalog() const override { return inner_.catalog(); }
  std::unique_ptr<moteur::enactor::ExecutionBackend> make_channel() override;

  const BackendCounters& counters() const { return *counters_; }

 private:
  TracingBackend(std::unique_ptr<moteur::enactor::ExecutionBackend> channel, Tracer& tracer,
                 std::shared_ptr<BackendCounters> counters);
  Callback wrap(Callback on_complete);

  std::unique_ptr<moteur::enactor::ExecutionBackend> owned_;  // set for channels
  moteur::enactor::ExecutionBackend& inner_;
  Tracer& tracer_;
  std::shared_ptr<BackendCounters> counters_;
  std::shared_ptr<std::vector<std::int64_t>> roundtrips_;
};

/// Forwards every Service member to `inner`, recording a span around the
/// calls that do the service's work: invoke(), job_profile() and
/// synthesize_outputs().
class TracingService final : public moteur::services::Service {
 public:
  TracingService(std::shared_ptr<moteur::services::Service> inner, Tracer& tracer);

  std::vector<std::string> input_ports() const override { return inner_->input_ports(); }
  std::vector<std::string> output_ports() const override { return inner_->output_ports(); }
  std::size_t max_concurrent_invocations() const override {
    return inner_->max_concurrent_invocations();
  }
  moteur::services::Result invoke(const moteur::services::Inputs& inputs) override;
  moteur::grid::JobRequest job_profile(const moteur::services::Inputs& inputs) const override;
  moteur::services::Result synthesize_outputs(
      const moteur::services::Inputs& inputs) const override;
  bool deterministic() const override { return inner_->deterministic(); }
  std::uint64_t content_digest() const override { return inner_->content_digest(); }

 private:
  std::shared_ptr<moteur::services::Service> inner_;
  Tracer& tracer_;
};

/// Adds `service` to `registry`, wrapped in a TracingService when `tracer`
/// is set.
void add_service(moteur::services::ServiceRegistry& registry,
                 std::shared_ptr<moteur::services::Service> service, Tracer* tracer);

}  // namespace perfbench
