#include "tracing_backend.hpp"

#include <utility>

namespace perfbench {

using moteur::enactor::ExecOptions;
using moteur::enactor::ExecutionBackend;
using moteur::enactor::Outcome;
using moteur::services::Inputs;
using moteur::services::Service;

std::vector<std::int64_t> BackendCounters::roundtrips() const {
  std::vector<std::int64_t> all;
  for (const auto& lane : channel_roundtrips) all.insert(all.end(), lane->begin(), lane->end());
  return all;
}

namespace {

std::shared_ptr<std::vector<std::int64_t>> new_lane(BackendCounters& counters) {
  auto lane = std::make_shared<std::vector<std::int64_t>>();
  std::lock_guard<std::mutex> lock(counters.mu);
  counters.channel_roundtrips.push_back(lane);
  return lane;
}

}  // namespace

TracingBackend::TracingBackend(ExecutionBackend& inner, Tracer& tracer)
    : inner_(inner),
      tracer_(tracer),
      counters_(std::make_shared<BackendCounters>()),
      roundtrips_(new_lane(*counters_)) {}

TracingBackend::TracingBackend(std::unique_ptr<ExecutionBackend> channel, Tracer& tracer,
                               std::shared_ptr<BackendCounters> counters)
    : owned_(std::move(channel)),
      inner_(*owned_),
      tracer_(tracer),
      counters_(std::move(counters)),
      roundtrips_(new_lane(*counters_)) {}

ExecutionBackend::Callback TracingBackend::wrap(Callback on_complete) {
  const std::int64_t in = counters_->inflight.fetch_add(1) + 1;
  std::int64_t peak = counters_->inflight_peak.load();
  while (in > peak && !counters_->inflight_peak.compare_exchange_weak(peak, in)) {
  }
  // The callback fires from within the same backend's drive(), so the lane
  // and counters (shared_ptr) and the tracer (outlives the backend) are alive.
  return [on_complete = std::move(on_complete), tracer = &tracer_, counters = counters_,
          lane = roundtrips_, submitted = now_ns()](Outcome outcome) {
    lane->push_back(now_ns() - submitted);
    counters->inflight.fetch_sub(1);
    Tracer::Scope span(tracer, Layer::kCallback);
    on_complete(std::move(outcome));
  };
}

void TracingBackend::execute(std::shared_ptr<Service> service, std::vector<Inputs> bindings,
                             Callback on_complete) {
  Tracer::Scope span(&tracer_, Layer::kExecute);
  inner_.execute(std::move(service), std::move(bindings), wrap(std::move(on_complete)));
}

void TracingBackend::execute(std::shared_ptr<Service> service, std::vector<Inputs> bindings,
                             ExecOptions options, Callback on_complete) {
  Tracer::Scope span(&tracer_, Layer::kExecute);
  inner_.execute(std::move(service), std::move(bindings), std::move(options),
                 wrap(std::move(on_complete)));
}

ExecutionBackend::TimerId TracingBackend::schedule(double delay_seconds,
                                                   std::function<void()> fn) {
  return inner_.schedule(delay_seconds, [fn = std::move(fn), tracer = &tracer_] {
    Tracer::Scope span(tracer, Layer::kTimer);
    fn();
  });
}

bool TracingBackend::drive(const std::function<bool()>& done) {
  Tracer::Scope span(&tracer_, Layer::kDrive);
  return inner_.drive(done);
}

std::unique_ptr<ExecutionBackend> TracingBackend::make_channel() {
  std::unique_ptr<ExecutionBackend> channel = inner_.make_channel();
  if (!channel) return nullptr;
  return std::unique_ptr<ExecutionBackend>(
      new TracingBackend(std::move(channel), tracer_, counters_));
}

TracingService::TracingService(std::shared_ptr<Service> inner, Tracer& tracer)
    : Service(inner->id()), inner_(std::move(inner)), tracer_(tracer) {}

moteur::services::Result TracingService::invoke(const Inputs& inputs) {
  Tracer::Scope span(&tracer_, Layer::kService);
  return inner_->invoke(inputs);
}

moteur::grid::JobRequest TracingService::job_profile(const Inputs& inputs) const {
  Tracer::Scope span(&tracer_, Layer::kService);
  return inner_->job_profile(inputs);
}

moteur::services::Result TracingService::synthesize_outputs(const Inputs& inputs) const {
  Tracer::Scope span(&tracer_, Layer::kService);
  return inner_->synthesize_outputs(inputs);
}

void add_service(moteur::services::ServiceRegistry& registry, std::shared_ptr<Service> service,
                 Tracer* tracer) {
  if (tracer != nullptr) service = std::make_shared<TracingService>(std::move(service), *tracer);
  registry.add(std::move(service));
}

}  // namespace perfbench
