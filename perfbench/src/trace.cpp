#include "trace.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_generation{1};
thread_local std::uint64_t t_current_run = 0;

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRun: return "run";
    case Layer::kDrive: return "drive";
    case Layer::kCallback: return "callback";
    case Layer::kTimer: return "timer";
    case Layer::kExecute: return "execute";
    case Layer::kService: return "service";
    case Layer::kSubmit: return "submit";
  }
  return "?";
}

Tracer::Tracer() : generation_(g_next_generation.fetch_add(1)) {}

void Tracer::set_current_run(std::uint64_t run) { t_current_run = run; }

Tracer::ThreadLog& Tracer::log() {
  // One-entry cache per thread; the generation tells tracers apart even when
  // a new one reuses a destroyed one's address.
  thread_local std::uint64_t cached_generation = 0;
  thread_local ThreadLog* cached = nullptr;
  if (cached_generation == generation_) return *cached;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<ThreadLog>());
  cached = logs_.back().get();
  cached_generation = generation_;
  return *cached;
}

Tracer::ThreadLog& Tracer::open(Layer layer) {
  ThreadLog& lg = log();
  Frame frame{layer, -1, 0, 0};
  if (keeping_.load(std::memory_order_relaxed)) {
    frame.index = static_cast<std::int32_t>(lg.spans.size());
    const std::int32_t parent = lg.stack.empty() ? -1 : lg.stack.back().index;
    lg.spans.push_back(Span{layer, parent, t_current_run, 0, 0});
  } else {
    ++lg.dropped;
  }
  frame.start_ns = now_ns();
  lg.stack.push_back(frame);
  return lg;
}

void Tracer::close(ThreadLog& lg) {
  const std::int64_t end = now_ns();
  const Frame frame = lg.stack.back();
  lg.stack.pop_back();
  const std::int64_t duration = end - frame.start_ns;
  LayerTotals& totals = lg.layers[static_cast<std::size_t>(frame.layer)];
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  ++totals.count;
  if (lg.stack.empty()) {
    totals.root_ns += duration;
  } else {
    lg.stack.back().child_ns += duration;
  }
  if (frame.index >= 0) {
    Span& span = lg.spans[static_cast<std::size_t>(frame.index)];
    span.start_ns = frame.start_ns;
    span.end_ns = end;
  }
}

std::vector<Tracer::ThreadSummary> Tracer::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadSummary> out;
  out.reserve(logs_.size());
  for (const auto& lg : logs_) out.push_back(ThreadSummary{lg->layers, lg->dropped});
  return out;
}

LayerTotals Tracer::totals(Layer layer) const {
  LayerTotals sum;
  for (const ThreadSummary& t : threads()) {
    const LayerTotals& l = t.layers[static_cast<std::size_t>(layer)];
    sum.total_ns += l.total_ns;
    sum.self_ns += l.self_ns;
    sum.root_ns += l.root_ns;
    sum.count += l.count;
  }
  return sum;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t sum = 0;
  for (const ThreadSummary& t : threads()) sum += t.spans_dropped;
  return sum;
}

double Tracer::not_kept_frac() const {
  std::uint64_t opened = 0;
  for (const ThreadSummary& t : threads()) {
    for (const LayerTotals& l : t.layers) opened += l.count;
  }
  return opened ? static_cast<double>(dropped()) / static_cast<double>(opened) : 0.0;
}

long Tracer::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return -1;
  std::fputs("thread,span,parent,layer,run,start_ns,end_ns\n", out);
  long rows = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    const auto& spans = logs_[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%zu,%zu,%d,%s,%llu,%lld,%lld\n", t, i, s.parent,
                   layer_name(s.layer), static_cast<unsigned long long>(s.run),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
      ++rows;
    }
  }
  std::fclose(out);
  return rows;
}

}  // namespace perfbench
