#include "sim/simulator.hpp"

#include <utility>

#include "util/error.hpp"

namespace moteur::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

EventId Simulator::schedule(Time delay, std::function<void()> fn) {
  MOTEUR_REQUIRE(delay >= 0.0, InternalError, "Simulator::schedule: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(Time at, std::function<void()> fn) {
  MOTEUR_REQUIRE(at >= now_, InternalError, "Simulator::schedule_at: time in the past");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  push(Entry{at, next_sequence_++, slot, s.generation});
  ++live_events_;
  return (static_cast<EventId>(s.generation) << 32) | slot;
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (!s.live || s.generation != static_cast<std::uint32_t>(id >> 32)) return false;
  // The heap entry stays behind, stale, and is skipped when it surfaces. The
  // callback is destroyed last, after the kernel's bookkeeping is done.
  const std::function<void()> doomed = std::move(slots_[slot].fn);
  free_slot(slot);
  --live_events_;
  return true;
}

bool Simulator::step() {
  if (!prune()) return false;
  const Entry entry = heap_.front();
  pop();
  std::function<void()> fn = std::move(slots_[entry.slot].fn);
  free_slot(entry.slot);
  --live_events_;
  now_ = entry.time;
  ++executed_;
  fn();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Time horizon) {
  while (prune() && heap_.front().time <= horizon) step();
  if (horizon > now_) now_ = horizon;
}

void Simulator::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  ++s.generation;
  free_.push_back(slot);
}

bool Simulator::prune() {
  while (!heap_.empty() && stale(heap_.front())) pop();
  return !heap_.empty();
}

void Simulator::push(const Entry& entry) {
  std::size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Simulator::pop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

}  // namespace moteur::sim
