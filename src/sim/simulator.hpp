#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace moteur::sim {

/// Simulated time, in seconds since the start of the run.
using Time = double;

/// Opaque identifier of a scheduled event; usable to cancel it. Packs the
/// event's slot (low 32 bits) with the slot's generation (high 32 bits), so
/// an id outlives its event harmlessly: once the event runs or is cancelled
/// the slot's generation moves on and the old id matches nothing.
using EventId = std::uint64_t;

/// Discrete-event simulation kernel.
///
/// Events are (time, callback) pairs. Callbacks live in a slab of slots
/// recycled through a free list; a 4-ary min-heap orders (time, sequence,
/// slot, generation) entries, and entries whose generation no longer matches
/// their slot (cancelled events) are skipped when they surface. Ties on time
/// are broken by insertion order, which makes runs fully deterministic: the
/// same schedule of calls always replays the same execution. All grid
/// components (broker, computing elements, transfers) and the simulated
/// enactment backend are driven from this single clock.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule(Time delay, std::function<void()> fn);

  /// Schedule `fn` at absolute time `at` (at >= now()).
  EventId schedule_at(Time at, std::function<void()> fn);

  /// Cancel a pending event. Returns false if it already ran, was already
  /// cancelled, or never existed — also once its slot holds a newer event.
  bool cancel(EventId id);

  /// Run one event. Returns false when the queue is empty.
  bool step();

  /// Run until the event queue drains.
  void run();

  /// Run events with time <= horizon; the clock ends at min(horizon, last
  /// event time) and is advanced to `horizon` if events remain beyond it.
  void run_until(Time horizon);

  bool empty() const { return live_events_ == 0; }
  std::size_t pending_events() const { return live_events_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  struct Slot {
    std::function<void()> fn;
    std::uint32_t generation = 1;  // bumped on free; ids start non-zero
    bool live = false;
  };
  struct Entry {
    Time time;
    std::uint64_t sequence;  // insertion order; tie-breaker
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.sequence < b.sequence;
  }
  bool stale(const Entry& entry) const {
    return slots_[entry.slot].generation != entry.generation;
  }
  void push(const Entry& entry);
  void pop();
  /// Drops stale entries off the top; false when no live event remains.
  bool prune();
  void free_slot(std::uint32_t slot);

  Time now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // reusable slot indices, LIFO
  std::vector<Entry> heap_;          // 4-ary min-heap on (time, sequence)
  std::size_t live_events_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace moteur::sim
