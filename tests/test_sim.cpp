#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace moteur::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  double inner_time = -1;
  sim.schedule(1.0, [&] {
    sim.schedule(2.0, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, 3.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int count = 0;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule(t, [&] { ++count; });
  }
  sim.run_until(2.5);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(count, 4);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), InternalError);
  EXPECT_THROW(sim.schedule(-1.0, [] {}), InternalError);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 10u);
}

TEST(Simulator, CancelOfAStaleIdLeavesTheReusedSlotsEventIntact) {
  Simulator sim;
  const EventId cancelled = sim.schedule(1.0, [] {});
  ASSERT_TRUE(sim.cancel(cancelled));
  bool ran = false;
  const EventId reused = sim.schedule(2.0, [&] { ran = true; });
  // Same slot (low 32 bits), newer generation.
  ASSERT_EQ(static_cast<std::uint32_t>(reused), static_cast<std::uint32_t>(cancelled));
  ASSERT_NE(reused, cancelled);
  EXPECT_FALSE(sim.cancel(cancelled));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(ran);

  // An executed event's id is stale too, once its slot holds a newer event.
  bool second_ran = false;
  const EventId next = sim.schedule(1.0, [&] { second_ran = true; });
  ASSERT_EQ(static_cast<std::uint32_t>(next), static_cast<std::uint32_t>(reused));
  EXPECT_FALSE(sim.cancel(reused));
  sim.run();
  EXPECT_TRUE(second_ran);
  EXPECT_FALSE(sim.cancel(next));
}

TEST(Simulator, CancelRejectsIdsItNeverIssued) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(0));
  const EventId id = sim.schedule(1.0, [] {});
  EXPECT_FALSE(sim.cancel(id + 1));                  // slot never allocated
  EXPECT_FALSE(sim.cancel(id + (EventId{1} << 32)));  // generation not yet issued
  sim.run();
  // The freed slot's next generation has not been handed out either.
  EXPECT_FALSE(sim.cancel(id + (EventId{1} << 32)));
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// Differential test: the slab-and-heap kernel against the map + binary-heap
// kernel it replaced, kept here verbatim as the reference model.
// ---------------------------------------------------------------------------

class ReferenceSimulator {
 public:
  Time now() const { return now_; }

  EventId schedule(Time delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  EventId schedule_at(Time at, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Entry{at, next_sequence_++, id});
    callbacks_.emplace(id, std::move(fn));
    ++live_events_;
    return id;
  }

  bool cancel(EventId id) {
    const auto it = callbacks_.find(id);
    if (it == callbacks_.end()) return false;
    callbacks_.erase(it);
    --live_events_;
    return true;
  }

  bool step() {
    while (!queue_.empty()) {
      const Entry entry = queue_.top();
      queue_.pop();
      const auto it = callbacks_.find(entry.id);
      if (it == callbacks_.end()) continue;
      std::function<void()> fn = std::move(it->second);
      callbacks_.erase(it);
      --live_events_;
      now_ = entry.time;
      ++executed_;
      fn();
      return true;
    }
    return false;
  }

  void run() {
    while (step()) {
    }
  }

  void run_until(Time horizon) {
    while (!queue_.empty()) {
      const Entry entry = queue_.top();
      if (callbacks_.find(entry.id) == callbacks_.end()) {
        queue_.pop();
        continue;
      }
      if (entry.time > horizon) break;
      step();
    }
    if (horizon > now_) now_ = horizon;
  }

  std::size_t pending_events() const { return live_events_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  struct Entry {
    Time time;
    std::uint64_t sequence;
    EventId id;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  Time now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> queue_;
  std::unordered_map<EventId, std::function<void()>> callbacks_;
  std::size_t live_events_ = 0;
  std::uint64_t executed_ = 0;
};

/// Drives one kernel through a seeded random script and logs everything
/// observable. Decisions come from the runner's own generator, so two
/// kernels that behave alike are driven alike — callbacks included.
template <class Kernel>
class ScriptRunner {
 public:
  explicit ScriptRunner(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::string> run(int operations) {
    for (int op = 0; op < operations; ++op) {
      switch (pick(8)) {
        case 0:
        case 1:
        case 2:
          schedule();
          break;
        case 3:
          cancel_issued();
          break;
        case 4:
          // Ids no kernel hands out: 0 and an out-of-range slot.
          log("cancel-unknown", kernel_.cancel(pick(2) == 0 ? 0 : ~EventId{0}));
          break;
        case 5:
        case 6:
          log("step", kernel_.step());
          break;
        default:
          kernel_.run_until(kernel_.now() + 0.25 * static_cast<double>(pick(9)));
          log("run_until", true);
          break;
      }
    }
    kernel_.run();
    log("run", true);
    return log_;
  }

 private:
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  /// Delays on a 0.25 s grid, so equal times (and their ties) are common.
  void schedule() {
    const std::size_t label = ids_.size();
    const Time delay = 0.25 * static_cast<double>(pick(6));
    std::function<void()> fn = [this, label] { fire(label); };
    const Time at = kernel_.now() + delay;
    ids_.push_back(pick(2) == 0 ? kernel_.schedule(delay, std::move(fn))
                                : kernel_.schedule_at(at, std::move(fn)));
    log("schedule " + std::to_string(label), true);
  }

  /// Cancels any id issued so far: live, executed or already cancelled.
  void cancel_issued() {
    if (ids_.empty()) return;
    const std::size_t label = pick(ids_.size());
    log("cancel " + std::to_string(label), kernel_.cancel(ids_[label]));
  }

  void fire(std::size_t label) {
    log("fire " + std::to_string(label), true);
    const std::size_t action = pick(4);
    if (action == 0 && ids_.size() < 4000) {
      schedule();
      schedule();
    } else if (action == 1) {
      cancel_issued();
    }
  }

  void log(const std::string& what, bool result) {
    log_.push_back(what + " -> " + (result ? "1" : "0") + " now=" +
                   std::to_string(kernel_.now()) +
                   " pending=" + std::to_string(kernel_.pending_events()) +
                   " executed=" + std::to_string(kernel_.executed_events()));
  }

  Kernel kernel_;
  std::mt19937_64 rng_;
  std::vector<EventId> ids_;  // by label, in issue order
  std::vector<std::string> log_;
};

TEST(SimulatorDifferential, MatchesTheReferenceKernelOnRandomScripts) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<std::string> expected =
        ScriptRunner<ReferenceSimulator>(seed).run(600);
    const std::vector<std::string> actual = ScriptRunner<Simulator>(seed).run(600);
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "seed " << seed << ", log line " << i;
    }
  }
}

TEST(Resource, GrantsUpToCapacityImmediately) {
  Simulator sim;
  Resource res(sim, 2);
  int granted = 0;
  res.acquire([&] { ++granted; });
  res.acquire([&] { ++granted; });
  res.acquire([&] { ++granted; });  // queued
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(res.in_use(), 2u);
  EXPECT_EQ(res.queue_length(), 1u);
}

TEST(Resource, ReleaseHandsSlotToOldestWaiterFifo) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<int> order;
  res.acquire([&] { order.push_back(0); });
  res.acquire([&] { order.push_back(1); });
  res.acquire([&] { order.push_back(2); });
  res.release();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  res.release();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  res.release();
  EXPECT_EQ(res.in_use(), 0u);
}

TEST(Resource, ReleaseWithoutAcquireThrows) {
  Simulator sim;
  Resource res(sim, 1);
  EXPECT_THROW(res.release(), InternalError);
}

TEST(Resource, SimulatesQueueingDelay) {
  // Two 10-second holders on a 1-slot resource: second starts at t=10.
  Simulator sim;
  Resource res(sim, 1);
  std::vector<double> start_times;
  for (int i = 0; i < 2; ++i) {
    res.acquire([&] {
      start_times.push_back(sim.now());
      sim.schedule(10.0, [&] { res.release(); });
    });
  }
  sim.run();
  ASSERT_EQ(start_times.size(), 2u);
  EXPECT_DOUBLE_EQ(start_times[0], 0.0);
  EXPECT_DOUBLE_EQ(start_times[1], 10.0);
}

}  // namespace
}  // namespace moteur::sim
