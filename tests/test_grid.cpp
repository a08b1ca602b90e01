#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "alloc_count.hpp"
#include "grid/background_load.hpp"
#include "grid/grid.hpp"
#include "grid/overhead_model.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace moteur::grid {
namespace {

JobRequest job(const std::string& name, double compute, double in_mb = 0.0,
               double out_mb = 0.0) {
  JobRequest r;
  r.name = name;
  r.compute_seconds = compute;
  r.input_megabytes = in_mb;
  r.output_megabytes = out_mb;
  return r;
}

TEST(LatencyModel, Means) {
  EXPECT_DOUBLE_EQ(LatencyModel::constant_of(30.0).mean(), 30.0);
  EXPECT_DOUBLE_EQ(LatencyModel::uniform(10.0, 20.0).mean(), 15.0);
  // Lognormal mean = median * exp(sigma^2 / 2).
  EXPECT_NEAR(LatencyModel::lognormal(100.0, 0.5).mean(), 100.0 * std::exp(0.125), 1e-9);
  const auto mix = LatencyModel::lognormal_mixture(100.0, 0.5, 0.1, 3.0);
  EXPECT_NEAR(mix.mean(), 0.9 * 100.0 * std::exp(0.125) + 0.1 * 300.0 * std::exp(0.125),
              1e-9);
}

TEST(GridConstant, JobTimeIsExactlyOverheadPlusCompute) {
  sim::Simulator sim;
  Grid grid(sim, GridConfig::constant(600.0));
  double total = -1;
  grid.submit(job("j", 120.0), [&](const JobRecord& r) {
    EXPECT_EQ(r.state, JobState::kDone);
    total = r.total_seconds();
  });
  sim.run();
  EXPECT_DOUBLE_EQ(total, 720.0);
}

TEST(GridConstant, ManyParallelJobsSeeNoContention) {
  // The ideal grid has enough slots and broker concurrency that N
  // simultaneous submissions all complete at overhead + compute.
  sim::Simulator sim;
  Grid grid(sim, GridConfig::constant(100.0));
  std::vector<double> completions;
  for (int i = 0; i < 200; ++i) {
    grid.submit(job("j" + std::to_string(i), 50.0),
                [&](const JobRecord& r) { completions.push_back(r.completion_time); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 200u);
  for (double t : completions) EXPECT_DOUBLE_EQ(t, 150.0);
}

TEST(GridConstant, OverheadAccountingSeparatesComputeAndTransfers) {
  auto config = GridConfig::constant(300.0);
  config.transfer_latency_seconds = 5.0;
  config.transfer_bandwidth_mb_per_s = 2.0;
  sim::Simulator sim;
  Grid grid(sim, config);
  JobRecord record;
  grid.submit(job("j", 60.0, 8.0, 2.0), [&](const JobRecord& r) { record = r; });
  sim.run();
  EXPECT_EQ(record.state, JobState::kDone);
  // in: 5 + 8/2 = 9s, out: 5 + 2/2 = 6s.
  EXPECT_DOUBLE_EQ(record.input_transfer_seconds, 9.0);
  EXPECT_DOUBLE_EQ(record.output_transfer_seconds, 6.0);
  EXPECT_DOUBLE_EQ(record.run_end_time - record.run_start_time, 60.0);
  EXPECT_NEAR(record.overhead_seconds(), 300.0, 1e-9);
  EXPECT_DOUBLE_EQ(record.total_seconds(), 375.0);
}

TEST(GridConstant, SlotContentionQueuesJobs) {
  // 2 slots, 3 jobs of 100 s, zero overhead: last job completes at 200.
  sim::Simulator sim;
  Grid grid(sim, GridConfig::constant(0.0, /*slots=*/2));
  std::vector<double> completions;
  for (int i = 0; i < 3; ++i) {
    grid.submit(job("j", 100.0),
                [&](const JobRecord& r) { completions.push_back(r.completion_time); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 100.0);
  EXPECT_DOUBLE_EQ(completions[1], 100.0);
  EXPECT_DOUBLE_EQ(completions[2], 200.0);
}

TEST(GridEgee, OverheadIsLargeAndVariable) {
  // The paper reports ~10 min +/- 5 min overhead on EGEE (§5.1). Check the
  // simulated distribution lands in that regime.
  sim::Simulator sim;
  auto config = GridConfig::egee2006(123);
  config.failure_probability = 0.0;  // isolate the overhead distribution
  config.background_jobs_per_hour = 0.0;
  Grid grid(sim, config);
  RunningStats overheads;
  // Spread the submissions (a burst would serialize on the UI host and
  // measure contention rather than the per-job overhead distribution).
  for (int i = 0; i < 300; ++i) {
    sim.schedule(i * 60.0, [&grid, &overheads, i] {
      grid.submit(job("j" + std::to_string(i), 60.0),
                  [&](const JobRecord& r) { overheads.add(r.overhead_seconds()); });
    });
  }
  sim.run();
  ASSERT_EQ(overheads.count(), 300u);
  EXPECT_GT(overheads.mean(), 300.0);
  EXPECT_LT(overheads.mean(), 1500.0);
  EXPECT_GT(overheads.stddev(), 100.0);  // "quite variable"
}

TEST(GridEgee, FailuresAreRetriedTransparently) {
  sim::Simulator sim;
  auto config = GridConfig::egee2006(7);
  config.failure_probability = 0.3;
  config.max_attempts = 10;
  config.background_jobs_per_hour = 0.0;
  Grid grid(sim, config);
  int done = 0;
  int multi_attempt = 0;
  for (int i = 0; i < 100; ++i) {
    grid.submit(job("j" + std::to_string(i), 30.0), [&](const JobRecord& r) {
      if (r.state == JobState::kDone) ++done;
      if (r.attempts > 1) ++multi_attempt;
    });
  }
  sim.run();
  EXPECT_EQ(done, 100);            // all eventually succeed
  EXPECT_GT(multi_attempt, 10);    // ~30% needed resubmission
  EXPECT_GT(grid.stats().failed_attempts, 10u);
}

TEST(GridEgee, ExhaustedRetriesReportFailure) {
  sim::Simulator sim;
  auto config = GridConfig::egee2006(7);
  config.failure_probability = 1.0;  // every attempt dies
  config.max_attempts = 3;
  config.background_jobs_per_hour = 0.0;
  Grid grid(sim, config);
  JobRecord record;
  grid.submit(job("doomed", 30.0), [&](const JobRecord& r) { record = r; });
  sim.run_until(1e7);
  EXPECT_EQ(record.state, JobState::kFailed);
  EXPECT_EQ(record.attempts, 3);
  EXPECT_EQ(grid.stats().failed, 1u);
}

TEST(GridEgee, DeterministicUnderSameSeed) {
  const auto run_once = [] {
    sim::Simulator sim;
    Grid grid(sim, GridConfig::egee2006(99));
    std::vector<double> completions;
    for (int i = 0; i < 50; ++i) {
      grid.submit(job("j" + std::to_string(i), 45.0),
                  [&](const JobRecord& r) { completions.push_back(r.completion_time); });
    }
    // Drive only until the foreground jobs finished (background load keeps
    // generating events).
    while (completions.size() < 50 && sim.step()) {
    }
    return completions;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(GridEgee, BrokerSpreadsLoadAcrossSites) {
  sim::Simulator sim;
  auto config = GridConfig::egee2006(5);
  config.background_jobs_per_hour = 0.0;
  Grid grid(sim, config);
  std::set<std::string> sites;
  int remaining = 200;
  for (int i = 0; i < 200; ++i) {
    grid.submit(job("j", 600.0), [&](const JobRecord& r) {
      sites.insert(r.computing_element);
      --remaining;
    });
  }
  while (remaining > 0 && sim.step()) {
  }
  EXPECT_GT(sites.size(), 5u);
}

TEST(GridEgee, BackgroundLoadSlowsForegroundJobs) {
  const auto makespan_with_background = [](double jobs_per_hour) {
    sim::Simulator sim;
    auto config = GridConfig::egee2006(11);
    config.background_jobs_per_hour = jobs_per_hour;
    // Shrink the grid so contention actually bites.
    config.computing_elements.resize(2);
    for (auto& ce : config.computing_elements) ce.worker_slots = 4;
    config.failure_probability = 0.0;
    Grid grid(sim, config);
    double last = 0.0;
    int remaining = 60;
    for (int i = 0; i < 60; ++i) {
      grid.submit(JobRequest{"j", 1800.0, 0.0, 0.0}, [&](const JobRecord& r) {
        last = std::max(last, r.completion_time);
        --remaining;
      });
    }
    while (remaining > 0 && sim.step()) {
    }
    return last;
  };
  EXPECT_GT(makespan_with_background(400.0), makespan_with_background(0.0));
}

/// A broker over the egee2006 sites whose background load has run for six
/// simulated hours, so the CEs carry the busy slots and queues matchmaking
/// ranks in a real run.
struct LoadedBroker {
  explicit LoadedBroker(std::uint64_t seed)
      : config(GridConfig::egee2006(seed)),
        rng(seed),
        overhead(config, rng),
        broker(simulator, overhead, config.broker_concurrency,
               config.broker_occupancy_fraction, rng) {
    for (const auto& ce : config.computing_elements) {
      broker.add_computing_element(
          std::make_unique<ComputingElement>(simulator, ce, rng));
    }
    background = std::make_unique<BackgroundLoad>(
        simulator, broker, config.background_jobs_per_hour,
        config.background_mean_duration, config.background_horizon_seconds, rng);
    simulator.run_until(6 * 3600.0);
  }

  sim::Simulator simulator;
  GridConfig config;
  Rng rng;
  OverheadModel overhead;
  ResourceBroker broker;
  std::unique_ptr<BackgroundLoad> background;
};

TEST(BrokerMatch, AllocatesNothingAfterTheFirstCall) {
  LoadedBroker grid(11);
  ASSERT_GT(grid.background->jobs_generated(), 0u);
  obs::MetricsRegistry metrics;
  grid.broker.set_metrics(&metrics);
  // The first match instantiates the policy, resolves its decision counter
  // and sizes the work buffers.
  grid.broker.match();
  const std::size_t before = allocation_count();
  for (int i = 0; i < 1000; ++i) grid.broker.match();
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_DOUBLE_EQ(metrics
                       .counter("moteur_policy_decisions_total", "",
                                {{"policy", "queue-rank"}, {"kind", "matchmaking"}})
                       .value(),
                   1001.0);
}

}  // namespace
}  // namespace moteur::grid
