#include "grid/resource_broker.hpp"

#include <algorithm>
#include <utility>

#include "grid/ce_health.hpp"
#include "grid/overhead_model.hpp"
#include "obs/metrics.hpp"
#include "policy/registry.hpp"
#include "util/error.hpp"

namespace moteur::grid {

ResourceBroker::ResourceBroker(sim::Simulator& simulator, OverheadModel& overhead,
                               std::size_t concurrency, double occupancy_fraction,
                               const Rng& base)
    : simulator_(simulator),
      overhead_(overhead),
      occupancy_fraction_(occupancy_fraction),
      pipeline_(simulator, concurrency),
      tie_rng_(base.fork("broker.ties")),
      policy_rng_base_(base.fork("broker.policies")),
      default_matchmaking_(policy::kDefaultMatchmaking) {}

void ResourceBroker::add_computing_element(std::unique_ptr<ComputingElement> ce) {
  ces_.push_back(std::move(ce));
}

void ResourceBroker::remove_health(CeHealth* health) {
  health_.erase(std::remove(health_.begin(), health_.end(), health), health_.end());
}

void ResourceBroker::set_default_matchmaking(const std::string& name) {
  default_matchmaking_ =
      policy::PolicyRegistry::instance().matchmaking.check(name, "matchmaking policy");
  default_entry_ = nullptr;
}

void ResourceBroker::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  for (auto& [name, entry] : policies_) entry.decisions = nullptr;
}

ResourceBroker::PolicyEntry& ResourceBroker::policy_for(const std::string& name) {
  if (name.empty() && default_entry_ != nullptr) return *default_entry_;
  const std::string& key = name.empty() ? default_matchmaking_ : name;
  auto it = policies_.find(key);
  if (it == policies_.end()) {
    auto policy = policy::PolicyRegistry::instance().matchmaking.make(key, policy_rng_base_);
    it = policies_.emplace(key, PolicyEntry{std::move(policy), nullptr}).first;
  }
  if (name.empty()) default_entry_ = &it->second;
  return it->second;
}

bool ResourceBroker::policy_wants_stage_in(const std::string& name) {
  return policy_for(name).policy->wants_stage_in();
}

ComputingElement& ResourceBroker::match(const StageInEstimator& stage_in,
                                        const MatchContext& context) {
  MOTEUR_REQUIRE(!ces_.empty(), ExecutionError, "resource broker has no computing elements");
  const double now = simulator_.now();
  const auto admissible = [&](const ComputingElement& ce) {
    return std::all_of(health_.begin(), health_.end(),
                       [&](CeHealth* h) { return h->admissible(ce.name(), now); });
  };
  const auto avoided = [&](const ComputingElement& ce) {
    return std::find(context.avoid.begin(), context.avoid.end(), ce.name()) !=
           context.avoid.end();
  };
  // Candidate pool in registration order. Health vetoes drive the rerouting
  // accounting; placement avoidance just narrows the pool and never counts
  // as a reroute.
  const bool vetted = !health_.empty();
  bool excluded_any = false;
  pool_.clear();
  for (const auto& ce : ces_) {
    if (vetted && !admissible(*ce)) {
      excluded_any = true;
      continue;
    }
    if (!context.avoid.empty() && avoided(*ce)) continue;
    pool_.push_back(ce.get());
  }
  if (pool_.empty() && !context.avoid.empty()) {
    // Avoidance covered every healthy CE: drop the advisory constraint.
    for (const auto& ce : ces_) {
      if (!vetted || admissible(*ce)) pool_.push_back(ce.get());
    }
  }
  if (pool_.empty()) {
    // Every breaker is open (or half-open): degrade to ranking the full set
    // rather than stranding the submission.
    excluded_any = false;
    for (const auto& ce : ces_) pool_.push_back(ce.get());
  }
  candidates_.resize(pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    const ComputingElement& ce = *pool_[i];
    policy::CeCandidate& candidate = candidates_[i];
    candidate.name = ce.name();
    candidate.queue_rank = ce.rank_estimate();
    candidate.stage_in_seconds = stage_in ? stage_in(ce) : 0.0;
  }
  PolicyEntry& entry = policy_for(context.policy);
  const std::size_t pick = entry.policy->choose(candidates_, tie_rng_);
  MOTEUR_REQUIRE(pick < pool_.size(), InternalError,
                 "matchmaking policy '" + entry.policy->name() + "' chose out of range");
  ComputingElement* chosen = pool_[pick];
  if (metrics_ != nullptr) {
    if (entry.decisions == nullptr) {
      entry.decisions = &metrics_->counter(
          "moteur_policy_decisions_total",
          "Policy decisions by policy name and decision kind",
          {{"policy", entry.policy->name()}, {"kind", "matchmaking"}});
    }
    entry.decisions->inc();
  }
  for (CeHealth* h : health_) {
    if (excluded_any) h->note_rerouted(now);
    h->on_routed(chosen->name(), now);
  }
  return *chosen;
}

void ResourceBroker::submit(std::function<void(ComputingElement&)> on_matched,
                            StageInEstimator stage_in, MatchContext context) {
  // The submission occupies a pipeline slot for a fraction of the UI->RB
  // latency (the broker's actual processing); the rest of the latency and
  // the matchmaking delay do not hold the slot. Submission bursts beyond
  // the pipeline concurrency therefore queue — the "increasing load of the
  // middleware services" the paper observes — without the full latency
  // serializing.
  pipeline_.acquire([this, on_matched = std::move(on_matched),
                     stage_in = std::move(stage_in),
                     context = std::move(context)]() mutable {
    const double submission = overhead_.sample_submission();
    const double occupancy = occupancy_fraction_ * submission;
    simulator_.schedule(occupancy, [this, submission, occupancy,
                                    on_matched = std::move(on_matched),
                                    stage_in = std::move(stage_in),
                                    context = std::move(context)]() mutable {
      pipeline_.release();
      const double remaining = submission - occupancy + overhead_.sample_scheduling();
      simulator_.schedule(remaining, [this, on_matched = std::move(on_matched),
                                      stage_in = std::move(stage_in),
                                      context = std::move(context)] {
        on_matched(match(stage_in, context));
      });
    });
  });
}

}  // namespace moteur::grid
