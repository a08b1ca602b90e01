#include "policy/registry.hpp"

#include <algorithm>

namespace moteur::policy {

namespace {

// ---------------------------------------------------------------------------
// Matchmaking built-ins

/// -1 when a < b, 0 when a == b, 1 otherwise (NaN compares as "not better").
int compare(double a, double b) {
  if (a < b) return -1;
  return a == b ? 0 : 1;
}

/// The index of the best candidate under `order(i, lead)` (-1: candidate i
/// beats the current lead, 0: ties it), the first one winning unless ties
/// occur. Exact ties are broken by one tie-stream draw over the tied
/// candidates in list order — the draw sequence of the historical broker,
/// made without collecting the tied indices.
template <class Order>
std::size_t pick_tied(const std::vector<CeCandidate>& candidates, Rng& tie_rng,
                      Order order) {
  std::size_t best = 0;
  std::size_t ties = 1;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const int c = order(i, best);
    if (c < 0) {
      best = i;
      ties = 1;
    } else if (c == 0) {
      ++ties;
    }
  }
  if (ties == 1) return best;
  auto k = static_cast<std::size_t>(
      tie_rng.uniform_int(0, static_cast<std::int64_t>(ties) - 1));
  for (std::size_t i = best;; ++i) {
    if (order(i, best) == 0 && k-- == 0) return i;
  }
}

/// The historical broker ranking: queue estimate plus whatever stage-in
/// estimate the caller supplied (zero when matchmaking blind), exact-tie
/// break drawn from the broker's tie stream only when more than one CE
/// shares the best rank. This must replay the pre-policy-engine decision
/// sequence bit for bit.
class QueueRankPolicy : public MatchmakingPolicy {
 public:
  explicit QueueRankPolicy(std::string name = kDefaultMatchmaking)
      : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }

  std::size_t choose(const std::vector<CeCandidate>& candidates,
                     Rng& tie_rng) override {
    const auto rank = [&](std::size_t i) {
      return candidates[i].queue_rank + candidates[i].stage_in_seconds;
    };
    return pick_tied(candidates, tie_rng, [&](std::size_t i, std::size_t lead) {
      return compare(rank(i), rank(lead));
    });
  }

 private:
  std::string name_;
};

/// Same combined ranking as queue-rank, but self-activates the stage-in
/// estimator: the data-aware matchmaking previously gated behind
/// GridConfig::data_aware_matchmaking, expressed as a selectable policy.
class DataGravityPolicy : public QueueRankPolicy {
 public:
  DataGravityPolicy() : QueueRankPolicy("data-gravity") {}
  bool wants_stage_in() const override { return true; }
};

/// Lexicographic (stage-in seconds, queue rank): data locality dominates,
/// queue pressure only separates equally-close CEs.
class LocalityFirstPolicy : public MatchmakingPolicy {
 public:
  const std::string& name() const override { return name_; }
  bool wants_stage_in() const override { return true; }

  std::size_t choose(const std::vector<CeCandidate>& candidates,
                     Rng& tie_rng) override {
    return pick_tied(candidates, tie_rng, [&](std::size_t i, std::size_t lead) {
      const int by_stage_in = compare(candidates[i].stage_in_seconds,
                                      candidates[lead].stage_in_seconds);
      if (by_stage_in != 0) return by_stage_in;
      return compare(candidates[i].queue_rank, candidates[lead].queue_rank);
    });
  }

 private:
  std::string name_ = "locality-first";
};

/// Power-of-two-choices: sample two distinct candidates from a private
/// deterministic substream and keep the better-ranked one. Never touches
/// the broker tie stream, so enabling it for one run cannot perturb the
/// draw sequence of concurrent default-policy runs.
class KChoicesPolicy : public MatchmakingPolicy {
 public:
  explicit KChoicesPolicy(const Rng& base) : rng_(base.fork("k-choices")) {}

  const std::string& name() const override { return name_; }

  std::size_t choose(const std::vector<CeCandidate>& candidates,
                     Rng& /*tie_rng*/) override {
    const std::size_t n = candidates.size();
    if (n == 1) return 0;
    const auto first = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto second = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (second >= first) ++second;
    const auto rank = [&](std::size_t i) {
      return candidates[i].queue_rank + candidates[i].stage_in_seconds;
    };
    return rank(second) < rank(first) ? second : first;
  }

 private:
  std::string name_ = "k-choices";
  Rng rng_;
};

// ---------------------------------------------------------------------------
// Placement built-ins

/// The historical behavior: every attempt re-enters ordinary matchmaking
/// with no avoidance constraint.
class RematchPolicy : public PlacementPolicy {
 public:
  const std::string& name() const override { return name_; }
  std::vector<std::string> avoid(const PlacementContext&) override { return {}; }

 private:
  std::string name_ = kDefaultPlacement;
};

/// Steer retries away from the CE the immediately previous attempt ran on.
class AvoidPreviousPolicy : public PlacementPolicy {
 public:
  const std::string& name() const override { return name_; }

  std::vector<std::string> avoid(const PlacementContext& ctx) override {
    if (ctx.tried_ces == nullptr || ctx.tried_ces->empty()) return {};
    return {ctx.tried_ces->back()};
  }

 private:
  std::string name_ = "avoid-previous";
};

/// Steer retries away from every CE earlier attempts already touched.
class SpreadPolicy : public PlacementPolicy {
 public:
  const std::string& name() const override { return name_; }

  std::vector<std::string> avoid(const PlacementContext& ctx) override {
    if (ctx.tried_ces == nullptr) return {};
    return *ctx.tried_ces;
  }

 private:
  std::string name_ = "spread";
};

// ---------------------------------------------------------------------------
// Replica built-ins

/// The historical behavior: register fresh replicas on the producer's close
/// SE only, and probe the close SE first on stage-in (rotating it to the
/// front of the registration-ordered candidate list).
class CloseSePolicy : public ReplicaPolicy {
 public:
  const std::string& name() const override { return name_; }

  std::vector<std::string> placement_targets(
      const std::string& close_se, const std::vector<std::string>&) override {
    return {close_se};
  }

  void probe_order(std::vector<std::string>& candidates,
                   const std::string& close_se) override {
    const auto close_pos = std::find(candidates.begin(), candidates.end(), close_se);
    if (close_pos != candidates.end() && close_pos != candidates.begin()) {
      std::rotate(candidates.begin(), close_pos, close_pos + 1);
    }
  }

 private:
  std::string name_ = kDefaultReplica;
};

/// Register fresh replicas on every SE (close SE included), trading
/// transfer volume at write time for locality on every later read.
class BroadcastPolicy : public ReplicaPolicy {
 public:
  const std::string& name() const override { return name_; }

  std::vector<std::string> placement_targets(
      const std::string& close_se,
      const std::vector<std::string>& all_ses) override {
    if (all_ses.empty()) return {close_se};
    return all_ses;
  }

  void probe_order(std::vector<std::string>& candidates,
                   const std::string& close_se) override {
    const auto close_pos = std::find(candidates.begin(), candidates.end(), close_se);
    if (close_pos != candidates.end() && close_pos != candidates.begin()) {
      std::rotate(candidates.begin(), close_pos, close_pos + 1);
    }
  }

 private:
  std::string name_ = "broadcast";
};

// ---------------------------------------------------------------------------
// Admission built-ins

/// The historical behavior: grant each run the WRR share it asked for.
class WeightedAdmission : public AdmissionPolicy {
 public:
  const std::string& name() const override { return name_; }
  std::size_t weight(const std::string&, std::size_t requested) override {
    return requested;
  }

 private:
  std::string name_ = kDefaultAdmission;
};

/// Ignore requested weights: every run gets one grant per gate visit.
class RoundRobinAdmission : public AdmissionPolicy {
 public:
  const std::string& name() const override { return name_; }
  std::size_t weight(const std::string&, std::size_t) override { return 1; }

 private:
  std::string name_ = "round-robin";
};

// ---------------------------------------------------------------------------
// Replication built-ins

/// The centralized baseline: no SE→SE transfers, every remote byte
/// round-trips through the orchestrator. Bit-identical to the
/// pre-decentralization data path.
class NoReplicationPolicy : public ReplicationPolicy {
 public:
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = kDefaultReplication;
};

/// Route remote reads SE→SE and push missing inputs toward the matched
/// CE's close SE as soon as the broker picks it, overlapping the transfer
/// with the job's queueing delay.
class PushToConsumerPolicy : public ReplicationPolicy {
 public:
  const std::string& name() const override { return name_; }
  bool decentralized_reads() const override { return true; }
  bool push_on_match() const override { return true; }

 private:
  std::string name_ = "push-to-consumer";
};

/// Route remote reads SE→SE and, whenever a fresh replica registers,
/// push copies to the first k other SEs in deterministic order — blind
/// pre-staging that trades transfer volume for read locality.
class FanoutKPolicy : public ReplicationPolicy {
 public:
  const std::string& name() const override { return name_; }
  bool decentralized_reads() const override { return true; }

  std::vector<std::string> fanout_targets(
      const std::string& source_se,
      const std::vector<std::string>& all_ses) override {
    std::vector<std::string> targets;
    for (const std::string& se : all_ses) {
      if (se == source_se) continue;
      targets.push_back(se);
      if (targets.size() == kFanout) break;
    }
    return targets;
  }

 private:
  static constexpr std::size_t kFanout = 2;
  std::string name_ = "fanout-k";
};

// ---------------------------------------------------------------------------
// Eviction built-ins

/// Drop least-recently-used replicas first (pinned or not) until the
/// requested head-room is freed; exact last-use ties break on LFN so the
/// victim order never depends on map iteration quirks.
class LruEviction : public EvictionPolicy {
 public:
  explicit LruEviction(std::string name = kDefaultEviction, bool honor_pins = false)
      : name_(std::move(name)), honor_pins_(honor_pins) {}

  const std::string& name() const override { return name_; }

  std::vector<std::string> victims(const std::vector<ReplicaResidency>& resident,
                                   double need_mb) override {
    std::vector<const ReplicaResidency*> order;
    order.reserve(resident.size());
    for (const ReplicaResidency& r : resident) {
      if (honor_pins_ && r.pinned) continue;
      order.push_back(&r);
    }
    std::sort(order.begin(), order.end(),
              [](const ReplicaResidency* a, const ReplicaResidency* b) {
                if (a->last_use != b->last_use) return a->last_use < b->last_use;
                return a->lfn < b->lfn;
              });
    std::vector<std::string> victims;
    double freed = 0.0;
    for (const ReplicaResidency* r : order) {
      if (freed >= need_mb) break;
      victims.push_back(r->lfn);
      freed += r->size_mb;
    }
    return victims;
  }

 private:
  std::string name_;
  bool honor_pins_;
};

/// Factory of a built-in policy that takes no constructor arguments.
template <class Policy, class... Args>
std::unique_ptr<Policy> build(Args...) {
  return std::make_unique<Policy>();
}

}  // namespace

PolicyRegistry::PolicyRegistry()
    : matchmaking("matchmaking",
                  {{kDefaultMatchmaking, build<QueueRankPolicy, const Rng&>},
                   {"data-gravity", build<DataGravityPolicy, const Rng&>},
                   {"locality-first", build<LocalityFirstPolicy, const Rng&>},
                   {"k-choices",
                    [](const Rng& base) { return std::make_unique<KChoicesPolicy>(base); }}}),
      placement("placement", {{kDefaultPlacement, build<RematchPolicy>},
                              {"avoid-previous", build<AvoidPreviousPolicy>},
                              {"spread", build<SpreadPolicy>}}),
      replica("replica",
              {{kDefaultReplica, build<CloseSePolicy>}, {"broadcast", build<BroadcastPolicy>}}),
      admission("admission", {{kDefaultAdmission, build<WeightedAdmission>},
                              {"round-robin", build<RoundRobinAdmission>}}),
      replication("replication", {{kDefaultReplication, build<NoReplicationPolicy>},
                                  {"push-to-consumer", build<PushToConsumerPolicy>},
                                  {"fanout-k", build<FanoutKPolicy>}}),
      eviction("eviction", {{kDefaultEviction, build<LruEviction>},
                            {"pin-sources", [] {
                               return std::make_unique<LruEviction>("pin-sources",
                                                                    /*honor_pins=*/true);
                             }}}) {}

const PolicyRegistry& PolicyRegistry::instance() {
  static const PolicyRegistry registry;
  return registry;
}

bool PolicyRegistry::matchmaking_wants_stage_in(const std::string& name) const {
  return matchmaking.make(name, Rng(0))->wants_stage_in();
}

bool PolicyRegistry::replication_is_decentralized(const std::string& name) const {
  return replication.make(name)->decentralized_reads();
}

}  // namespace moteur::policy
