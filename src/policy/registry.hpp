#pragma once

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "policy/policy.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace moteur::policy {

/// The built-in policies of one decision kind, by name. `make` constructs
/// one (decision sites cache instances per name), `check` validates a name
/// coming from a flag or manifest attribute; both throw ParseError listing
/// the known names, which `names` returns in name order.
template <class Policy, class... Args>
class Family {
 public:
  using Factory = std::function<std::unique_ptr<Policy>(Args...)>;

  Family(std::string kind,
         std::initializer_list<std::pair<const std::string, Factory>> table)
      : kind_(std::move(kind)), table_(table) {}

  std::unique_ptr<Policy> make(const std::string& name, Args... args) const {
    const auto it = table_.find(name);
    MOTEUR_REQUIRE(it != table_.end(), ParseError,
                   "unknown " + kind_ + " policy '" + name + "' (known: " + known() +
                       ")");
    return it->second(args...);
  }

  /// Returns `name` unchanged; `flag` labels the error ("--matchmaking",
  /// "policy matchmaking attribute", ...).
  const std::string& check(const std::string& name, const std::string& flag) const {
    MOTEUR_REQUIRE(table_.count(name) != 0, ParseError,
                   flag + " names unknown " + kind_ + " policy '" + name +
                       "' (known: " + known() + ")");
    return name;
  }

  std::vector<std::string> names() const {
    std::vector<std::string> names;
    for (const auto& [name, factory] : table_) names.push_back(name);
    return names;
  }

 private:
  std::string known() const { return join(names(), ", "); }

  std::string kind_;
  std::map<std::string, Factory> table_;
};

/// Process-wide catalogue of the built-in policies, one Family per decision
/// kind. The tables are fixed when the registry is built; callers resolve
/// names coming from flags, manifests or configs through them.
class PolicyRegistry {
 public:
  static const PolicyRegistry& instance();

  /// Matchmaking factories receive an RNG base so randomized policies
  /// (e.g. k-choices) can fork a private deterministic substream.
  const Family<MatchmakingPolicy, const Rng&> matchmaking;
  const Family<PlacementPolicy> placement;
  const Family<ReplicaPolicy> replica;
  const Family<AdmissionPolicy> admission;
  const Family<ReplicationPolicy> replication;
  const Family<EvictionPolicy> eviction;

  /// Whether the named replication policy routes remote reads SE→SE (so
  /// callers know to bring up the data plane before enactment).
  bool replication_is_decentralized(const std::string& name) const;

  /// Whether the named matchmaking policy ranks on stage-in estimates (so
  /// callers know to bring up the data plane before enactment).
  bool matchmaking_wants_stage_in(const std::string& name) const;

 private:
  PolicyRegistry();
};

/// Built-in policy names (defaults preserve pre-policy-engine behavior).
inline constexpr const char* kDefaultMatchmaking = "queue-rank";
inline constexpr const char* kDefaultPlacement = "rematch";
inline constexpr const char* kDefaultReplica = "close-se";
inline constexpr const char* kDefaultAdmission = "weighted";
inline constexpr const char* kDefaultReplication = "none";
inline constexpr const char* kDefaultEviction = "lru";

}  // namespace moteur::policy
