// Policy engine: registry validation, built-in decision behavior, manifest
// round-trip, and the two system-level guarantees — default-policy runs are
// bit-identical to the pre-policy-engine goldens, and every policy is
// deterministic under a fixed seed.
#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "policy/registry.hpp"
#include "services/catalog.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace moteur {
namespace {

using policy::PolicyRegistry;

// ---------------------------------------------------------------------------
// Registry: names, validation, construction
// ---------------------------------------------------------------------------

TEST(PolicyRegistry, KnowsTheBuiltins) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  const auto has = [](const std::vector<std::string>& names, const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has(reg.matchmaking.names(), "queue-rank"));
  EXPECT_TRUE(has(reg.matchmaking.names(), "data-gravity"));
  EXPECT_TRUE(has(reg.matchmaking.names(), "locality-first"));
  EXPECT_TRUE(has(reg.matchmaking.names(), "k-choices"));
  EXPECT_TRUE(has(reg.placement.names(), "rematch"));
  EXPECT_TRUE(has(reg.placement.names(), "avoid-previous"));
  EXPECT_TRUE(has(reg.placement.names(), "spread"));
  EXPECT_TRUE(has(reg.replica.names(), "close-se"));
  EXPECT_TRUE(has(reg.replica.names(), "broadcast"));
  EXPECT_TRUE(has(reg.admission.names(), "weighted"));
  EXPECT_TRUE(has(reg.admission.names(), "round-robin"));
}

TEST(PolicyRegistry, CheckRejectsUnknownNamesWithTheFlagLabel) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  EXPECT_EQ(reg.matchmaking.check("queue-rank", "--matchmaking"), "queue-rank");
  try {
    reg.matchmaking.check("bogus", "--matchmaking");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--matchmaking"), std::string::npos) << what;
    EXPECT_NE(what.find("queue-rank"), std::string::npos) << what;
  }
  EXPECT_THROW(reg.placement.check("bogus", "--placement"), ParseError);
  EXPECT_THROW(reg.replica.check("bogus", "--replica-policy"), ParseError);
  EXPECT_THROW(reg.admission.check("bogus", "--admission-policy"), ParseError);
  EXPECT_THROW(reg.matchmaking.make("bogus", Rng(1)), ParseError);
}

TEST(PolicyRegistry, StageInAwarenessPerPolicy) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  EXPECT_FALSE(reg.matchmaking_wants_stage_in("queue-rank"));
  EXPECT_TRUE(reg.matchmaking_wants_stage_in("data-gravity"));
  EXPECT_TRUE(reg.matchmaking_wants_stage_in("locality-first"));
  // k-choices compares whatever ranks it is handed; it does not demand the
  // data plane on its own.
  EXPECT_FALSE(reg.matchmaking_wants_stage_in("k-choices"));
}

// ---------------------------------------------------------------------------
// Decision behavior of the built-ins, on plain candidate lists
// ---------------------------------------------------------------------------

std::vector<policy::CeCandidate> candidates() {
  return {{"ce-a", 30.0, 5.0}, {"ce-b", 10.0, 50.0}, {"ce-c", 20.0, 1.0}};
}

TEST(MatchmakingPolicies, QueueRankPicksTheLowestRank) {
  const Rng base(7);
  const auto policy = PolicyRegistry::instance().matchmaking.make("queue-rank", base);
  Rng tie = base.fork("ties");
  // Without a stage-in estimator (stage_in_seconds == 0, the default-run
  // case) queue-rank ranks purely on queue depth.
  const std::vector<policy::CeCandidate> pool = {
      {"ce-a", 30.0, 0.0}, {"ce-b", 10.0, 0.0}, {"ce-c", 20.0, 0.0}};
  EXPECT_EQ(policy->choose(pool, tie), 1u);
  // With estimates present it sums them — the historical --data-aware path
  // goes through the very same policy.
  Rng tie2 = base.fork("ties");
  EXPECT_EQ(policy->choose(candidates(), tie2), 2u);  // ce-c: 20 + 1
}

TEST(MatchmakingPolicies, QueueRankBreaksTiesThroughTheSharedStream) {
  const Rng base(7);
  const auto policy = PolicyRegistry::instance().matchmaking.make("queue-rank", base);
  const std::vector<policy::CeCandidate> tied = {
      {"ce-a", 10.0, 0.0}, {"ce-b", 10.0, 0.0}, {"ce-c", 10.0, 0.0}};
  // Tie draws must follow the same substream a direct uniform_int would.
  Rng tie_a = base.fork("ties");
  Rng tie_b = base.fork("ties");
  const std::size_t picked = policy->choose(tied, tie_a);
  EXPECT_EQ(picked, static_cast<std::size_t>(tie_b.uniform_int(0, 2)));
}

TEST(MatchmakingPolicies, DataGravityRanksOnQueuePlusStageIn) {
  const Rng base(7);
  const auto policy = PolicyRegistry::instance().matchmaking.make("data-gravity", base);
  EXPECT_TRUE(policy->wants_stage_in());
  Rng tie = base.fork("ties");
  // Combined cost: a=35, b=60, c=21 -> ce-c.
  EXPECT_EQ(policy->choose(candidates(), tie), 2u);
}

TEST(MatchmakingPolicies, LocalityFirstPrefersCheapStageIn) {
  const Rng base(7);
  const auto policy =
      PolicyRegistry::instance().matchmaking.make("locality-first", base);
  Rng tie = base.fork("ties");
  // Lexicographic (stage-in, queue rank): ce-c has the cheapest stage-in.
  EXPECT_EQ(policy->choose(candidates(), tie), 2u);
}

// The vector-collecting tie-breaks the single-pass policies replaced, kept as
// reference models: queue-rank (also data-gravity's ranking) and
// locality-first must pick the same index and draw the same tie stream.
std::size_t reference_queue_rank(const std::vector<policy::CeCandidate>& candidates,
                                 Rng& tie_rng) {
  double best_rank = 0.0;
  std::vector<std::size_t> best;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double rank = candidates[i].queue_rank + candidates[i].stage_in_seconds;
    if (best.empty() || rank < best_rank) {
      best_rank = rank;
      best = {i};
    } else if (rank == best_rank) {
      best.push_back(i);
    }
  }
  if (best.size() > 1) {
    const auto pick = static_cast<std::size_t>(
        tie_rng.uniform_int(0, static_cast<std::int64_t>(best.size()) - 1));
    return best[pick];
  }
  return best.front();
}

std::size_t reference_locality_first(const std::vector<policy::CeCandidate>& candidates,
                                     Rng& tie_rng) {
  std::vector<std::size_t> best;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (best.empty()) {
      best = {i};
      continue;
    }
    const policy::CeCandidate& lead = candidates[best.front()];
    const policy::CeCandidate& c = candidates[i];
    if (c.stage_in_seconds < lead.stage_in_seconds ||
        (c.stage_in_seconds == lead.stage_in_seconds && c.queue_rank < lead.queue_rank)) {
      best = {i};
    } else if (c.stage_in_seconds == lead.stage_in_seconds &&
               c.queue_rank == lead.queue_rank) {
      best.push_back(i);
    }
  }
  if (best.size() > 1) {
    const auto pick = static_cast<std::size_t>(
        tie_rng.uniform_int(0, static_cast<std::int64_t>(best.size()) - 1));
    return best[pick];
  }
  return best.front();
}

TEST(MatchmakingPolicies, TieBreaksReplayTheVectorBasedReference) {
  using Reference = std::size_t (*)(const std::vector<policy::CeCandidate>&, Rng&);
  const std::pair<const char*, Reference> cases[] = {
      {"queue-rank", reference_queue_rank},
      {"data-gravity", reference_queue_rank},
      {"locality-first", reference_locality_first}};
  std::vector<std::string> names;
  for (int i = 0; i < 20; ++i) names.push_back("ce-" + std::to_string(i));
  Rng lists(2024);
  for (const auto& [name, reference] : cases) {
    const auto policy = PolicyRegistry::instance().matchmaking.make(name, Rng(5));
    for (std::uint64_t trial = 0; trial < 500; ++trial) {
      // 2-20 CEs whose ranks come from a handful of values (negative ones
      // too, as for sites with free slots), so exact ties are the norm; every
      // fifth list is one value throughout, so all of its CEs tie.
      const auto n = static_cast<std::size_t>(lists.uniform_int(2, 20));
      const bool all_tied = trial % 5 == 0;
      std::vector<policy::CeCandidate> candidates;
      for (std::size_t i = 0; i < n; ++i) {
        const double queue =
            all_tied ? -0.5 : 0.5 * static_cast<double>(lists.uniform_int(-2, 3));
        const double stage_in =
            all_tied ? 1.0 : static_cast<double>(lists.uniform_int(0, 2));
        candidates.push_back({names[i], queue, stage_in});
      }
      Rng tie_policy(trial);
      Rng tie_reference(trial);
      EXPECT_EQ(policy->choose(candidates, tie_policy),
                reference(candidates, tie_reference))
          << name << ", trial " << trial;
      EXPECT_EQ(tie_policy.uniform_int(0, 1 << 30), tie_reference.uniform_int(0, 1 << 30))
          << name << ", trial " << trial << ": tie stream diverged";
    }
  }
}

TEST(MatchmakingPolicies, KChoicesIsDeterministicPerSeedAndIgnoresTieStream) {
  const Rng base(42);
  const auto reg = &PolicyRegistry::instance();
  const auto a = reg->matchmaking.make("k-choices", base);
  const auto b = reg->matchmaking.make("k-choices", base);
  Rng tie_a = base.fork("ties");
  Rng tie_b = base.fork("ties");
  for (int i = 0; i < 32; ++i) {
    const std::size_t pick = a->choose(candidates(), tie_a);
    EXPECT_EQ(pick, b->choose(candidates(), tie_b));
    EXPECT_LT(pick, 3u);
  }
  // The private substream never touched the shared tie stream.
  Rng fresh = base.fork("ties");
  EXPECT_EQ(tie_a.uniform_int(0, 1000), fresh.uniform_int(0, 1000));
}

TEST(PlacementPolicies, AvoidSetsPerPolicy) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  const std::vector<std::string> tried = {"ce-a", "ce-b"};
  policy::PlacementContext ctx;
  ctx.attempt = 3;
  ctx.tried_ces = &tried;
  EXPECT_TRUE(reg.placement.make("rematch")->avoid(ctx).empty());
  EXPECT_EQ(reg.placement.make("avoid-previous")->avoid(ctx),
            std::vector<std::string>{"ce-b"});
  EXPECT_EQ(reg.placement.make("spread")->avoid(ctx), tried);
}

TEST(ReplicaPolicies, TargetsAndProbeOrder) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  const std::vector<std::string> all = {"se-1", "se-2", "se-3"};
  const auto close = reg.replica.make("close-se");
  EXPECT_EQ(close->placement_targets("se-2", all), std::vector<std::string>{"se-2"});
  std::vector<std::string> probe = all;
  close->probe_order(probe, "se-2");
  // The rotation shifts the prefix right: close SE first, others preserved
  // behind it in their original relative positions after the cycle.
  EXPECT_EQ(probe, (std::vector<std::string>{"se-2", "se-1", "se-3"}));

  const auto broadcast = reg.replica.make("broadcast");
  EXPECT_EQ(broadcast->placement_targets("se-2", all), all);
  EXPECT_EQ(broadcast->placement_targets("se-2", {}),
            std::vector<std::string>{"se-2"});
}

TEST(AdmissionPolicies, WeightMapping) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  EXPECT_EQ(reg.admission.make("weighted")->weight("run-1", 3), 3u);
  EXPECT_EQ(reg.admission.make("round-robin")->weight("run-1", 3), 1u);
}

// ---------------------------------------------------------------------------
// Manifest round-trip
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const char* kDataDir = MOTEUR_EXAMPLES_DATA_DIR;
const char* kGoldenDir = MOTEUR_GOLDEN_DIR;

enactor::RunManifest bronze_manifest() {
  return enactor::RunManifest::from_xml(
      read_file(std::string(kDataDir) + "/bronze_run.xml"));
}

TEST(PolicyManifest, RoundTripsTheFourPolicyNames) {
  enactor::RunManifest manifest = bronze_manifest();
  manifest.policy.matchmaking = "data-gravity";
  manifest.policy.placement = "spread";
  manifest.policy.replica_policy = "broadcast";
  manifest.policy.admission = "round-robin";
  const auto parsed = enactor::RunManifest::from_xml(manifest.to_xml());
  EXPECT_EQ(parsed.policy.matchmaking, "data-gravity");
  EXPECT_EQ(parsed.policy.placement, "spread");
  EXPECT_EQ(parsed.policy.replica_policy, "broadcast");
  EXPECT_EQ(parsed.policy.admission, "round-robin");
}

TEST(PolicyManifest, OmitsAttributesWhenUnsetAndRejectsUnknownNames) {
  const enactor::RunManifest manifest = bronze_manifest();
  const std::string xml = manifest.to_xml();
  EXPECT_EQ(xml.find("matchmaking="), std::string::npos);
  EXPECT_EQ(xml.find("replicaPolicy="), std::string::npos);
  enactor::RunManifest tagged = manifest;
  tagged.policy.matchmaking = "queue-rank";
  std::string bad = tagged.to_xml();
  const auto pos = bad.find("queue-rank");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, std::string("queue-rank").size(), "bogus-rank");
  EXPECT_THROW(enactor::RunManifest::from_xml(bad), ParseError);
}

// ---------------------------------------------------------------------------
// System-level: golden bit-identity and per-policy determinism
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::string csv;
  std::string provenance;
};

/// Enact the bronze manifest in-process, mirroring the CLI's run path.
RunArtifacts enact(const enactor::RunManifest& manifest) {
  services::ServiceRegistry registry;
  services::load_catalog(read_file(std::string(kDataDir) + "/bronze_services.xml"),
                         registry);
  sim::Simulator simulator;
  grid::GridConfig grid_config = manifest.make_grid_config();
  if (!manifest.policy.matchmaking.empty()) {
    grid_config.matchmaking_policy = manifest.policy.matchmaking;
  }
  if (!manifest.policy.replica_policy.empty()) {
    grid_config.replica_policy = manifest.policy.replica_policy;
  }
  const bool stage_in =
      !manifest.policy.matchmaking.empty() &&
      PolicyRegistry::instance().matchmaking_wants_stage_in(manifest.policy.matchmaking);
  grid::Grid grid(simulator, grid_config);
  enactor::SimGridBackend backend(grid);
  data::ReplicaCatalog catalog;
  if (stage_in) backend.set_catalog(&catalog);
  enactor::Enactor moteur(backend, registry, manifest.policy);
  enactor::RunRequest request;
  request.workflow = manifest.workflow;
  request.inputs = manifest.inputs;
  const enactor::EnactmentResult result = moteur.run(std::move(request));
  EXPECT_EQ(result.failures(), 0u);
  // The golden CSV was captured without the data-plane columns; keep the
  // column set fixed so per-policy artifacts stay comparable.
  return {enactor::timeline_to_csv(result.timeline, /*data_plane=*/false),
          data::export_provenance(result.sink_outputs)};
}

TEST(PolicyGolden, DefaultRunIsBitIdenticalToThePrePolicyEngineGolden) {
  const RunArtifacts artifacts = enact(bronze_manifest());
  EXPECT_EQ(artifacts.csv, read_file(std::string(kGoldenDir) + "/bronze_timeline.csv"));
  EXPECT_EQ(artifacts.provenance,
            read_file(std::string(kGoldenDir) + "/bronze_provenance.xml"));
}

TEST(PolicyGolden, ExplicitQueueRankMatchesTheDefault) {
  enactor::RunManifest manifest = bronze_manifest();
  manifest.policy.matchmaking = "queue-rank";
  const RunArtifacts artifacts = enact(manifest);
  EXPECT_EQ(artifacts.csv, read_file(std::string(kGoldenDir) + "/bronze_timeline.csv"));
}

TEST(PolicyDeterminism, SameSeedAndPolicyGiveIdenticalTimelines) {
  for (const char* name : {"queue-rank", "data-gravity", "locality-first",
                           "k-choices"}) {
    enactor::RunManifest manifest = bronze_manifest();
    manifest.policy.matchmaking = name;
    const RunArtifacts first = enact(manifest);
    const RunArtifacts second = enact(manifest);
    EXPECT_EQ(first.csv, second.csv) << name;
    EXPECT_EQ(first.provenance, second.provenance) << name;
  }
}

}  // namespace
}  // namespace moteur
