#include "enactor/manifest.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "policy/registry.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "workflow/scufl.hpp"
#include "xml/xml.hpp"

namespace moteur::enactor {

grid::GridConfig RunManifest::make_grid_config() const {
  grid::GridConfig config;
  if (grid_preset == "egee2006") {
    config = grid::GridConfig::egee2006(seed);
  } else if (grid_preset == "cluster") {
    config = grid::GridConfig::dedicated_cluster(cluster_nodes, seed);
  } else if (grid_preset == "constant") {
    config = grid::GridConfig::constant(constant_overhead_seconds, 4096, seed);
  } else {
    throw ParseError("unknown grid preset '" + grid_preset +
                     "' (expected egee2006 | cluster | constant)");
  }
  config.orchestrator_bandwidth_mbps = orchestrator_bandwidth_mbps;
  if (!policy.replication.empty()) config.replication_policy = policy.replication;
  return config;
}

namespace {

using Text = std::optional<std::string>;
using Policy = EnactmentPolicy;
using grid::BreakerPolicy;
using policy::PolicyRegistry;

std::string to_text(std::size_t value) { return std::to_string(value); }
std::string to_text(double value) { return format_shortest(value); }
std::string to_text(bool value) { return value ? "true" : "false"; }
std::string to_text(const std::string& value) { return value; }
std::string to_text(FailurePolicy value) { return to_string(value); }

/// One attribute of a manifest element: its name, its text in a written
/// manifest (none where the element leaves it out) and a checked setter.
template <class T>
struct Attr {
  const char* name;
  std::function<Text(const T&)> write;
  std::function<void(T&, const FlagValue&)> read;
};

/// A child element of <run> and its attributes, in the order they are read
/// and written.
template <class T>
struct Element {
  const char* name;
  std::vector<Attr<T>> attrs;
};

/// The attribute holding the field at `first.*rest...` of T: left out while
/// the field holds its default value, read with the checked parser `parse`
/// (a FlagValue member or a callable taking a FlagValue).
template <class Parse, class T, class M, class... Path>
Attr<T> field(const char* name, Parse parse, M T::*first, Path... rest) {
  const auto at = [=](auto& t) -> auto& { return ((t.*first) .* ... .* rest); };
  return {name,
          [at](const T& t) {
            static const T defaults{};
            return at(t) == at(defaults) ? Text{} : Text{to_text(at(t))};
          },
          [at, parse](T& t, const FlagValue& v) { at(t) = std::invoke(parse, v); }};
}

/// A circuit-breaker attribute: written while the breaker is on, and reading
/// any one of them switches it on.
template <class Parse, class M>
Attr<Policy> breaker(const char* name, Parse parse, M BreakerPolicy::*member) {
  return {name,
          [member](const Policy& p) {
            return p.breaker.enabled ? Text{to_text(p.breaker.*member)} : Text{};
          },
          [member, parse](Policy& p, const FlagValue& v) {
            p.breaker.enabled = true;
            p.breaker.*member = std::invoke(parse, v);
          }};
}

/// The checked parser of a name from the registry's `family`.
template <class Family>
auto known_in(const Family PolicyRegistry::*family) {
  return [family](const FlagValue& v) {
    return (PolicyRegistry::instance().*family).check(v.text, v.flag);
  };
}

const Element<Policy> kPolicy{
    "policy",
    {// First: it resets the policy to the named Table 1 configuration.
     {"config", [](const Policy& p) -> Text { return p.name(); },
      [](Policy& p, const FlagValue& v) { p = Policy::parse(v.text, v.flag); }},
     field("cap", &FlagValue::count, &Policy::data_parallelism_cap),
     field("batch", &FlagValue::positive_count, &Policy::batch_size),
     field("adaptiveBatching", &FlagValue::boolean, &Policy::adaptive_batching),
     field("overheadFractionTarget", &FlagValue::fraction,
           &Policy::overhead_fraction_target),
     field("maxBatch", &FlagValue::positive_count, &Policy::max_batch),
     field("retryAttempts", &FlagValue::positive_count, &Policy::retry,
           &RetryPolicy::max_attempts),
     field("retryTimeoutMultiplier", &FlagValue::nonnegative_real, &Policy::retry,
           &RetryPolicy::timeout_multiplier),
     field("retryTimeoutMinSamples", &FlagValue::positive_count, &Policy::retry,
           &RetryPolicy::timeout_min_samples),
     field("retryBackoffInitial", &FlagValue::nonnegative_seconds, &Policy::retry,
           &RetryPolicy::backoff_initial_seconds),
     field("retryBackoffFactor", &FlagValue::nonnegative_real, &Policy::retry,
           &RetryPolicy::backoff_factor),
     field("failurePolicy",
           [](const FlagValue& v) { return parse_failure_policy(v.text, v.flag); },
           &Policy::failure_policy),
     breaker("breakerWindow", &FlagValue::positive_count, &BreakerPolicy::window),
     breaker("breakerThreshold", &FlagValue::positive_count, &BreakerPolicy::threshold),
     breaker("breakerCooldown", &FlagValue::positive_seconds,
             &BreakerPolicy::cooldown_seconds),
     field("cache", &FlagValue::boolean, &Policy::cache),
     field("dataAware", &FlagValue::boolean, &Policy::data_aware),
     field("matchmaking", known_in(&PolicyRegistry::matchmaking), &Policy::matchmaking),
     field("placement", known_in(&PolicyRegistry::placement), &Policy::placement),
     field("replicaPolicy", known_in(&PolicyRegistry::replica),
           &Policy::replica_policy),
     field("admission", known_in(&PolicyRegistry::admission), &Policy::admission),
     field("replication", known_in(&PolicyRegistry::replication), &Policy::replication),
     field("lineageRecovery", &FlagValue::boolean, &Policy::lineage_recovery),
     field("recoveryDepth", &FlagValue::positive_count, &Policy::max_recovery_depth)}};

const Element<RunManifest> kGrid{
    "grid",
    {// Every manifest names its grid and seed; make_grid_config checks the preset.
     {"preset", [](const RunManifest& m) -> Text { return m.grid_preset; },
      [](RunManifest& m, const FlagValue& v) { m.grid_preset = v.text; }},
     {"seed", [](const RunManifest& m) -> Text { return to_text(m.seed); },
      [](RunManifest& m, const FlagValue& v) { m.seed = v.count(); }},
     field("overhead", &FlagValue::nonnegative_seconds,
           &RunManifest::constant_overhead_seconds),
     field("nodes", &FlagValue::positive_count, &RunManifest::cluster_nodes),
     field("orchestratorBw", &FlagValue::nonnegative_real,
           &RunManifest::orchestrator_bandwidth_mbps)}};

const Element<RunManifest> kService{
    "service",
    {field("shards", &FlagValue::positive_count, &RunManifest::shards),
     field("pinPolicy",
           [](const FlagValue& v) {
             MOTEUR_REQUIRE(
                 v.text == "hash" || v.text == "least-loaded", ParseError,
                 v.flag + " must be hash | least-loaded (got '" + v.text + "')");
             return v.text;
           },
           &RunManifest::pin_policy)}};

template <class T>
void write(xml::Node& run, const Element<T>& element, const T& source) {
  auto node = std::make_unique<xml::Node>(element.name);
  for (const Attr<T>& attr : element.attrs) {
    if (const Text text = attr.write(source)) node->set_attribute(attr.name, *text);
  }
  if (!node->attributes().empty()) run.adopt(std::move(node));
}

/// Apply the attributes of `run`'s `element` child, if any, in table order.
template <class T>
void read(const xml::Node& run, const Element<T>& element, T& target) {
  const xml::Node* node = run.child(element.name);
  if (node == nullptr) return;
  std::vector<std::string> known;
  for (const Attr<T>& attr : element.attrs) known.emplace_back(attr.name);
  for (const auto& [key, value] : node->attributes()) {
    MOTEUR_REQUIRE(std::find(known.begin(), known.end(), key) != known.end(), ParseError,
                   "<" + node->name() + "> has unknown attribute '" + key +
                       "' (known: " + join(known, ", ") + ")");
  }
  for (const Attr<T>& attr : element.attrs) {
    if (const auto text = node->attribute(attr.name)) {
      attr.read(target, {*text, node->name() + " " + attr.name + " attribute"});
    }
  }
}

}  // namespace

std::string RunManifest::to_xml() const {
  auto run = std::make_unique<xml::Node>("run");
  write(*run, kPolicy, policy);
  write(*run, kGrid, *this);
  write(*run, kService, *this);
  // Embed the workflow and data-set documents (their roots become children).
  run->adopt(xml::parse(workflow::to_scufl(workflow)).take_root());
  run->adopt(xml::parse(inputs.to_xml()).take_root());
  return xml::Document(std::move(run)).to_string();
}

RunManifest RunManifest::from_xml(const std::string& text) {
  const xml::Document doc = xml::parse(text);
  const xml::Node& run = doc.root();
  MOTEUR_REQUIRE(run.name() == "run", ParseError,
                 "expected <run> root, got <" + run.name() + ">");
  const std::vector<std::string> known = {kPolicy.name, kGrid.name, kService.name,
                                          "workflow", "dataset"};
  for (const auto& child : run.children()) {
    MOTEUR_REQUIRE(std::find(known.begin(), known.end(), child->name()) != known.end(),
                   ParseError,
                   "<run> has unknown child <" + child->name() + "> (known: " +
                       join(known, ", ") + ")");
  }
  RunManifest manifest;
  // A <policy> element without a config attribute means NOP.
  if (run.child(kPolicy.name) != nullptr) manifest.policy = EnactmentPolicy::nop();
  read(run, kPolicy, manifest.policy);
  read(run, kGrid, manifest);
  read(run, kService, manifest);
  manifest.workflow = workflow::from_scufl(run.required_child("workflow").to_string());
  manifest.inputs =
      data::InputDataSet::from_xml(run.required_child("dataset").to_string());
  // Validate the preset eagerly so malformed manifests fail at load time.
  manifest.make_grid_config();
  return manifest;
}

}  // namespace moteur::enactor
