#include "data/provenance.hpp"

#include <algorithm>
#include <functional>
#include <mutex>
#include <unordered_set>

#include "util/error.hpp"

namespace moteur::data {

namespace {

/// The one shared copy of `name`. Source names are few (a workflow's
/// sources), so the table stays small; it is never freed, so summaries may
/// point into it for as long as the process runs.
const std::string* intern(const std::string& name) {
  static std::mutex mutex;
  static auto* names = new std::unordered_set<std::string>();
  const std::lock_guard<std::mutex> lock(mutex);
  return &*names->insert(name).first;
}

}  // namespace

Provenance::Ptr Provenance::source(const std::string& source_name, std::size_t index) {
  auto node = std::make_shared<Provenance>(Passkey{});
  node->producer_ = source_name;
  node->source_index_ = index;
  node->key_ = source_name + "[" + std::to_string(index) + "]";
  node->own_sources_.push_back(SourceItem{intern(source_name), index});
  return node;
}

Provenance::Ptr Provenance::derived(const std::string& processor,
                                    const std::string& port,
                                    std::vector<Ptr> inputs) {
  MOTEUR_REQUIRE(!inputs.empty(), InternalError,
                 "derived provenance requires at least one input");
  std::size_t key_size = processor.size() + port.size() + 3 + inputs.size();
  std::size_t source_count = 0;
  for (const auto& input : inputs) {
    MOTEUR_REQUIRE(input != nullptr, InternalError, "null provenance input");
    key_size += input->key().size();
    source_count += input->sources().size();
  }
  auto node = std::make_shared<Provenance>(Passkey{});
  node->producer_ = processor;
  node->port_ = port;
  node->inputs_ = std::move(inputs);
  std::string& key = node->key_;
  key.reserve(key_size);
  key += processor;
  if (!port.empty()) {
    key += '.';
    key += port;
  }
  key += '(';
  for (std::size_t i = 0; i < node->inputs_.size(); ++i) {
    if (i != 0) key += ',';
    key += node->inputs_[i]->key();
  }
  key += ')';

  // The widest input's list is shared when it holds every other input's
  // items (a chain of processings over the same items). Otherwise the lists
  // it does not cover are appended to a copy of it, then sorted and
  // de-duplicated.
  const Sources* widest = &node->inputs_.front()->sources();
  for (const auto& input : node->inputs_) {
    if (input->sources().size() > widest->size()) widest = &input->sources();
  }
  Sources& sources = node->own_sources_;
  for (const auto& input : node->inputs_) {
    const Sources& list = input->sources();
    if (&list == widest || std::includes(widest->begin(), widest->end(), list.begin(),
                                         list.end(), source_less)) {
      continue;
    }
    if (sources.empty()) {
      sources.reserve(source_count);
      sources.assign(widest->begin(), widest->end());
    }
    sources.insert(sources.end(), list.begin(), list.end());
  }
  if (sources.empty()) {
    node->sources_ = widest;
    return node;
  }
  std::sort(sources.begin(), sources.end(), source_less);
  const auto same = [](const SourceItem& a, const SourceItem& b) {
    return a.source == b.source && a.index == b.index;
  };
  sources.erase(std::unique(sources.begin(), sources.end(), same), sources.end());
  return node;
}

std::map<std::string, std::set<std::size_t>> Provenance::source_indices() const {
  std::map<std::string, std::set<std::size_t>> out;
  for (const SourceItem& item : *sources_) out[*item.source].insert(item.index);
  return out;
}

std::size_t Provenance::node_count() const {
  std::unordered_set<const Provenance*> seen;
  std::function<void(const Provenance&)> walk = [&](const Provenance& node) {
    if (!seen.insert(&node).second) return;
    for (const auto& input : node.inputs()) walk(*input);
  };
  walk(*this);
  return seen.size();
}

std::size_t Provenance::depth() const {
  std::size_t best = 0;
  for (const auto& input : inputs_) best = std::max(best, input->depth() + 1);
  return best;
}

bool operator==(const Provenance& a, const Provenance& b) { return a.key() == b.key(); }

}  // namespace moteur::data
