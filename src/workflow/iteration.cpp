#include "workflow/iteration.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/error.hpp"

namespace moteur::workflow {

IterationBuffer::IterationBuffer(IterationStrategy strategy, std::vector<std::string> ports)
    : strategy_(strategy),
      ports_(std::move(ports)),
      closed_(ports_.size(), false),
      retained_(ports_.size()) {
  MOTEUR_REQUIRE(!ports_.empty(), InternalError, "IterationBuffer: no ports");
}

std::size_t IterationBuffer::port_index(const std::string& port) const {
  const auto it = std::find(ports_.begin(), ports_.end(), port);
  MOTEUR_REQUIRE(it != ports_.end(), EnactmentError,
                 "IterationBuffer: unknown port '" + port + "'");
  return static_cast<std::size_t>(it - ports_.begin());
}

namespace {

using Sources = data::Provenance::Sources;

/// Whether two source summaries hold the same items for every source they
/// share: one merge walk over the two sorted lists. Interned names make
/// "same source" a pointer comparison.
bool compatible(const Sources& a, const Sources& b) {
  if (&a == &b) return true;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    const std::string* name_a = i->source;
    const std::string* name_b = j->source;
    if (name_a != name_b) {
      if (*name_a < *name_b) {
        while (i != a.end() && i->source == name_a) ++i;
      } else {
        while (j != b.end() && j->source == name_b) ++j;
      }
      continue;
    }
    for (; i != a.end() && i->source == name_a; ++i, ++j) {
      if (j == b.end() || j->source != name_a || j->index != i->index) return false;
    }
    if (j != b.end() && j->source == name_a) return false;
  }
  return true;
}

/// The causality check's reference form: fold every token's lineage into
/// one map and throw at the first source two tokens disagree on. Only runs
/// once the pairwise walk has found a disagreement, to word the error.
void report_causality_violation(const std::vector<data::Token>& tokens) {
  std::map<std::string, std::set<std::size_t>> combined;
  for (const auto& token : tokens) {
    for (const auto& [source, indices] : token.provenance()->source_indices()) {
      const auto it = combined.find(source);
      if (it == combined.end()) {
        combined.emplace(source, indices);
      } else {
        MOTEUR_REQUIRE(it->second == indices, EnactmentError,
                       "causality violation: tuple mixes items " +
                           data::to_string(data::IndexVector(indices.begin(), indices.end())) +
                           " and " +
                           data::to_string(data::IndexVector(it->second.begin(),
                                                             it->second.end())) +
                           " of source '" + source + "'");
      }
    }
  }
}

}  // namespace

void IterationBuffer::check_causality(const std::vector<data::Token>& tokens) {
  // Two tokens matched into one tuple must agree on the lineage of every
  // workflow source they share: matching result-of(D0) with result-of(D1)
  // is exactly the wrong-dot-product failure of §4.1.
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const Sources& later = tokens[t].provenance()->sources();
    for (std::size_t u = 0; u < t; ++u) {
      if (!compatible(tokens[u].provenance()->sources(), later)) {
        report_causality_violation(tokens);
        return;
      }
    }
  }
}

void IterationBuffer::push(std::size_t slot, data::Token token) {
  MOTEUR_REQUIRE(!closed_[slot], EnactmentError,
                 "push on closed port '" + ports_[slot] + "'");
  if (strategy_ == IterationStrategy::kDot) {
    push_dot(slot, std::move(token));
  } else {
    push_cross(slot, std::move(token));
  }
}

void IterationBuffer::push_dot(std::size_t slot, data::Token token) {
  if (ports_.size() == 1) {
    // A one-port dot completes on every token: nothing to pair or check.
    data::IndexVector index = token.indices();
    std::vector<data::Token> tokens;
    tokens.push_back(std::move(token));
    ready_.push_back(Tuple{std::move(tokens), std::move(index)});
    ++emitted_;
    return;
  }
  const auto it = partial_.try_emplace(token.indices()).first;
  Partial& partial = it->second;
  if (partial.tokens.empty()) partial.tokens.resize(ports_.size());
  MOTEUR_REQUIRE(!partial.tokens[slot], EnactmentError,
                 "duplicate token with index " + data::to_string(token.indices()) +
                     " on port '" + ports_[slot] + "'");
  partial.tokens[slot] = std::move(token);
  if (++partial.count == ports_.size()) {
    check_causality(partial.tokens);
    auto node = partial_.extract(it);
    ready_.push_back(Tuple{std::move(node.mapped().tokens), std::move(node.key())});
    ++emitted_;
  }
}

void IterationBuffer::push_cross(std::size_t slot, data::Token token) {
  // The new token combines with the Cartesian product of the tokens already
  // retained on every *other* port; each combination is emitted exactly once
  // over the stream's lifetime.
  std::size_t combinations = 1;
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (p != slot) combinations *= retained_[p].size();
  }
  for (std::size_t combo = 0; combo < combinations; ++combo) {
    Tuple tuple;
    tuple.tokens.reserve(ports_.size());
    std::size_t remainder = combo;
    for (std::size_t p = 0; p < ports_.size(); ++p) {
      const data::Token* chosen;
      if (p == slot) {
        chosen = &token;
      } else {
        chosen = &retained_[p][remainder % retained_[p].size()];
        remainder /= retained_[p].size();
      }
      tuple.tokens.push_back(*chosen);
      tuple.index.insert(tuple.index.end(), chosen->indices().begin(),
                         chosen->indices().end());
    }
    // No causality check here: a cross product legitimately combines
    // different items of the same source (e.g. registering every image
    // against every other image).
    ready_.push_back(std::move(tuple));
    ++emitted_;
  }
  retained_[slot].push_back(std::move(token));
}

void IterationBuffer::close(std::size_t slot) {
  if (closed_[slot]) return;
  closed_[slot] = true;
  ++closed_count_;
}

std::vector<IterationBuffer::Tuple> IterationBuffer::drain_ready() {
  std::vector<Tuple> out;
  out.swap(ready_);
  return out;
}

void IterationBuffer::drain_ready(std::vector<Tuple>& out) {
  out.clear();
  out.swap(ready_);
}

std::size_t IterationBuffer::pending_tokens() const {
  std::size_t count = 0;
  if (strategy_ == IterationStrategy::kDot) {
    for (const auto& [index, partial] : partial_) count += partial.count;
  } else {
    for (const auto& port_tokens : retained_) count += port_tokens.size();
  }
  return count;
}

}  // namespace moteur::workflow
