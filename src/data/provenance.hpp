#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace moteur::data {

/// Immutable history tree attached to every data segment (paper §4.1): the
/// leaves are workflow-input items, the internal nodes the processings that
/// produced each intermediate result. The tree "unambiguously identifies the
/// data": two tokens are the same logical result iff their trees are equal.
///
/// Trees are shared (shared_ptr DAG) and hash-consed into a canonical string
/// key, so equality checks and map lookups are O(1) string compares.
///
/// Every node also carries a flat summary of the workflow-source items it
/// derives from, merged from its children once when the node is built, so
/// lineage questions (the dot-product causality check) never walk the tree.
class Provenance {
 public:
  using Ptr = std::shared_ptr<const Provenance>;

  /// One workflow-source item reachable from a node. `source` points at the
  /// process-wide interned copy of the source name: equal names share one
  /// pointer, so comparing two items' sources is a pointer comparison.
  struct SourceItem {
    const std::string* source;
    std::size_t index;
  };
  /// A node's source summary: sorted by (source name, index), without
  /// duplicates, so each source's items form one contiguous run.
  using Sources = std::vector<SourceItem>;

  /// Lexicographic (source name, index) order of a Sources list.
  static bool source_less(const SourceItem& a, const SourceItem& b) {
    if (a.source != b.source) return *a.source < *b.source;
    return a.index < b.index;
  }

  /// Leaf: the `index`-th item produced by workflow source `source_name`.
  static Ptr source(const std::string& source_name, std::size_t index);

  /// Internal node: output `port` of `processor` computed from `inputs`.
  static Ptr derived(const std::string& processor, const std::string& port,
                     std::vector<Ptr> inputs);

  bool is_source() const { return inputs_.empty(); }
  const std::string& producer() const { return producer_; }
  const std::string& port() const { return port_; }
  std::size_t source_index() const { return source_index_; }
  const std::vector<Ptr>& inputs() const { return inputs_; }

  /// Canonical key, e.g. "crestMatch.out(ref[0],flo[0])". Built once.
  const std::string& key() const { return key_; }

  /// Every workflow-source item reachable from this node, as a flat sorted
  /// list (see Sources). Built once, when the node is; a node whose inputs
  /// add nothing to one input's list shares that list instead of a copy.
  const Sources& sources() const { return *sources_; }

  /// Every (source name -> set of item indices) reachable from this node: a
  /// map view rebuilt from sources() on each call.
  std::map<std::string, std::set<std::size_t>> source_indices() const;

  /// Total number of nodes in the tree (shared subtrees counted once).
  std::size_t node_count() const;

  /// Longest path from this node down to a leaf (leaf depth = 0).
  std::size_t depth() const;

 private:
  struct Passkey {
    explicit Passkey() = default;
  };

 public:
  /// Use source() or derived(); public only so make_shared can reach it.
  explicit Provenance(Passkey) {}
  Provenance(const Provenance&) = delete;
  Provenance& operator=(const Provenance&) = delete;

 private:
  std::string producer_;       // processor or source name
  std::string port_;           // empty for leaves
  std::size_t source_index_ = 0;
  std::vector<Ptr> inputs_;
  std::string key_;
  Sources own_sources_;                  // empty when sharing an input's list
  const Sources* sources_ = &own_sources_;  // own_sources_ or an input's list
};

bool operator==(const Provenance& a, const Provenance& b);

}  // namespace moteur::data
