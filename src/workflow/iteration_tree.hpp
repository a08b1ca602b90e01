#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "data/token.hpp"
#include "workflow/iteration.hpp"

namespace moteur::workflow {

/// Composed iteration strategies. The paper limits itself to plain dot and
/// cross products ("sufficient for implementing most applications", §2.2);
/// Taverna's full model composes them into trees — e.g. (a · b) × c pairs
/// ports a and b by rank, then crosses every pair with every item of c.
/// This extension implements those trees on top of the flat IterationBuffer.
///
/// A node is either a port leaf or a dot/cross combinator over child nodes.
struct IterationNode {
  enum class Kind { kPort, kDot, kCross };

  Kind kind = Kind::kPort;
  std::string port;                     // kPort only
  std::vector<IterationNode> children;  // combinators only

  static IterationNode leaf(std::string port_name);
  static IterationNode dot(std::vector<IterationNode> children);
  static IterationNode cross(std::vector<IterationNode> children);

  /// All leaf port names, left to right.
  std::vector<std::string> ports() const;

  /// Structural checks: combinators have >= 2 children, leaves have names,
  /// no port appears twice. Throws GraphError.
  void validate() const;

  /// Compact text form, e.g. "cross(dot(a,b),c)".
  std::string to_string() const;
};

/// Streams per-port tokens into firing tuples according to an iteration
/// tree. Exposes the same interface shape as IterationBuffer; tuples list
/// the leaf tokens in the tree's port order.
class CompositeIterationBuffer {
 public:
  explicit CompositeIterationBuffer(IterationNode tree);
  ~CompositeIterationBuffer();  // out of line: Stage is incomplete here

  using Tuple = IterationBuffer::Tuple;

  /// Index of `port` in ports() (the tree's leaves, left to right): the key
  /// the index-taking calls below use. Throws EnactmentError when the tree
  /// has no such port.
  std::size_t port_index(const std::string& port) const;

  void push(std::size_t leaf, data::Token token);
  void push(const std::string& port, data::Token token) {
    push(port_index(port), std::move(token));
  }
  void close(std::size_t leaf);
  void close(const std::string& port) { close(port_index(port)); }
  bool is_closed(std::size_t leaf) const { return closed_[leaf]; }
  bool is_closed(const std::string& port) const { return is_closed(port_index(port)); }
  bool all_closed() const { return closed_count_ == ports_.size(); }
  std::vector<Tuple> drain_ready();
  /// Move every firing tuple onto the end of `out`.
  void drain_ready_into(std::deque<Tuple>& out);
  bool has_ready() const;
  std::size_t pending_tokens() const;

  const IterationNode& tree() const { return tree_; }
  const std::vector<std::string>& ports() const { return ports_; }

 private:
  struct Stage;  // one combinator level
  /// Where a leaf's tokens enter: a stage and its slot.
  struct LeafRoute {
    Stage* stage = nullptr;
    std::size_t slot = 0;
  };

  IterationNode tree_;
  std::vector<std::string> ports_;
  std::vector<std::unique_ptr<Stage>> stages_;  // topological, root last
  Stage* root_ = nullptr;
  std::vector<LeafRoute> leaf_routes_;  // per leaf, in ports() order
  std::vector<bool> closed_;            // per leaf
  std::size_t closed_count_ = 0;
  std::vector<Tuple> ready_;
  std::vector<Tuple> drained_;  // pump()'s per-stage scratch, kept for reuse

  Stage* build(const IterationNode& node);
  void pump();
};

}  // namespace moteur::workflow
