#include "workflow/iteration_tree.hpp"

#include <algorithm>
#include <iterator>
#include <set>

#include "util/error.hpp"

namespace moteur::workflow {

// ---------------------------------------------------------------------------
// IterationNode
// ---------------------------------------------------------------------------

IterationNode IterationNode::leaf(std::string port_name) {
  IterationNode node;
  node.kind = Kind::kPort;
  node.port = std::move(port_name);
  return node;
}

IterationNode IterationNode::dot(std::vector<IterationNode> children) {
  IterationNode node;
  node.kind = Kind::kDot;
  node.children = std::move(children);
  return node;
}

IterationNode IterationNode::cross(std::vector<IterationNode> children) {
  IterationNode node;
  node.kind = Kind::kCross;
  node.children = std::move(children);
  return node;
}

std::vector<std::string> IterationNode::ports() const {
  if (kind == Kind::kPort) return {port};
  std::vector<std::string> out;
  for (const auto& child : children) {
    const auto sub = child.ports();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

void IterationNode::validate() const {
  if (kind == Kind::kPort) {
    MOTEUR_REQUIRE(!port.empty(), GraphError, "iteration tree leaf without a port name");
    MOTEUR_REQUIRE(children.empty(), GraphError, "iteration tree leaf with children");
  } else {
    MOTEUR_REQUIRE(!children.empty(), GraphError,
                   "iteration tree combinator without children");
    for (const auto& child : children) child.validate();
  }
  const auto all = ports();
  const std::set<std::string> unique(all.begin(), all.end());
  MOTEUR_REQUIRE(unique.size() == all.size(), GraphError,
                 "iteration tree references a port twice");
}

std::string IterationNode::to_string() const {
  if (kind == Kind::kPort) return port;
  std::string out = kind == Kind::kDot ? "dot(" : "cross(";
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (i != 0) out += ",";
    out += children[i].to_string();
  }
  out += ")";
  return out;
}

// ---------------------------------------------------------------------------
// CompositeIterationBuffer
// ---------------------------------------------------------------------------

namespace {

/// Internal payload of a combinator's intermediate token: the flattened
/// member tokens in port order.
struct CompositeGroup {
  std::vector<data::Token> members;
};
using GroupPtr = std::shared_ptr<const CompositeGroup>;

/// Append the leaf tokens `token` stands for: its group's members for an
/// intermediate token, else the token itself.
void append_leaves(std::vector<data::Token>& out, const data::Token& token) {
  if (const GroupPtr* group = std::any_cast<GroupPtr>(&token.payload())) {
    out.insert(out.end(), (*group)->members.begin(), (*group)->members.end());
  } else {
    out.push_back(token);
  }
}

}  // namespace

struct CompositeIterationBuffer::Stage {
  IterationBuffer buffer;
  Stage* parent = nullptr;
  std::size_t parent_slot = 0;
  /// Whether any slot is fed by a child stage (its tuples then hold
  /// intermediate tokens that must be flattened).
  bool has_child_stages = false;

  Stage(IterationNode::Kind kind, std::vector<std::string> slots)
      : buffer(kind == IterationNode::Kind::kDot ? IterationStrategy::kDot
                                                 : IterationStrategy::kCross,
               std::move(slots)) {}
};

CompositeIterationBuffer::~CompositeIterationBuffer() = default;

CompositeIterationBuffer::CompositeIterationBuffer(IterationNode tree)
    : tree_(std::move(tree)) {
  tree_.validate();
  ports_ = tree_.ports();
  leaf_routes_.resize(ports_.size());
  closed_.assign(ports_.size(), false);
  MOTEUR_REQUIRE(tree_.kind != IterationNode::Kind::kPort, GraphError,
                 "iteration tree root must be a combinator");
  root_ = build(tree_);
}

std::size_t CompositeIterationBuffer::port_index(const std::string& port) const {
  const auto it = std::find(ports_.begin(), ports_.end(), port);
  MOTEUR_REQUIRE(it != ports_.end(), EnactmentError,
                 "iteration tree has no port '" + port + "'");
  return static_cast<std::size_t>(it - ports_.begin());
}

CompositeIterationBuffer::Stage* CompositeIterationBuffer::build(
    const IterationNode& node) {
  // Slot names only label the stage's own error messages; routing is by
  // slot index.
  std::vector<std::string> slots;
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    slots.push_back("c" + std::to_string(i));
  }
  // Children first, so stages_ is in bottom-up (pump) order.
  std::vector<Stage*> child_stages(node.children.size(), nullptr);
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (node.children[i].kind != IterationNode::Kind::kPort) {
      child_stages[i] = build(node.children[i]);
    }
  }
  stages_.push_back(std::make_unique<Stage>(node.kind, std::move(slots)));
  Stage* stage = stages_.back().get();
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (node.children[i].kind == IterationNode::Kind::kPort) {
      leaf_routes_[port_index(node.children[i].port)] = LeafRoute{stage, i};
    } else {
      child_stages[i]->parent = stage;
      child_stages[i]->parent_slot = i;
      stage->has_child_stages = true;
    }
  }
  return stage;
}

void CompositeIterationBuffer::push(std::size_t leaf, data::Token token) {
  MOTEUR_REQUIRE(!closed_[leaf], EnactmentError,
                 "push on closed port '" + ports_[leaf] + "'");
  const LeafRoute& route = leaf_routes_[leaf];
  route.stage->buffer.push(route.slot, std::move(token));
  pump();
}

void CompositeIterationBuffer::pump() {
  // Bottom-up: every stage's completed tuples become composite tokens on its
  // parent slot; the root's tuples flatten into firing tuples.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& stage : stages_) {
      if (!stage->buffer.has_ready()) continue;
      progress = true;
      stage->buffer.drain_ready(drained_);
      for (auto& tuple : drained_) {
        if (!stage->has_child_stages && stage.get() == root_) {
          ready_.push_back(std::move(tuple));  // already the leaf tokens
          continue;
        }
        std::vector<data::Token> leaves;
        for (const auto& member : tuple.tokens) append_leaves(leaves, member);
        if (stage.get() == root_) {
          ready_.push_back(Tuple{std::move(leaves), std::move(tuple.index)});
          continue;
        }
        GroupPtr group = std::make_shared<const CompositeGroup>(
            CompositeGroup{std::move(leaves)});
        std::string repr = "group" + data::to_string(tuple.index);
        data::Token composite = data::Token::derived(
            "iteration", "group", tuple.tokens, std::move(tuple.index), std::move(group),
            std::move(repr));
        stage->parent->buffer.push(stage->parent_slot, std::move(composite));
      }
    }
  }

  // Closure propagation: a combinator's slot closes once its child stage is
  // fully closed (all child slots closed) — after the drains above, nothing
  // more can come out of it.
  for (auto& stage : stages_) {
    if (stage->parent == nullptr) continue;
    if (stage->buffer.all_closed() &&
        !stage->parent->buffer.is_closed(stage->parent_slot)) {
      stage->parent->buffer.close(stage->parent_slot);
    }
  }
}

void CompositeIterationBuffer::close(std::size_t leaf) {
  if (closed_[leaf]) return;
  closed_[leaf] = true;
  ++closed_count_;
  const LeafRoute& route = leaf_routes_[leaf];
  route.stage->buffer.close(route.slot);
  pump();
}

std::vector<CompositeIterationBuffer::Tuple> CompositeIterationBuffer::drain_ready() {
  std::vector<Tuple> out;
  out.swap(ready_);
  return out;
}

void CompositeIterationBuffer::drain_ready_into(std::deque<Tuple>& out) {
  std::move(ready_.begin(), ready_.end(), std::back_inserter(out));
  ready_.clear();
}

bool CompositeIterationBuffer::has_ready() const { return !ready_.empty(); }

std::size_t CompositeIterationBuffer::pending_tokens() const {
  std::size_t total = 0;
  for (const auto& stage : stages_) total += stage->buffer.pending_tokens();
  return total;
}

}  // namespace moteur::workflow
