#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "data/token.hpp"
#include "workflow/graph.hpp"

namespace moteur::workflow {

/// Streams tokens arriving on a processor's input ports into firing tuples
/// according to the processor's iteration strategy (paper §2.2, Figure 3):
///
///  - dot:   pairs items by *rank of definition* — implemented as equality of
///           the composite iteration IndexVector, so out-of-order completion
///           under data/service parallelism still matches the right items
///           (the causality problem of §4.1); produces min(n, m) tuples;
///  - cross: all combinations across ports; produces n * m tuples with
///           concatenated index vectors.
///
/// The buffer also tracks per-port stream closure so the enactor can
/// propagate end-of-stream and fire synchronization barriers.
class IterationBuffer {
 public:
  IterationBuffer(IterationStrategy strategy, std::vector<std::string> ports);

  /// One firing of the downstream processor.
  struct Tuple {
    std::vector<data::Token> tokens;  // aligned with the port order
    data::IndexVector index;          // iteration index of the firing
  };

  /// Index of `port` in ports(); throws EnactmentError for an unknown port.
  std::size_t port_index(const std::string& port) const;

  /// Feed one token to the port at `slot` (its index in ports()); any tuples
  /// it completes become ready.
  /// Throws EnactmentError if two matched tokens carry contradictory
  /// provenance (same source, different item index) — the §4.1 causality
  /// check — or if a duplicate index arrives on a port under dot strategy.
  void push(std::size_t slot, data::Token token);
  void push(const std::string& port, data::Token token) {
    push(port_index(port), std::move(token));
  }

  /// Mark a port's stream complete: no further push on it.
  void close(std::size_t slot);
  void close(const std::string& port) { close(port_index(port)); }
  bool is_closed(std::size_t slot) const { return closed_[slot]; }
  bool is_closed(const std::string& port) const { return is_closed(port_index(port)); }
  bool all_closed() const { return closed_count_ == ports_.size(); }

  /// Take every tuple completed since the last drain (FIFO by completion).
  std::vector<Tuple> drain_ready();
  /// Same, into `out` (its old contents are dropped). The two vectors trade
  /// storage, so a caller that keeps `out` around drains without allocating.
  void drain_ready(std::vector<Tuple>& out);

  bool has_ready() const { return !ready_.empty(); }

  /// Tokens buffered but not yet emitted in a tuple. Under dot these are
  /// partial tuples; under cross, retained operands.
  std::size_t pending_tokens() const;

  /// Total tuples emitted so far.
  std::size_t emitted_tuples() const { return emitted_; }

  const std::vector<std::string>& ports() const { return ports_; }
  IterationStrategy strategy() const { return strategy_; }

 private:
  void push_dot(std::size_t slot, data::Token token);
  void push_cross(std::size_t slot, data::Token token);
  static void check_causality(const std::vector<data::Token>& tokens);

  IterationStrategy strategy_;
  std::vector<std::string> ports_;
  std::vector<bool> closed_;
  std::size_t closed_count_ = 0;

  // Dot: partial tuples keyed by index vector; a slot not yet filled holds
  // an empty placeholder token.
  struct Partial {
    std::vector<data::Token> tokens;
    std::size_t count = 0;
  };
  std::map<data::IndexVector, Partial> partial_;

  // Cross: full retention per port.
  std::vector<std::vector<data::Token>> retained_;

  std::vector<Tuple> ready_;
  std::size_t emitted_ = 0;
};

}  // namespace moteur::workflow
