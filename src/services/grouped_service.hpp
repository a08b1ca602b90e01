#pragma once

#include <memory>
#include <string>
#include <vector>

#include "services/service.hpp"
#include "workflow/graph.hpp"

namespace moteur::services {

/// The virtual single service of the grouping optimization (paper §3.6,
/// Figure 7 bottom): it invokes the codes embedded in several member
/// services sequentially inside ONE submission, "thus resolving the data
/// transfer and independent code invocation issues". Intermediate results
/// flow member-to-member without going back through the grid.
///
/// Port naming follows the grouping rewrite: every external port is
/// qualified as "<member>/<port>".
class GroupedService : public Service {
 public:
  struct Member {
    std::string name;                  // original processor name
    std::shared_ptr<Service> service;  // its implementation
  };

  /// `members` must be in execution (topological) order; `internal_links`
  /// wire member outputs to member inputs.
  GroupedService(std::string id, std::vector<Member> members,
                 std::vector<workflow::InternalLink> internal_links);

  const std::vector<Member>& members() const { return members_; }

  std::vector<std::string> input_ports() const override;
  std::vector<std::string> output_ports() const override;

  /// Run every member in order, piping internal links; external inputs are
  /// looked up under their qualified names. All member outputs are exposed
  /// (intermediate results may have external consumers).
  Result invoke(const Inputs& inputs) override;

  /// One job for the whole chain: compute is the sum of member computes;
  /// input transfer covers only externally-fed member inputs (prorated by
  /// port count, since profiles carry aggregate megabytes); every member
  /// output is registered.
  grid::JobRequest job_profile(const Inputs& inputs) const override;

 private:
  /// Inputs of one member, resolved from external inputs + prior results.
  Inputs member_inputs(const Member& member, const Inputs& external,
                       const std::map<std::string, Result>& results) const;

  /// Is this member input port fed internally?
  const workflow::InternalLink* internal_feed(const std::string& member,
                                              const std::string& port) const;

  std::vector<Member> members_;
  std::vector<workflow::InternalLink> internal_links_;
  /// Per internal link, the synthetic provenance leaf of the value it
  /// carries ("<group>.<member>.<port>"[0]); built once, shared by every
  /// invocation.
  std::vector<data::Provenance::Ptr> internal_leaves_;
};

}  // namespace moteur::services
