#include "services/grouped_service.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace moteur::services {

GroupedService::GroupedService(std::string id, std::vector<Member> members,
                               std::vector<workflow::InternalLink> internal_links)
    : Service(std::move(id)),
      members_(std::move(members)),
      internal_links_(std::move(internal_links)) {
  MOTEUR_REQUIRE(members_.size() >= 2, InternalError,
                 "grouped service needs at least two members");
  for (const auto& member : members_) {
    MOTEUR_REQUIRE(member.service != nullptr, InternalError,
                   "grouped service member '" + member.name + "' has no implementation");
  }
  internal_leaves_.reserve(internal_links_.size());
  for (const auto& link : internal_links_) {
    internal_leaves_.push_back(data::Provenance::source(
        this->id() + "." + link.from_member + "." + link.from_port, 0));
  }
}

const workflow::InternalLink* GroupedService::internal_feed(const std::string& member,
                                                            const std::string& port) const {
  for (const auto& link : internal_links_) {
    if (link.to_member == member && link.to_port == port) return &link;
  }
  return nullptr;
}

std::vector<std::string> GroupedService::input_ports() const {
  std::vector<std::string> ports;
  for (const auto& member : members_) {
    for (const auto& port : member.service->input_ports()) {
      if (internal_feed(member.name, port) == nullptr) {
        ports.push_back(member.name + "/" + port);
      }
    }
  }
  return ports;
}

std::vector<std::string> GroupedService::output_ports() const {
  std::vector<std::string> ports;
  for (const auto& member : members_) {
    for (const auto& port : member.service->output_ports()) {
      ports.push_back(member.name + "/" + port);
    }
  }
  return ports;
}

Inputs GroupedService::member_inputs(const Member& member, const Inputs& external,
                                     const std::map<std::string, Result>& results) const {
  // Internal tokens inherit the iteration index of the invocation so member
  // services relying on it (naming, profiles) keep working inside a group.
  data::IndexVector invocation_index;
  if (!external.empty()) invocation_index = external.begin()->second.indices();
  Inputs inputs;
  for (const auto& port : member.service->input_ports()) {
    if (const workflow::InternalLink* link = internal_feed(member.name, port)) {
      const auto result_it = results.find(link->from_member);
      MOTEUR_REQUIRE(result_it != results.end(), EnactmentError,
                     "grouped service '" + id() + "': member '" + link->from_member +
                         "' has not run before '" + member.name + "'");
      const auto value_it = result_it->second.outputs.find(link->from_port);
      MOTEUR_REQUIRE(value_it != result_it->second.outputs.end(), EnactmentError,
                     "grouped service '" + id() + "': member '" + link->from_member +
                         "' produced no output '" + link->from_port + "'");
      // Wrap the intermediate value as a token; lineage for intermediate
      // results inside a group is tracked at the group level by the enactor,
      // so a synthetic leaf is sufficient here.
      const auto leaf = static_cast<std::size_t>(link - internal_links_.data());
      inputs.emplace(port, data::Token(value_it->second.payload, value_it->second.repr,
                                       invocation_index, internal_leaves_[leaf]));
    } else {
      const auto it = external.find(member.name + "/" + port);
      MOTEUR_REQUIRE(it != external.end(), EnactmentError,
                     "grouped service '" + id() + "': missing external input '" +
                         member.name + "/" + port + "'");
      inputs.emplace(port, it->second);
    }
  }
  return inputs;
}

Result GroupedService::invoke(const Inputs& inputs) {
  std::map<std::string, Result> member_results;
  Result combined;
  for (const auto& member : members_) {
    Result result = member.service->invoke(member_inputs(member, inputs, member_results));
    for (const auto& [port, value] : result.outputs) {
      combined.outputs.emplace(member.name + "/" + port, value);
    }
    member_results.emplace(member.name, std::move(result));
  }
  return combined;
}

grid::JobRequest GroupedService::job_profile(const Inputs& inputs) const {
  grid::JobRequest request;
  request.name = id();
  for (const auto& member : members_) {
    // Ask each member for its own profile; feed it the member's inputs when
    // they are externally available, otherwise an empty binding (profiles
    // rarely depend on values).
    Inputs member_external;
    for (const auto& port : member.service->input_ports()) {
      const auto it = inputs.find(member.name + "/" + port);
      if (it != inputs.end()) member_external.emplace(port, it->second);
    }
    const grid::JobRequest profile = member.service->job_profile(member_external);
    request.compute_seconds += profile.compute_seconds;

    // Input transfers: only externally-fed ports are staged; internal feeds
    // stay on the worker node. Profiles carry aggregate megabytes, so
    // prorate by the share of external input ports.
    const auto ports = member.service->input_ports();
    std::size_t external_ports = 0;
    for (const auto& port : ports) {
      if (internal_feed(member.name, port) == nullptr) ++external_ports;
    }
    if (!ports.empty()) {
      request.input_megabytes += profile.input_megabytes *
                                 static_cast<double>(external_ports) /
                                 static_cast<double>(ports.size());
    }
    // Every member output is registered (it may have external consumers).
    request.output_megabytes += profile.output_megabytes;
  }
  return request;
}

}  // namespace moteur::services
