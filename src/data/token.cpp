#include "data/token.hpp"

#include "util/error.hpp"

namespace moteur::data {

std::string to_string(const IndexVector& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(v[i]);
  }
  out += "]";
  return out;
}

// Constant-initialized, so default tokens built during other translation
// units' static initialization already see it.
constinit const Token::Body Token::kEmpty{};

Token::Token(Body body) : body_(std::make_shared<const Body>(std::move(body))) {
  MOTEUR_REQUIRE(body_->provenance != nullptr, InternalError, "token without provenance");
}

Token::Token(std::any payload, std::string repr, IndexVector indices,
             Provenance::Ptr provenance)
    : Token(Body{std::move(payload), std::move(repr), std::move(indices),
                 std::move(provenance), nullptr, 0, nullptr}) {}

Token Token::from_source(const std::string& source_name, std::size_t index,
                         std::any payload, std::string repr) {
  const std::uint64_t digest = fnv1a(repr);
  return Token(Body{std::move(payload), std::move(repr), IndexVector{index},
                    Provenance::source(source_name, index), nullptr, digest, nullptr});
}

namespace {

std::vector<Provenance::Ptr> histories(const std::vector<Token>& inputs) {
  std::vector<Provenance::Ptr> out;
  out.reserve(inputs.size());
  for (const auto& input : inputs) out.push_back(input.provenance());
  return out;
}

}  // namespace

Token Token::derived(const std::string& processor, const std::string& port,
                     const std::vector<Token>& inputs, IndexVector indices,
                     std::any payload, std::string repr, std::uint64_t digest,
                     std::shared_ptr<const DataRef> ref) {
  return Token(Body{std::move(payload), std::move(repr), std::move(indices),
                    Provenance::derived(processor, port, histories(inputs)), nullptr,
                    digest, std::move(ref)});
}

Token Token::poisoned(const std::string& processor, const std::string& port,
                      const std::vector<Token>& inputs, IndexVector indices,
                      std::shared_ptr<const TokenError> error) {
  MOTEUR_REQUIRE(error != nullptr, InternalError, "poisoned token without an error");
  std::string repr = "<error@" + error->processor + ">";
  return Token(Body{std::any{}, std::move(repr), std::move(indices),
                    Provenance::derived(processor, port, histories(inputs)),
                    std::move(error), 0, nullptr});
}

const std::string& Token::id() const {
  MOTEUR_REQUIRE(body_ != nullptr, InternalError, "token without provenance");
  return body_->provenance->key();
}

const std::any& Token::require_payload() const {
  MOTEUR_REQUIRE(body().payload.has_value(), EnactmentError,
                 "token '" + (body_ ? body_->provenance->key() : std::string("?")) +
                     "' carries no payload");
  return body_->payload;
}

}  // namespace moteur::data
