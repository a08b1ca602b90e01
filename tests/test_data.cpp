#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "data/dataset.hpp"
#include "data/provenance.hpp"
#include "data/token.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workflow/iteration.hpp"

namespace moteur::data {
namespace {

TEST(Provenance, SourceLeafKey) {
  const auto leaf = Provenance::source("referenceImage", 3);
  EXPECT_TRUE(leaf->is_source());
  EXPECT_EQ(leaf->key(), "referenceImage[3]");
  EXPECT_EQ(leaf->depth(), 0u);
  EXPECT_EQ(leaf->node_count(), 1u);
}

TEST(Provenance, DerivedKeyEncodesFullHistory) {
  const auto ref = Provenance::source("ref", 0);
  const auto flo = Provenance::source("flo", 0);
  const auto crest = Provenance::derived("crestLines", "c1", {ref, flo});
  const auto match = Provenance::derived("crestMatch", "t", {crest});
  EXPECT_EQ(crest->key(), "crestLines.c1(ref[0],flo[0])");
  EXPECT_EQ(match->key(), "crestMatch.t(crestLines.c1(ref[0],flo[0]))");
  EXPECT_EQ(match->depth(), 2u);
}

TEST(Provenance, EqualityIsStructural) {
  const auto a = Provenance::derived("P", "o", {Provenance::source("s", 1)});
  const auto b = Provenance::derived("P", "o", {Provenance::source("s", 1)});
  const auto c = Provenance::derived("P", "o", {Provenance::source("s", 2)});
  EXPECT_TRUE(*a == *b);
  EXPECT_FALSE(*a == *c);
}

TEST(Provenance, SourceIndicesCollectAllLeaves) {
  const auto tree = Provenance::derived(
      "P", "o",
      {Provenance::source("a", 0), Provenance::source("a", 2), Provenance::source("b", 1)});
  const auto indices = tree->source_indices();
  EXPECT_EQ(indices.at("a"), (std::set<std::size_t>{0, 2}));
  EXPECT_EQ(indices.at("b"), (std::set<std::size_t>{1}));
}

TEST(Provenance, SharedSubtreesCountedOnce) {
  const auto shared = Provenance::source("s", 0);
  const auto tree = Provenance::derived("P", "o", {shared, shared});
  EXPECT_EQ(tree->node_count(), 2u);  // P node + one shared leaf
}

TEST(Provenance, RejectsEmptyOrNullInputs) {
  EXPECT_THROW(Provenance::derived("P", "o", {}), InternalError);
  EXPECT_THROW(Provenance::derived("P", "o", {nullptr}), InternalError);
}

TEST(Token, SourceTokenCarriesIndexAndPayload) {
  const Token token = Token::from_source("img", 4, std::string("file4.mhd"), "file4.mhd");
  EXPECT_EQ(token.indices(), (IndexVector{4}));
  EXPECT_EQ(token.as<std::string>(), "file4.mhd");
  EXPECT_TRUE(token.holds<std::string>());
  EXPECT_FALSE(token.holds<int>());
  EXPECT_EQ(token.id(), "img[4]");
}

TEST(Token, DerivedTokenLinksProvenanceOfInputs) {
  const Token a = Token::from_source("A", 0, 1, "1");
  const Token b = Token::from_source("B", 0, 2, "2");
  const Token out = Token::derived("sum", "s", {a, b}, {0}, 3, "3");
  EXPECT_EQ(out.id(), "sum.s(A[0],B[0])");
  EXPECT_EQ(out.as<int>(), 3);
  ASSERT_EQ(out.provenance()->inputs().size(), 2u);
}

TEST(Token, MissingPayloadThrowsWithIdentity) {
  const Token token = Token::from_source("img", 0, {}, "x");
  EXPECT_FALSE(token.has_payload());
  EXPECT_THROW(token.as<int>(), EnactmentError);
}

TEST(Token, CopyAllocatesNothing) {
  const Token a = Token::from_source("A", 0, std::string(64, 'x'), std::string(64, 'y'));
  const Token b = Token::from_source("B", 0, 1, "1");
  const Token out = Token::derived("P", "o", {a, b}, {0}, std::string(100, 'z'),
                                   std::string(100, 'r'), 7);
  const std::size_t before = allocation_count();
  bool same = false;
  {
    Token copy = out;
    Token second(copy);
    Token assigned;
    assigned = second;
    const Token moved = std::move(copy);
    same = &assigned.repr() == &out.repr() && &moved.payload() == &out.payload() &&
           assigned.digest() == 7;
  }
  const std::size_t after = allocation_count();
  EXPECT_EQ(after, before);
  EXPECT_TRUE(same);  // copies share the one body
}

TEST(Token, DefaultConstructedIsEmptyAndAllocatesNothing) {
  const std::size_t before = allocation_count();
  std::vector<Token> placeholders;
  placeholders.reserve(3);
  const std::size_t reserved = allocation_count();
  placeholders.resize(3);
  const Token& token = placeholders[1];
  const bool empty = !token && !token.has_payload() && !token.holds<int>() &&
                     token.repr().empty() && token.indices().empty() &&
                     token.provenance() == nullptr && token.digest() == 0 &&
                     token.ref() == nullptr && !token.poisoned() &&
                     token.error() == nullptr;
  const std::size_t after = allocation_count();
  EXPECT_EQ(reserved, before + 1);  // the vector's own storage
  EXPECT_EQ(after, reserved);
  EXPECT_TRUE(empty);
  EXPECT_THROW(token.as<int>(), EnactmentError);
  EXPECT_THROW(token.id(), InternalError);
  EXPECT_TRUE(static_cast<bool>(Token::from_source("A", 0, 1, "1")));
}

// ---------------------------------------------------------------------------
// Source summaries against the recursive walk they replaced
// ---------------------------------------------------------------------------

/// The tree walk every lineage query used to make, kept as the reference.
std::map<std::string, std::set<std::size_t>> walk_source_indices(const Provenance& root) {
  std::map<std::string, std::set<std::size_t>> out;
  std::function<void(const Provenance&)> walk = [&](const Provenance& node) {
    if (node.is_source()) {
      out[node.producer()].insert(node.source_index());
      return;
    }
    for (const auto& input : node.inputs()) walk(*input);
  };
  walk(root);
  return out;
}

/// Seeded random provenance DAG: leaves over a few sources (names that are
/// prefixes of one another included), processing nodes over shared
/// subtrees, cross-product nodes pairing different items of one source, and
/// wide barrier aggregates.
std::vector<Provenance::Ptr> random_dag(std::uint64_t seed) {
  static const char* const kSources[] = {"a", "ab", "b", "ref", "referenceImage"};
  Rng rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<Provenance::Ptr> pool;
  const auto leaf = [&] {
    return Provenance::source(kSources[pick(5)], pick(6));
  };
  for (int i = 0; i < 10; ++i) pool.push_back(leaf());
  for (int step = 0; step < 80; ++step) {
    std::vector<Provenance::Ptr> inputs;
    switch (pick(4)) {
      case 0:  // a processing over one to three earlier results
      case 1:
        for (std::size_t k = 0, n = 1 + pick(3); k < n; ++k) {
          inputs.push_back(pool[pick(pool.size())]);
        }
        break;
      case 2: {  // cross product: several items of one source
        const auto& base = pool[pick(pool.size())];
        inputs.push_back(base);
        const auto& first = base->sources().front();
        inputs.push_back(Provenance::source(*first.source, first.index + 1 + pick(3)));
        break;
      }
      default:  // barrier aggregate over a wide slice of the pool
        for (std::size_t k = 0, n = 3 + pick(12); k < n; ++k) {
          inputs.push_back(pool[pick(pool.size())]);
        }
        break;
    }
    pool.push_back(Provenance::derived("P" + std::to_string(step), "o", inputs));
  }
  return pool;
}

TEST(SourceSummary, MatchesTheRecursiveWalkOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const auto& node : random_dag(seed)) {
      ASSERT_EQ(node->source_indices(), walk_source_indices(*node)) << node->key();
      const auto& list = node->sources();
      const auto not_increasing = [](const Provenance::SourceItem& x,
                                     const Provenance::SourceItem& y) {
        return !Provenance::source_less(x, y);
      };
      EXPECT_EQ(std::adjacent_find(list.begin(), list.end(), not_increasing), list.end())
          << "summary not strictly sorted: " << node->key();
    }
  }
}

/// The dot buffer's causality check as it was written against the walk:
/// fold every token's lineage into one map and report the first source two
/// tokens disagree on ("" when the tuple is consistent).
std::string walk_causality_error(const std::vector<Token>& tokens) {
  std::map<std::string, std::set<std::size_t>> combined;
  for (const auto& token : tokens) {
    for (const auto& [source, indices] : walk_source_indices(*token.provenance())) {
      const auto it = combined.find(source);
      if (it == combined.end()) {
        combined.emplace(source, indices);
      } else if (it->second != indices) {
        return "enactment error: causality violation: tuple mixes items " +
               to_string(IndexVector(indices.begin(), indices.end())) + " and " +
               to_string(IndexVector(it->second.begin(), it->second.end())) +
               " of source '" + source + "'";
      }
    }
  }
  return "";
}

TEST(SourceSummary, CausalityCheckMatchesTheWalkOnRandomTuples) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto pool = random_dag(seed);
    Rng rng(seed, "tuples");
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t width = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
      std::vector<std::string> ports;
      std::vector<Token> tokens;
      for (std::size_t p = 0; p < width; ++p) {
        ports.push_back("p" + std::to_string(p));
        // Leaves of the DAG's first sources make agreeing tuples likely.
        const std::size_t max = rng.bernoulli(0.5) ? 9 : pool.size() - 1;
        tokens.emplace_back(1, "1", IndexVector{0},
                            pool[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(max)))]);
      }
      const std::string expected = walk_causality_error(tokens);
      workflow::IterationBuffer buffer(workflow::IterationStrategy::kDot, ports);
      std::string actual;
      try {
        for (std::size_t p = 0; p < width; ++p) buffer.push(p, tokens[p]);
      } catch (const EnactmentError& e) {
        actual = e.what();
      }
      ASSERT_EQ(actual, expected) << "seed " << seed << " trial " << trial;
      ++(expected.empty() ? accepted : rejected);
    }
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(rejected, 50u);
}

TEST(IndexVector, ToString) {
  EXPECT_EQ(to_string(IndexVector{}), "[]");
  EXPECT_EQ(to_string(IndexVector{1, 2, 3}), "[1,2,3]");
}

TEST(InputDataSet, AddAndQuery) {
  InputDataSet ds;
  ds.add_item("img", "a");
  ds.add_item("img", "b");
  ds.add_item("scale", "1");
  EXPECT_EQ(ds.input_count(), 2u);
  EXPECT_EQ(ds.items("img"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(ds.item_count("scale"), 1u);
  EXPECT_EQ(ds.item_count("missing"), 0u);
  EXPECT_THROW(ds.items("missing"), ParseError);
}

TEST(InputDataSet, XmlRoundTrip) {
  InputDataSet ds;
  ds.add_item("referenceImage", "gfn://img/p0_ref.mhd");
  ds.add_item("referenceImage", "gfn://img/p1_ref.mhd");
  ds.add_item("floatingImage", "gfn://img/p0_flo.mhd");
  const InputDataSet parsed = InputDataSet::from_xml(ds.to_xml());
  EXPECT_EQ(parsed.input_names(),
            (std::vector<std::string>{"referenceImage", "floatingImage"}));
  EXPECT_EQ(parsed.items("referenceImage").size(), 2u);
  EXPECT_EQ(parsed.items("floatingImage")[0], "gfn://img/p0_flo.mhd");
}

TEST(InputDataSet, RejectsBadXml) {
  EXPECT_THROW(InputDataSet::from_xml("<nope/>"), ParseError);
  EXPECT_THROW(InputDataSet::from_xml(
                   "<dataset><input name=\"a\"/><input name=\"a\"/></dataset>"),
               ParseError);
  EXPECT_THROW(InputDataSet::from_xml("<dataset><input/></dataset>"), ParseError);
}

}  // namespace
}  // namespace moteur::data
