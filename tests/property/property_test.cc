// Parameterized property tests: invariants checked across a sweep of
// generated corpora (seeds/shapes), tying all modules together.

#include <gtest/gtest.h>

#include <random>

#include "algebra/compile.h"
#include "core/document_store.h"
#include "corpus/generator.h"
#include "om/subtype.h"
#include "om/typecheck.h"
#include "oql/parser.h"
#include "oql/translate.h"
#include "path/path.h"
#include "sgml/goldens.h"

namespace sgmlqdb {
namespace {

struct CorpusCase {
  uint64_t seed;
  size_t sections;
  double subsection_prob;
  double figure_prob;
};

class CorpusProperty : public ::testing::TestWithParam<CorpusCase> {
 protected:
  std::string Generate() const {
    corpus::ArticleParams p;
    p.seed = GetParam().seed;
    p.sections = GetParam().sections;
    p.subsection_prob = GetParam().subsection_prob;
    p.figure_prob = GetParam().figure_prob;
    return corpus::GenerateArticle(p);
  }
};

TEST_P(CorpusProperty, LoadedInstanceTypechecksAndSatisfiesConstraints) {
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  auto root = store.LoadDocument(Generate());
  ASSERT_TRUE(root.ok()) << root.status();
  // Whole-database conformance (dom(tau) membership + Fig. 3
  // constraints for every object).
  EXPECT_TRUE(om::CheckDatabase(store.db()).ok())
      << om::CheckDatabase(store.db());
}

TEST_P(CorpusProperty, ExportReloadPreservesStructureAndText) {
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  auto root = store.LoadDocument(Generate());
  ASSERT_TRUE(root.ok()) << root.status();
  auto exported = store.ExportSgml(root.value());
  ASSERT_TRUE(exported.ok()) << exported.status();

  DocumentStore store2;
  ASSERT_TRUE(store2.LoadDtd(sgml::ArticleDtdText()).ok());
  auto root2 = store2.LoadDocument(*exported);
  ASSERT_TRUE(root2.ok()) << root2.status() << "\n" << *exported;
  EXPECT_EQ(store.db().object_count(), store2.db().object_count());
  EXPECT_EQ(store.TextOf(root.value()).value(),
            store2.TextOf(root2.value()).value());
}

TEST_P(CorpusProperty, EveryEnumeratedPathAppliesBack) {
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  auto root = store.LoadDocument(Generate());
  ASSERT_TRUE(root.ok());
  om::Value start = om::Value::Object(root.value());
  size_t checked = 0;
  path::EnumeratePaths(
      store.db(), start, path::EnumerateOptions{},
      [&](const path::Path& p, const om::Value& v) {
        auto applied = path::ApplyPath(store.db(), start, p);
        EXPECT_TRUE(applied.ok()) << p;
        if (applied.ok()) {
          EXPECT_EQ(applied.value(), v) << p;
        }
        // Value round-trip of the path itself.
        auto decoded = path::Path::FromValue(p.ToValue());
        EXPECT_TRUE(decoded.ok());
        if (decoded.ok()) {
          EXPECT_EQ(decoded.value(), p);
        }
        ++checked;
        return true;
      });
  EXPECT_GT(checked, 10u);
}

TEST_P(CorpusProperty, RestrictedPathsAreSubsetOfLiberal) {
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  auto root = store.LoadDocument(Generate());
  ASSERT_TRUE(root.ok());
  om::Value start = om::Value::Object(root.value());
  path::EnumerateOptions restricted;
  restricted.semantics = path::PathSemantics::kRestricted;
  path::EnumerateOptions liberal;
  liberal.semantics = path::PathSemantics::kLiberal;
  auto r = path::AllPaths(store.db(), start, restricted);
  auto l = path::AllPaths(store.db(), start, liberal);
  EXPECT_LE(r.size(), l.size());
  std::set<std::string> liberal_set;
  for (const path::Path& p : l) liberal_set.insert(p.ToString());
  for (const path::Path& p : r) {
    EXPECT_TRUE(liberal_set.count(p.ToString()) > 0) << p;
  }
}

TEST_P(CorpusProperty, NaiveAndAlgebraicEnginesAgree) {
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  ASSERT_TRUE(store.LoadDocument(Generate(), "doc").ok());
  const char* kQueries[] = {
      "select t from doc .. title(t)",
      "select PATH_p from doc PATH_p.caption(c)",
      "select name(ATT_a) from doc PATH_p.ATT_a(v) "
      "where v contains (\"the\")",
      "select s from a in Articles, s in a.sections",
      "select a from a in Articles where count(a.authors) > 1",
      "select i from doc PATH_p.sections[i]",
      // Tracked paths through list indices, derefs and IDREFs, and a
      // group-by over `..`.
      "select PATH_p from doc PATH_p.reflabel(r)",
      "select tuple(p: PATH_p, t: t) from doc PATH_p.title(t)",
      "select count(t) from doc .. title(t) group by t",
  };
  for (const char* q : kQueries) {
    auto naive = store.Query(q, oql::Engine::kNaive);
    ASSERT_TRUE(naive.ok()) << naive.status() << " for " << q;
    for (bool optimize : {true, false}) {
      DocumentStore::QueryOptions options;
      options.engine = oql::Engine::kAlgebraic;
      options.optimize = optimize;
      auto algebraic = store.Query(q, options);
      ASSERT_TRUE(algebraic.ok()) << algebraic.status() << " for " << q;
      EXPECT_EQ(naive.value(), algebraic.value())
          << q << " optimize=" << optimize;
    }
  }
}

TEST_P(CorpusProperty, Q4SelfDiffIsEmpty) {
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  ASSERT_TRUE(store.LoadDocument(Generate(), "doc").ok());
  auto r = store.Query("doc PATH_p - doc PATH_q");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CorpusProperty,
    ::testing::Values(
        CorpusCase{1, 2, 0.0, 0.0},    // flat, no subsections/figures
        CorpusCase{2, 3, 1.0, 0.0},    // every section has subsections
        CorpusCase{3, 4, 0.5, 1.0},    // all bodies are figures
        CorpusCase{4, 1, 0.3, 0.3},    // tiny
        CorpusCase{5, 10, 0.4, 0.2},   // large
        CorpusCase{99, 6, 0.7, 0.5}),  // mixed
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_s" +
             std::to_string(info.param.sections);
    });

// ---------------------------------------------------------------------
// Subtype lattice properties over generated types.

class SubtypeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubtypeProperty, LcsIsUpperBound) {
  corpus::Rng rng(GetParam());
  om::Schema schema;
  // Random flat tuple types over a tiny attribute alphabet.
  auto random_tuple = [&rng]() {
    std::vector<std::pair<std::string, om::Type>> fields;
    const char* names[] = {"a", "b", "c", "d"};
    for (const char* n : names) {
      if (rng.Chance(0.6)) {
        fields.emplace_back(
            n, rng.Chance(0.5) ? om::Type::Integer() : om::Type::String());
      }
    }
    if (fields.empty()) fields.emplace_back("z", om::Type::Integer());
    return om::Type::Tuple(std::move(fields));
  };
  for (int i = 0; i < 50; ++i) {
    om::Type t1 = random_tuple();
    om::Type t2 = random_tuple();
    auto lcs = om::LeastCommonSupertype(t1, t2, schema);
    if (!lcs.ok()) continue;  // no shared attribute
    EXPECT_TRUE(om::IsSubtype(t1, lcs.value(), schema))
        << t1 << " </= " << lcs.value();
    EXPECT_TRUE(om::IsSubtype(t2, lcs.value(), schema))
        << t2 << " </= " << lcs.value();
  }
}

TEST_P(SubtypeProperty, SubtypeIsReflexiveAndTransitiveOnChains) {
  corpus::Rng rng(GetParam());
  om::Schema schema;
  // Build a chain by progressively dropping attributes.
  std::vector<std::pair<std::string, om::Type>> fields = {
      {"a", om::Type::Integer()},
      {"b", om::Type::String()},
      {"c", om::Type::Float()},
      {"d", om::Type::Boolean()}};
  std::vector<om::Type> chain;
  while (!fields.empty()) {
    chain.push_back(om::Type::Tuple(fields));
    fields.pop_back();
  }
  for (const om::Type& t : chain) {
    EXPECT_TRUE(om::IsSubtype(t, t, schema));
  }
  for (size_t i = 0; i < chain.size(); ++i) {
    for (size_t j = i; j < chain.size(); ++j) {
      EXPECT_TRUE(om::IsSubtype(chain[i], chain[j], schema))
          << chain[i] << " </= " << chain[j];
    }
  }
  (void)rng;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubtypeProperty,
                         ::testing::Values(11, 22, 33, 44));

// --- OQL front-end robustness: mutated statements never crash -------
//
// The paper's Q1-Q6 are mutated ~1k ways (truncation, character edits,
// token deletion/duplication/shuffling, cross-query splices) and fed
// through the whole Query pipeline. The invariant is total behavior:
// every variant returns a Status — ok for the occasional still-valid
// mutant, a parse/type error otherwise — and never crashes or hangs.

const std::vector<std::string>& PaperQueries() {
  static const std::vector<std::string>& qs = *new std::vector<std::string>{
      // Q1..Q6 from bench/bench_util.h's paper mix, inlined so the
      // test does not depend on bench headers.
      "select tuple (t: a.title, f_author: first(a.authors)) "
      "from a in Articles, s in a.sections "
      "where s.title contains (\"SGML\" or \"query\")",
      "select text(ss) from a in Articles, s in a.sections, "
      "ss in s.subsectns where ss contains (\"complex\" and \"object\")",
      "select t from doc0 .. title(t)",
      "doc0 PATH_p - doc0 PATH_q",
      "select name(ATT_a) from doc0 PATH_p.ATT_a(val) "
      "where val contains (\"final\")",
      "select a from a in Articles, "
      "i in positions(a, \"abstract\"), "
      "j in positions(a, \"sections\") where i < j",
  };
  return qs;
}

std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (c == ' ') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

std::string Join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

std::string MutateStatement(const std::string& base, std::mt19937& rng) {
  auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  switch (pick(7)) {
    case 0:  // truncate
      return base.substr(0, pick(base.size() + 1));
    case 1: {  // delete one character
      std::string s = base;
      if (!s.empty()) s.erase(pick(s.size()), 1);
      return s;
    }
    case 2: {  // replace one character with a random printable one
      std::string s = base;
      if (!s.empty()) s[pick(s.size())] = static_cast<char>(32 + pick(95));
      return s;
    }
    case 3: {  // swap two characters
      std::string s = base;
      if (s.size() >= 2) std::swap(s[pick(s.size())], s[pick(s.size())]);
      return s;
    }
    case 4: {  // drop one token
      std::vector<std::string> tokens = Tokenize(base);
      if (!tokens.empty()) tokens.erase(tokens.begin() + pick(tokens.size()));
      return Join(tokens);
    }
    case 5: {  // duplicate one token in place
      std::vector<std::string> tokens = Tokenize(base);
      if (!tokens.empty()) {
        size_t i = pick(tokens.size());
        tokens.insert(tokens.begin() + i, tokens[i]);
      }
      return Join(tokens);
    }
    default: {  // splice: head of this query + tail of another
      const std::vector<std::string>& qs = PaperQueries();
      std::vector<std::string> head = Tokenize(base);
      std::vector<std::string> tail = Tokenize(qs[pick(qs.size())]);
      head.resize(pick(head.size() + 1));
      if (!tail.empty()) tail.erase(tail.begin(), tail.begin() + pick(tail.size()));
      for (std::string& t : tail) head.push_back(std::move(t));
      return Join(head);
    }
  }
}

TEST(OqlFuzzProperty, MutatedStatementsAlwaysReturnStatus) {
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  ASSERT_TRUE(store.LoadDocument(sgml::ArticleDocumentText(), "doc0").ok());
  std::mt19937 rng(0x5361'6d70);  // fixed seed: failures reproduce
  size_t still_valid = 0, rejected = 0;
  constexpr int kVariantsPerQuery = 170;  // x 6 queries ~ 1k statements
  for (const std::string& base : PaperQueries()) {
    for (int i = 0; i < kVariantsPerQuery; ++i) {
      std::string mutant = MutateStatement(base, rng);
      for (oql::Engine engine :
           {oql::Engine::kNaive, oql::Engine::kAlgebraic}) {
        DocumentStore::QueryOptions options;
        options.engine = engine;
        // A bounded statement cannot hang either: any mutant that
        // still executes runs under a step budget.
        options.max_steps = 1'000'000;
        Result<om::Value> r = store.Query(mutant, options);
        if (r.ok()) {
          ++still_valid;
        } else {
          EXPECT_FALSE(r.status().ToString().empty());
          ++rejected;
        }
      }
    }
  }
  // The sweep exercised both outcomes: mutants overwhelmingly fail,
  // but identity-ish mutations (e.g. truncate at full length) pass.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(still_valid, 0u);
}

}  // namespace
}  // namespace sgmlqdb
