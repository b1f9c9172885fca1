// The ranked/aggregate parity matrix: every rank, group-by and
// order-by statement must render byte-identically across shard counts
// {1, 2, 4} and across both engines — and the naive single-shard
// execution is the independent ground truth (its rank path is a
// brute-force scan that tokenizes every document's text; the
// algebraic path probes the compressed postings through galloping
// cursors and a bounded k-heap; per-shard partials merge at the
// gather site against cross-shard global BM25 statistics).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_store.h"
#include "corpus/generator.h"
#include "corpus/workload.h"
#include "service/query_service.h"
#include "sgml/goldens.h"

namespace sgmlqdb::rank {
namespace {

constexpr size_t kCorpusDocs = 18;

std::unique_ptr<ShardedStore> MakeSharded(size_t shards) {
  auto store = std::make_unique<ShardedStore>(shards);
  EXPECT_TRUE(store->LoadDtd(sgml::ArticleDtdText()).ok());
  corpus::ArticleParams params;
  params.seed = 97;
  params.sections = 3;
  params.bodies_per_section = 2;
  params.words_per_paragraph = 14;
  const std::vector<std::string> docs =
      corpus::GenerateCorpus(kCorpusDocs, params);
  for (size_t i = 0; i < docs.size(); ++i) {
    auto root = store->LoadDocument(docs[i], "doc" + std::to_string(i));
    EXPECT_TRUE(root.ok()) << root.status();
  }
  return store;
}

const std::vector<std::string>& RankWorkload() {
  static const std::vector<std::string>& queries = *new std::vector<
      std::string>{
      // Ranked retrieval: and/or patterns, limited and full-sort.
      "rank(Articles by (\"sgml\" and \"query\")) limit 5",
      "rank(Articles by (\"object\" or \"algebra\")) limit 3",
      "rank(Articles by (\"sgml\"))",
      "rank(Articles by (\"sgml\" and \"query\")) limit 1000",
      // Group-by aggregates over the whole corpus.
      "select count(a) from a in Articles, a .. status(v) group by v",
      "select count(s) from a in Articles, s in a.sections, "
      "a .. status(v) group by v",
      "select min(a) from a in Articles, a .. status(v) group by v",
      "select max(s) from a in Articles, s in a.sections, "
      "a .. status(v) group by v",
      // Tracked paths through list indices and derefs: grouped by a
      // path function, and a path-valued head on one document.
      "select count(a) from a in Articles, a PATH_p.title(t) "
      "group by length(PATH_p)",
      "select count(a) from a in Articles, a .. caption(c) group by a",
      "select PATH_p from doc3 PATH_p.reflabel(r)",
      // Order-by, both directions (oid order == document order).
      "select a from a in Articles order by a",
      "select a from a in Articles order by a desc",
      "select s.title from a in Articles, s in a.sections, "
      "a .. status(v) order by v",
  };
  return queries;
}

TEST(RankParityTest, ByteIdenticalAcrossShardCountsAndEngines) {
  // key -> (rendering, where it was first seen). The naive 1-shard
  // run executes first, so every later configuration is compared
  // against the brute-force ground truth.
  std::map<std::string, std::string> expected;
  for (size_t shards : {1u, 2u, 4u}) {
    auto store = MakeSharded(shards);
    service::QueryService::Options options;
    options.num_threads = 2;
    options.branch_threads = 2;
    service::QueryService service(*store, options);
    for (const std::string& q : RankWorkload()) {
      // naive, algebraic, algebraic with the optimizer off.
      for (int config = 0; config < 3; ++config) {
        service::QueryService::QueryOptions qo;
        qo.engine = config == 0 ? oql::Engine::kNaive : oql::Engine::kAlgebraic;
        qo.optimize = config != 2;
        Result<om::Value> r = service.ExecuteSync(q, qo);
        ASSERT_TRUE(r.ok()) << q << " shards=" << shards << ": " << r.status();
        const std::string rendered = r->ToString();
        auto [it, inserted] = expected.emplace(q, rendered);
        if (!inserted) {
          EXPECT_EQ(rendered, it->second)
              << q << " diverged at shards=" << shards << " config="
              << (config == 0 ? "naive" : config == 1 ? "algebraic"
                                                      : "algebraic-noopt");
        }
      }
    }
  }
}

TEST(RankParityTest, RankedResultsAreNonTrivialAndOrdered) {
  auto store = MakeSharded(2);
  service::QueryService service(*store);
  service::QueryService::QueryOptions qo;
  qo.engine = oql::Engine::kAlgebraic;
  Result<om::Value> r =
      service.ExecuteSync("rank(Articles by (\"sgml\")) limit 4", qo);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->kind(), om::ValueKind::kList);
  ASSERT_GT(r->size(), 0u);
  double prev = 0;
  for (size_t i = 0; i < r->size(); ++i) {
    const om::Value row = r->Element(i);
    ASSERT_EQ(row.kind(), om::ValueKind::kTuple) << row;
    EXPECT_EQ(row.FieldName(0), "doc");
    EXPECT_EQ(row.FieldName(1), "score");
    EXPECT_EQ(row.FieldValue(0).kind(), om::ValueKind::kObject);
    const double score = row.FieldValue(1).AsFloat();
    EXPECT_GT(score, 0.0);
    if (i > 0) {
      EXPECT_LE(score, prev) << "scores not descending at " << i;
    }
    prev = score;
  }
}

TEST(RankParityTest, AvgSumFoldOverSectionCounts) {
  // sum/avg need integer arguments: fold position indices, which the
  // positions() builtin supplies, and check parity across shards.
  std::map<std::string, std::string> expected;
  const std::string q =
      "select sum(i) from a in Articles, "
      "i in positions(a, \"sections\"), a .. status(v) group by v";
  const std::string q_avg =
      "select avg(i) from a in Articles, "
      "i in positions(a, \"sections\"), a .. status(v) group by v";
  for (size_t shards : {1u, 2u, 4u}) {
    auto store = MakeSharded(shards);
    service::QueryService service(*store);
    for (const std::string& stmt : {q, q_avg}) {
      for (oql::Engine engine :
           {oql::Engine::kNaive, oql::Engine::kAlgebraic}) {
        service::QueryService::QueryOptions qo;
        qo.engine = engine;
        Result<om::Value> r = service.ExecuteSync(stmt, qo);
        ASSERT_TRUE(r.ok()) << stmt << " shards=" << shards << ": "
                            << r.status();
        auto [it, inserted] = expected.emplace(stmt, r->ToString());
        if (!inserted) {
          EXPECT_EQ(r->ToString(), it->second)
              << stmt << " diverged at shards=" << shards;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sgmlqdb::rank
