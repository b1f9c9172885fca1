// Durability of the ranked-retrieval statistics: the BM25 corpus
// stats are not persisted — they are rebuilt incrementally while
// recovery replays documents through the same LoadDocument /
// IngestSession paths live ingestion uses — so a store recovered from
// checkpoint + WAL tail must produce byte-identical ranked,
// aggregated and ordered results to the live store it crashed from,
// at every shard count.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_store.h"
#include "rank/corpus_stats.h"
#include "service/query_service.h"
#include "sgml/goldens.h"
#include "wal/manager.h"
#include "../wal/wal_test_util.h"

namespace sgmlqdb::rank {
namespace {

constexpr size_t kDocs = 10;

const std::vector<std::string>& RankedWorkload() {
  static const std::vector<std::string> queries = {
      "rank(Articles by (\"sgml\" and \"query\")) limit 5",
      "rank(Articles by (\"object\" or \"algebra\"))",
      "select count(a) from a in Articles, a .. status(v) group by v",
      "select count(a) from a in Articles, a PATH_p.title(t) "
      "group by length(PATH_p)",
      "select a from a in Articles order by a desc",
  };
  return queries;
}

std::map<std::string, std::string> RankImage(ShardedStore& store) {
  service::QueryService::Options options;
  options.num_threads = 2;
  options.branch_threads = 2;
  service::QueryService service(store, options);
  std::map<std::string, std::string> out;
  for (const std::string& q : RankedWorkload()) {
    for (oql::Engine engine : {oql::Engine::kNaive, oql::Engine::kAlgebraic}) {
      service::QueryService::QueryOptions qo;
      qo.engine = engine;
      Result<om::Value> r = service.ExecuteSync(q, qo);
      const std::string key =
          q + (engine == oql::Engine::kNaive ? "#naive" : "#algebraic");
      out[key] = r.ok() ? r->ToString() : r.status().ToString();
    }
  }
  return out;
}

std::unique_ptr<ShardedStore> Open(const std::string& dir, size_t shards) {
  wal::Options options;
  options.data_dir = dir;
  auto opened = ShardedStore::OpenOrRecover(options, shards);
  EXPECT_TRUE(opened.ok()) << opened.status();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

TEST(RankRecoveryTest, CheckpointPlusTailReproducesRankedResults) {
  const std::vector<std::string> corpus = wal::TestCorpus(kDocs + 2);
  std::map<std::string, std::string> parity;  // across shard counts
  for (size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    wal::TempDir dir;
    ASSERT_TRUE(dir.ok());
    std::map<std::string, std::string> live;
    uint64_t live_tokens = 0;
    size_t live_docs = 0;
    {
      auto store = Open(dir.path(), shards);
      ASSERT_NE(store, nullptr);
      ASSERT_TRUE(store->LoadDtd(sgml::ArticleDtdText()).ok());
      for (size_t i = 0; i < kDocs; ++i) {
        ASSERT_TRUE(
            store->LoadDocument(corpus[i], "doc" + std::to_string(i)).ok());
      }
      store->Freeze();
      // Checkpoint, then keep mutating: the recovered stats must
      // combine the checkpointed corpus with the replayed WAL tail.
      ASSERT_TRUE(store->Checkpoint().ok());
      auto b1 = store->Ingest(
          {DocMutation::Load(corpus[kDocs], "post-ckpt"),
           DocMutation::Remove("doc1")});
      ASSERT_TRUE(b1.ok()) << b1.status();
      auto b2 = store->Ingest(
          {DocMutation::Replace("doc2", corpus[kDocs + 1])});
      ASSERT_TRUE(b2.ok()) << b2.status();
      live = RankImage(*store);
      for (size_t i = 0; i < shards; ++i) {
        live_tokens += store->shard(i).rank_stats().total_tokens();
        live_docs += store->shard(i).rank_stats().doc_count();
      }
    }  // dropped without a shutdown checkpoint: the crash

    auto back = Open(dir.path(), shards);
    ASSERT_NE(back, nullptr);
    ASSERT_TRUE(back->wal()->recovery_stats().recovered);
    EXPECT_EQ(back->wal()->recovery_stats().wal_batches_replayed, 2u);

    // The rebuilt statistics match the live ones integer-for-integer
    // (same documents, same tokenization) ...
    uint64_t recovered_tokens = 0;
    size_t recovered_docs = 0;
    for (size_t i = 0; i < shards; ++i) {
      recovered_tokens += back->shard(i).rank_stats().total_tokens();
      recovered_docs += back->shard(i).rank_stats().doc_count();
    }
    EXPECT_EQ(recovered_tokens, live_tokens);
    EXPECT_EQ(recovered_docs, live_docs);

    // ... so every ranked/aggregated/ordered rendering is
    // byte-identical, live vs recovered, on both engines ...
    const std::map<std::string, std::string> recovered = RankImage(*back);
    EXPECT_EQ(recovered, live);

    // ... and across shard counts.
    for (const auto& [key, rendered] : recovered) {
      auto [it, inserted] = parity.emplace(key, rendered);
      if (!inserted) {
        EXPECT_EQ(rendered, it->second)
            << key << " diverged at shards=" << shards;
      }
    }
  }
}

}  // namespace
}  // namespace sgmlqdb::rank
