#include "ingest/ingest_session.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "core/document_store.h"
#include "corpus/generator.h"
#include "ingest/snapshot.h"
#include "sgml/goldens.h"

namespace sgmlqdb {
namespace {

using ingest::IngestSession;

size_t CountArticles(const DocumentStore& store) {
  auto r = store.Query("select a from a in Articles");
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->size() : 0;
}

/// Loads the golden article as "doc0" (+ optional generated corpus)
/// and freezes. The store is not movable, so the caller owns it.
void FillFrozenStore(DocumentStore& store, size_t extra_articles = 0) {
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  ASSERT_TRUE(store.LoadDocument(sgml::ArticleDocumentText(), "doc0").ok());
  if (extra_articles > 0) {
    for (const std::string& article :
         corpus::GenerateCorpus(extra_articles, corpus::ArticleParams{})) {
      ASSERT_TRUE(store.LoadDocument(article).ok());
    }
  }
  store.Freeze();
}

TEST(IngestTest, BeginIngestRequiresFreeze) {
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  auto session = store.BeginIngest();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  store.Freeze();
  EXPECT_TRUE(store.BeginIngest().ok());
}

TEST(IngestTest, LoadDocumentRejectedAfterFreeze) {
  DocumentStore store;
  FillFrozenStore(store);
  auto r = store.LoadDocument(sgml::ArticleDocumentV2Text());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(IngestTest, SingleWriterEnforced) {
  DocumentStore store;
  FillFrozenStore(store);
  auto first = store.BeginIngest();
  ASSERT_TRUE(first.ok());
  auto second = store.BeginIngest();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  // Abandoning the session (destruction without publish) releases the
  // writer latch and leaves the store untouched.
  const uint64_t epoch_before = store.epoch();
  ASSERT_TRUE((*first)->LoadDocument(sgml::ArticleDocumentV2Text()).ok());
  first->reset();
  EXPECT_EQ(store.epoch(), epoch_before);
  EXPECT_EQ(CountArticles(store), 1u);
  EXPECT_TRUE(store.BeginIngest().ok());
}

TEST(IngestTest, LoadPublishesNextEpoch) {
  DocumentStore store;
  FillFrozenStore(store);
  const uint64_t epoch_before = store.epoch();
  ASSERT_EQ(CountArticles(store), 1u);

  auto session = store.BeginIngest();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      (*session)->LoadDocument(sgml::ArticleDocumentV2Text(), "doc1").ok());
  // Nothing visible until publish.
  EXPECT_EQ(CountArticles(store), 1u);
  auto epoch = store.PublishIngest(std::move(*session));
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_GT(*epoch, epoch_before);
  EXPECT_EQ(store.epoch(), *epoch);
  EXPECT_EQ(CountArticles(store), 2u);
  EXPECT_EQ(store.document_count(), 2u);
  // The new document is queryable by its fresh persistence name.
  auto titled = store.Query("select t from doc1 .. title(t)");
  ASSERT_TRUE(titled.ok()) << titled.status();
  EXPECT_GT(titled->size(), 0u);
}

TEST(IngestTest, RemoveDocumentDropsEverything) {
  DocumentStore store;
  FillFrozenStore(store);
  // Add a second document so Articles stays non-empty after removal.
  {
    auto session = store.BeginIngest();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(
        (*session)->LoadDocument(sgml::ArticleDocumentV2Text(), "doc1").ok());
    ASSERT_TRUE(store.PublishIngest(std::move(*session)).ok());
  }
  ASSERT_EQ(CountArticles(store), 2u);
  auto doc0 = store.db().LookupName("doc0");
  ASSERT_TRUE(doc0.ok());
  const om::ObjectId root0 = doc0->AsObject();
  const size_t units_before = store.text_index().unit_count();

  auto session = store.BeginIngest();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->RemoveDocument("doc0").ok());
  // Removing it twice inside one session fails cleanly.
  EXPECT_EQ((*session)->RemoveDocument("doc0").code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.PublishIngest(std::move(*session)).ok());

  EXPECT_EQ(CountArticles(store), 1u);
  EXPECT_EQ(store.document_count(), 1u);
  // Name unbound, text gone, index shrunk by the removed doc's units.
  EXPECT_FALSE(store.db().LookupName("doc0").ok());
  EXPECT_FALSE(store.TextOf(root0).ok());
  EXPECT_LT(store.text_index().unit_count(), units_before);
  // The removed document's text no longer matches anywhere: only V1
  // has the "SGML preliminaries" section.
  auto hits = store.Query(
      "select s from a in Articles, s in a.sections "
      "where s.title contains (\"preliminaries\")");
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_EQ(hits->size(), 0u);
}

TEST(IngestTest, ReplaceDocumentSwapsContentUnderSameName) {
  DocumentStore store;
  FillFrozenStore(store);
  auto old_root = store.db().LookupName("doc0");
  ASSERT_TRUE(old_root.ok());

  auto session = store.BeginIngest();
  ASSERT_TRUE(session.ok());
  auto new_root =
      (*session)->ReplaceDocument("doc0", sgml::ArticleDocumentV2Text());
  ASSERT_TRUE(new_root.ok()) << new_root.status();
  EXPECT_EQ((*session)->stats().docs_replaced, 1u);
  EXPECT_EQ((*session)->stats().docs_loaded, 0u);
  EXPECT_EQ((*session)->stats().docs_removed, 0u);
  ASSERT_TRUE(store.PublishIngest(std::move(*session)).ok());

  EXPECT_EQ(CountArticles(store), 1u);
  auto bound = store.db().LookupName("doc0");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->AsObject(), new_root.value());
  EXPECT_NE(new_root.value(), old_root->AsObject());  // oids never reused
  // V2 dropped a section relative to V1 (2 -> 1).
  auto sections = store.Query("select s from s in doc0.sections");
  ASSERT_TRUE(sections.ok()) << sections.status();
  EXPECT_EQ(sections->size(), 1u);
}

TEST(IngestTest, ReplaceUnknownNameFails) {
  DocumentStore store;
  FillFrozenStore(store);
  auto session = store.BeginIngest();
  ASSERT_TRUE(session.ok());
  auto r = (*session)->ReplaceDocument("nope", sgml::ArticleDocumentV2Text());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// The acceptance check for incremental maintenance: ingesting one
// document into a 200-article corpus tokenizes only that document's
// units — the maintenance counters grow by the new document, not by a
// rebuild of the corpus.
TEST(IngestTest, IncrementalIndexMaintenanceNoRebuild) {
  DocumentStore store;
  FillFrozenStore(store, /*extra_articles=*/200);
  const text::IndexMaintenanceStats before =
      store.text_index().maintenance_stats();
  ASSERT_GT(before.units_added, 200u);

  auto session = store.BeginIngest();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      (*session)->LoadDocument(sgml::ArticleDocumentV2Text(), "extra").ok());
  const uint64_t new_units = (*session)->stats().units_added;
  ASSERT_TRUE(store.PublishIngest(std::move(*session)).ok());

  const text::IndexMaintenanceStats after =
      store.text_index().maintenance_stats();
  // Exactly the new document's units were tokenized and added; a full
  // rebuild would have re-added every one of the corpus's thousands.
  EXPECT_EQ(after.units_added - before.units_added, new_units);
  EXPECT_GT(new_units, 0u);
  EXPECT_LT(new_units, 100u);
  EXPECT_EQ(after.units_removed, before.units_removed);
}

TEST(IngestTest, RemovalCostProportionalToRemovedDocument) {
  // The same document removed from a small and an 8x larger store: the
  // postings the splices re-encode stay bounded by the terms the
  // document touches, not by how long the store made their lists.
  std::vector<uint64_t> rewritten;
  for (const size_t extra : {size_t{50}, size_t{400}}) {
    SCOPED_TRACE(testing::Message() << extra << " extra articles");
    DocumentStore store;
    FillFrozenStore(store, extra);
    const text::IndexMaintenanceStats before =
        store.text_index().maintenance_stats();

    auto session = store.BeginIngest();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->RemoveDocument("doc0").ok());
    const uint64_t removed_units = (*session)->stats().units_removed;
    ASSERT_TRUE(store.PublishIngest(std::move(*session)).ok());

    const text::IndexMaintenanceStats after =
        store.text_index().maintenance_stats();
    EXPECT_EQ(after.units_removed - before.units_removed, removed_units);
    EXPECT_EQ(after.units_added, before.units_added);  // nothing re-added
    // Copy-on-write touched only the removed document's terms, a small
    // slice of the corpus vocabulary — each once.
    const uint64_t terms_touched = after.term_copies - before.term_copies;
    EXPECT_GT(terms_touched, 0u);
    EXPECT_LT(terms_touched, store.text_index().term_count());
    const uint64_t postings_rewritten =
        after.postings_rewritten - before.postings_rewritten;
    EXPECT_LE(postings_rewritten,
              3 * text::CompressedPostings::kBlockPostings * terms_touched);
    rewritten.push_back(postings_rewritten);
  }
  // Does not grow with the store: 8x the articles, the same work up to
  // where the block boundaries next to the document fall.
  EXPECT_LE(rewritten[1], rewritten[0] + rewritten[0] / 10);
}

TEST(IngestTest, EpochKeyedCacheDropsStaleEntriesLazily) {
  DocumentStore store;
  FillFrozenStore(store);
  // Warm the text cache at the frozen epoch.
  auto warm = store.Query(
      "select a from a in Articles where a.title contains (\"SGML\")",
      oql::Engine::kAlgebraic);
  ASSERT_TRUE(warm.ok()) << warm.status();
  const auto warm_stats = store.text_cache_stats();
  EXPECT_GT(warm_stats.misses, 0u);

  // Re-running at the same epoch hits.
  ASSERT_TRUE(store
                  .Query("select a from a in Articles where a.title "
                         "contains (\"SGML\")",
                         oql::Engine::kAlgebraic)
                  .ok());
  EXPECT_GT(store.text_cache_stats().hits, warm_stats.hits);

  // Publish a new epoch; no reader pins the old snapshot, so the next
  // cache access sweeps the retired entries and recomputes.
  auto session = store.BeginIngest();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      (*session)->LoadDocument(sgml::ArticleDocumentV2Text(), "doc1").ok());
  ASSERT_TRUE(store.PublishIngest(std::move(*session)).ok());
  auto after = store.Query(
      "select a from a in Articles where a.title contains (\"SGML\")",
      oql::Engine::kAlgebraic);
  ASSERT_TRUE(after.ok()) << after.status();
  const auto swept_stats = store.text_cache_stats();
  EXPECT_GT(swept_stats.stale_drops, 0u);
}

TEST(IngestTest, ApplyFaultLeavesPublishedStoreUntouched) {
  DocumentStore store;
  FillFrozenStore(store);
  const uint64_t epoch_before = store.epoch();
  {
    fault::ScopedFault f("ingest.apply", {});
    auto session = store.BeginIngest();
    ASSERT_TRUE(session.ok());
    auto r = (*session)->LoadDocument(sgml::ArticleDocumentV2Text());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    EXPECT_GE(fault::FireCount("ingest.apply"), 1u);
    // Discard the failed session.
  }
  EXPECT_EQ(store.epoch(), epoch_before);
  EXPECT_EQ(CountArticles(store), 1u);
}

TEST(IngestTest, PublishFaultLeavesPublishedStoreUntouched) {
  DocumentStore store;
  FillFrozenStore(store);
  const uint64_t epoch_before = store.epoch();
  auto session = store.BeginIngest();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->LoadDocument(sgml::ArticleDocumentV2Text()).ok());
  {
    fault::ScopedFault f("ingest.publish", {});
    auto r = store.PublishIngest(std::move(*session));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  }
  EXPECT_EQ(store.epoch(), epoch_before);
  EXPECT_EQ(CountArticles(store), 1u);
}

TEST(IngestTest, SnapshotStatsTrackPinsAndPublishes) {
  DocumentStore store;
  FillFrozenStore(store);
  auto s0 = store.snapshot();
  ingest::SnapshotManager::Stats stats = store.snapshot_stats();
  EXPECT_EQ(stats.publishes, 1u);  // Freeze() is the first publish
  EXPECT_EQ(stats.live_snapshots, 1u);
  EXPECT_GE(stats.current_refcount, 2);  // manager + s0

  auto session = store.BeginIngest();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->LoadDocument(sgml::ArticleDocumentV2Text()).ok());
  ASSERT_TRUE(store.PublishIngest(std::move(*session)).ok());

  // The pinned old snapshot keeps its epoch alive.
  stats = store.snapshot_stats();
  EXPECT_EQ(stats.publishes, 2u);
  EXPECT_EQ(stats.live_snapshots, 2u);
  EXPECT_EQ(stats.min_live_epoch, s0->epoch);
  // Dropping the pin retires the old epoch.
  const uint64_t old_epoch = s0->epoch;
  s0.reset();
  stats = store.snapshot_stats();
  EXPECT_EQ(stats.live_snapshots, 1u);
  EXPECT_GT(stats.min_live_epoch, old_epoch);
}

TEST(IngestTest, PreFreezeLoadsAdvanceEpochForCacheFreshness) {
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  ASSERT_TRUE(store.LoadDocument(sgml::ArticleDocumentText(), "doc0").ok());
  const uint64_t e1 = store.epoch();
  // A query caches its candidate set at e1...
  auto first = store.Query(
      "select a from a in Articles where a.title contains (\"Documents\")",
      oql::Engine::kAlgebraic);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->size(), 1u);
  // ...and a further load retires it, so the same query recomputes
  // against the grown index instead of reusing the stale set.
  ASSERT_TRUE(store.LoadDocument(sgml::ArticleDocumentV2Text()).ok());
  EXPECT_GT(store.epoch(), e1);
  auto r = store.Query(
      "select a from a in Articles where a.title contains (\"Documents\")",
      oql::Engine::kAlgebraic);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 2u);
}

}  // namespace
}  // namespace sgmlqdb
