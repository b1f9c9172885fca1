// E13 — live ingestion: writer-side throughput (one document per
// publish into an already-serving corpus) and the reader-side cost of
// concurrent ingestion (query p99 while a writer continuously
// replaces a document vs. the frozen baseline). The acceptance bar is
// reader p99 during ingest within ~1.2x of the frozen p99 — snapshot
// pinning means readers never wait on a publish.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/query_service.h"

namespace {

using sgmlqdb::DocumentStore;
using sgmlqdb::Result;
using sgmlqdb::bench::PaperQueryText;
using sgmlqdb::service::QueryService;

/// Articles disjoint from the base corpus (separate seed), cycled by
/// the writer.
const std::vector<std::string>& LiveArticles() {
  static auto& articles = *new std::vector<std::string>([] {
    sgmlqdb::corpus::ArticleParams params;
    params.seed = 9001;
    return sgmlqdb::corpus::GenerateCorpus(64, params);
  }());
  return articles;
}

/// A fresh frozen store (the ingest benches mutate state, so the
/// memoized bench_util corpus cache cannot be shared here).
std::unique_ptr<DocumentStore> FreshStore(size_t articles) {
  auto store = std::make_unique<DocumentStore>();
  if (!store->LoadDtd(sgmlqdb::sgml::ArticleDtdText()).ok()) std::abort();
  sgmlqdb::corpus::ArticleParams params;
  params.sections = 4;
  params.subsection_prob = 0.3;
  params.figure_prob = 0.15;
  bool first = true;
  for (const std::string& article :
       sgmlqdb::corpus::GenerateCorpus(articles, params)) {
    if (!store->LoadDocument(article, first ? "doc0" : "").ok()) std::abort();
    first = false;
  }
  store->Freeze();
  return store;
}

/// Writer-side throughput: each iteration replaces the "live"
/// document and publishes a new epoch (remove + load + snapshot
/// swap). The corpus size stays constant, so iterations are i.i.d.
void BM_IngestReplacePublish(benchmark::State& state) {
  std::unique_ptr<DocumentStore> store = FreshStore(state.range(0));
  {
    auto session = store->BeginIngest();
    if (!session.ok() ||
        !(*session)->LoadDocument(LiveArticles()[0], "live").ok() ||
        !store->PublishIngest(std::move(*session)).ok()) {
      state.SkipWithError("seed ingest failed");
      return;
    }
  }
  const auto before = store->text_index().maintenance_stats();
  size_t i = 1;
  uint64_t publishes = 0;
  for (auto _ : state) {
    auto session = store->BeginIngest();
    if (!session.ok() ||
        !(*session)
             ->ReplaceDocument("live",
                               LiveArticles()[i++ % LiveArticles().size()])
             .ok() ||
        !store->PublishIngest(std::move(*session)).ok()) {
      state.SkipWithError("ingest failed");
      return;
    }
    ++publishes;
  }
  const auto after = store->text_index().maintenance_stats();
  state.counters["publishes_per_s"] =
      benchmark::Counter(static_cast<double>(publishes),
                         benchmark::Counter::kIsRate);
  state.counters["units_per_publish"] = publishes == 0
      ? 0.0
      : static_cast<double>(after.units_added - before.units_added) /
            static_cast<double>(publishes);
  state.counters["publish_us"] =
      static_cast<double>(store->snapshot_stats().last_publish_micros);
  sgmlqdb::bench::ReportPostingsFootprint(state, *store);
}
BENCHMARK(BM_IngestReplacePublish)
    ->Unit(benchmark::kMillisecond)
    ->Arg(50)
    ->Arg(200)
    ->Iterations(60);

/// Removal cost against store size: each iteration opens a session on
/// a 1-shard store, removes one document and publishes (timed), then
/// loads the document again under the same name (untimed), so the
/// store keeps its size. The splice re-encodes only the blocks that
/// held the document, so remove_call_ms (the RemoveDocument call) and
/// postings_rewritten should not grow with the store; session_open_ms,
/// the session's clone of the published state, does.
void BM_IngestRemoveDocument(benchmark::State& state) {
  std::unique_ptr<DocumentStore> store = FreshStore(state.range(0));
  auto load_live = [&] {
    auto session = store->BeginIngest();
    return session.ok() &&
           (*session)->LoadDocument(LiveArticles()[0], "live").ok() &&
           store->PublishIngest(std::move(*session)).ok();
  };
  if (!load_live()) {
    state.SkipWithError("seed ingest failed");
    return;
  }
  uint64_t removals = 0;
  uint64_t rewritten = 0;
  uint64_t removed = 0;
  uint64_t terms = 0;
  std::chrono::steady_clock::duration open{};
  std::chrono::steady_clock::duration remove_call{};
  for (auto _ : state) {
    const auto before = store->text_index().maintenance_stats();
    const auto start = std::chrono::steady_clock::now();
    auto session = store->BeginIngest();
    const auto opened = std::chrono::steady_clock::now();
    const bool removed_ok =
        session.ok() && (*session)->RemoveDocument("live").ok();
    open += opened - start;
    remove_call += std::chrono::steady_clock::now() - opened;
    if (!removed_ok || !store->PublishIngest(std::move(*session)).ok()) {
      state.SkipWithError("remove failed");
      return;
    }
    state.PauseTiming();
    const auto after = store->text_index().maintenance_stats();
    ++removals;
    rewritten += after.postings_rewritten - before.postings_rewritten;
    removed += after.postings_removed - before.postings_removed;
    terms += after.term_copies - before.term_copies;
    if (!load_live()) {
      state.SkipWithError("reload failed");
      return;
    }
    state.ResumeTiming();
  }
  const double n = removals == 0 ? 1.0 : static_cast<double>(removals);
  state.counters["articles"] = static_cast<double>(state.range(0));
  state.counters["postings_rewritten_per_removal"] =
      static_cast<double>(rewritten) / n;
  state.counters["postings_removed_per_removal"] =
      static_cast<double>(removed) / n;
  state.counters["terms_per_removal"] = static_cast<double>(terms) / n;
  state.counters["session_open_ms"] =
      std::chrono::duration<double, std::milli>(open).count() / n;
  state.counters["remove_call_ms"] =
      std::chrono::duration<double, std::milli>(remove_call).count() / n;
}
BENCHMARK(BM_IngestRemoveDocument)
    ->Unit(benchmark::kMillisecond)
    ->Arg(100)
    ->Arg(400)
    ->Iterations(40);

constexpr const char* kReaderQuery = "Q1_TitleAndFirstAuthor";

void RunReaderLoop(benchmark::State& state, QueryService& service) {
  const std::string query = PaperQueryText(kReaderQuery);
  QueryService::QueryOptions qo;
  qo.engine = sgmlqdb::oql::Engine::kAlgebraic;
  for (auto _ : state) {
    Result<sgmlqdb::om::Value> r = service.ExecuteSync(query, qo);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->size());
  }
  const sgmlqdb::service::QueryStats qs = service.stats().Snapshot(query);
  state.counters["p99_us"] =
      static_cast<double>(qs.latency.QuantileUpperBound(0.99));
  state.counters["p50_us"] =
      static_cast<double>(qs.latency.QuantileUpperBound(0.5));
}

/// Reader baseline: the frozen store, no writer.
void BM_ReaderLatencyFrozen(benchmark::State& state) {
  std::unique_ptr<DocumentStore> store = FreshStore(state.range(0));
  QueryService::Options options;
  options.num_threads = 2;
  QueryService service(*store, options);
  RunReaderLoop(state, service);
  sgmlqdb::bench::ReportPostingsFootprint(state, *store);
  service.Shutdown();
}
BENCHMARK(BM_ReaderLatencyFrozen)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(50)
    ->Arg(200)
    ->Iterations(400);

/// Readers racing a paced writer: the same query loop while a
/// background thread replaces the "live" document and publishes at
/// ~100 publishes/s (a heavy but realistic ingest rate; back-to-back
/// publishing would just measure CPU contention on small machines).
/// Snapshot pinning keeps readers wait-free; the only legitimate
/// overhead is recomputing epoch-keyed cache entries.
void BM_ReaderLatencyDuringIngest(benchmark::State& state) {
  std::unique_ptr<DocumentStore> store = FreshStore(state.range(0));
  QueryService::Options options;
  options.num_threads = 2;
  QueryService service(*store, options);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> publishes{0};
  std::thread writer([&] {
    size_t i = 0;
    bool seeded = false;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string& article = LiveArticles()[i++ % LiveArticles().size()];
      auto epoch = service.Ingest(
          {seeded ? QueryService::IngestOp::Replace("live", article)
                  : QueryService::IngestOp::Load(article, "live")});
      if (!epoch.ok()) break;
      seeded = true;
      publishes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  RunReaderLoop(state, service);
  stop.store(true, std::memory_order_release);
  writer.join();
  state.counters["publishes"] =
      static_cast<double>(publishes.load());
  sgmlqdb::bench::ReportPostingsFootprint(state, *store);
  service.Shutdown();
}
BENCHMARK(BM_ReaderLatencyDuringIngest)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(50)
    ->Arg(200)
    ->Iterations(400);

// E16 — parallel ingest apply vs shard count. Each iteration submits
// ONE batch replacing 8 resident documents through the service; the
// sharded facade routes every op to its home shard, applies the
// per-shard sessions in parallel on the branch pool, and publishes
// the cross-shard epoch vector atomically. The 8 documents were
// loaded with consecutive sequence numbers, so round-robin placement
// spreads them over min(8, shards) shards: at 1 shard the batch
// applies serially, at 8 every shard indexes one document
// concurrently. Corpus size stays constant, so iterations are i.i.d.
// On a single-core host the series is flat — the honest shape.
constexpr size_t kShardedBatchDocs = 8;

std::unique_ptr<sgmlqdb::ShardedStore> FreshShardedStore(size_t articles,
                                                         size_t shards) {
  auto store = std::make_unique<sgmlqdb::ShardedStore>(shards);
  if (!store->LoadDtd(sgmlqdb::sgml::ArticleDtdText()).ok()) std::abort();
  sgmlqdb::corpus::ArticleParams params;
  params.sections = 4;
  params.subsection_prob = 0.3;
  params.figure_prob = 0.15;
  for (size_t i = 0; i < articles; ++i) {
    if (!store
             ->LoadDocument(sgmlqdb::corpus::GenerateCorpusArticle(i, params),
                            i == 0 ? "doc0" : "")
             .ok()) {
      std::abort();
    }
  }
  // The live documents land on consecutive shards (consecutive global
  // sequence numbers under round-robin placement).
  for (size_t i = 0; i < kShardedBatchDocs; ++i) {
    if (!store
             ->LoadDocument(LiveArticles()[i % LiveArticles().size()],
                            "live" + std::to_string(i))
             .ok()) {
      std::abort();
    }
  }
  store->Freeze();
  return store;
}

void RunShardedIngest(benchmark::State& state, size_t articles) {
  const size_t shards = static_cast<size_t>(state.range(0));
  std::unique_ptr<sgmlqdb::ShardedStore> store =
      FreshShardedStore(articles, shards);
  QueryService::Options options;
  options.num_threads = 1;
  QueryService service(*store, options);
  size_t next = 0;
  uint64_t batches = 0;
  for (auto _ : state) {
    std::vector<QueryService::IngestOp> batch;
    batch.reserve(kShardedBatchDocs);
    for (size_t i = 0; i < kShardedBatchDocs; ++i) {
      batch.push_back(QueryService::IngestOp::Replace(
          "live" + std::to_string(i),
          LiveArticles()[next++ % LiveArticles().size()]));
    }
    auto v = service.Ingest(batch);
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    ++batches;
  }
  state.counters["articles"] = static_cast<double>(articles);
  state.counters["batches_per_s"] = benchmark::Counter(
      static_cast<double>(batches), benchmark::Counter::kIsRate);
  state.counters["docs_per_s"] = benchmark::Counter(
      static_cast<double>(batches * kShardedBatchDocs),
      benchmark::Counter::kIsRate);
  sgmlqdb::bench::ReportShardedFootprint(state, *store);
  service.Shutdown();
}

void RegisterSharded(size_t articles, const std::vector<size_t>& shards) {
  const size_t n = articles > 0 ? articles : 200;
  auto* bench = ::benchmark::RegisterBenchmark(
      "BM_ShardedIngestPublish",
      [n](benchmark::State& state) { RunShardedIngest(state, n); });
  for (size_t s : shards) bench->Arg(static_cast<int64_t>(s));
  // Replace-apply cost grows with per-shard posting-list length, so a
  // 1-shard batch at 10^4+ articles runs seconds; scale the iteration
  // count down with corpus size to keep big sweeps bounded.
  bench->Unit(benchmark::kMillisecond)
      ->Iterations(n <= 1000 ? 40 : n <= 20000 ? 6 : 3)
      ->UseRealTime();
}

}  // namespace

int main(int argc, char** argv) {
  return sgmlqdb::bench::RunBenchmarks(argc, argv, nullptr, RegisterSharded);
}
