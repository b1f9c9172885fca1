// E2 — the paper's example queries Q1..Q6, plus the serving mix's
// ranked (Q7) and group-by (Q8) statements, over synthetic corpora of
// increasing size (reference engine). Regenerates the "the language
// answers the paper's queries" evidence; latency scaling is the
// measured series. Query texts live in bench_util.h (PaperQueryMix),
// shared with the service throughput benchmark.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "service/query_service.h"

namespace sgmlqdb::bench {
namespace {

void RunQuery(benchmark::State& state, const std::string& query,
              const DocumentStore::QueryOptions& options = {}) {
  const DocumentStore& store =
      CorpusStore(static_cast<size_t>(state.range(0)), /*sections=*/4);
  size_t rows = 0;
  for (auto _ : state) {
    auto r = store.Query(query, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    rows = r->size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["articles"] = static_cast<double>(state.range(0));
  ReportPostingsFootprint(state, store);
}


void BM_Q1_TitleAndFirstAuthor(benchmark::State& state) {
  RunQuery(state, PaperQueryText("Q1_TitleAndFirstAuthor"));
}
BENCHMARK(BM_Q1_TitleAndFirstAuthor)->Arg(10)->Arg(50)->Arg(200);

void BM_Q2_SubsectionsContaining(benchmark::State& state) {
  RunQuery(state, PaperQueryText("Q2_SubsectionsContaining"));
}
BENCHMARK(BM_Q2_SubsectionsContaining)->Arg(10)->Arg(50)->Arg(200);

void BM_Q3_AllTitlesOfOneDocument(benchmark::State& state) {
  RunQuery(state, PaperQueryText("Q3_AllTitlesOfOneDocument"));
}
BENCHMARK(BM_Q3_AllTitlesOfOneDocument)->Arg(10)->Arg(50)->Arg(200);

void BM_Q4_StructuralDiff(benchmark::State& state) {
  // doc0 against itself exercises the full double enumeration.
  RunQuery(state, PaperQueryText("Q4_StructuralDiff"));
}
BENCHMARK(BM_Q4_StructuralDiff)->Arg(10)->Arg(50);

void BM_Q5_AttributeGrep(benchmark::State& state) {
  RunQuery(state, PaperQueryText("Q5_AttributeGrep"));
}
BENCHMARK(BM_Q5_AttributeGrep)->Arg(10)->Arg(50)->Arg(200);

void BM_Q6_PositionComparison(benchmark::State& state) {
  // Position query over the article tuple itself: articles where the
  // abstract precedes the first section in the tuple ordering.
  RunQuery(state, PaperQueryText("Q6_PositionComparison"));
}
BENCHMARK(BM_Q6_PositionComparison)->Arg(10)->Arg(50)->Arg(200);

void BM_Q7_RankedRetrieval(benchmark::State& state) {
  // Naive rank is the brute-force scan: every document is tokenized.
  RunQuery(state, PaperQueryText("Q7_RankedRetrieval"));
}
BENCHMARK(BM_Q7_RankedRetrieval)->Arg(10)->Arg(50)->Arg(200);

void BM_Q8_CountByStatus(benchmark::State& state) {
  RunQuery(state, PaperQueryText("Q8_CountByStatus"));
}
BENCHMARK(BM_Q8_CountByStatus)->Arg(10)->Arg(50)->Arg(200);

// E11 — the text-heavy queries on the algebraic engine, optimizer off
// vs on (index pushdown + filter pushdown + branch pruning). The
// statement is prepared once outside the timing loop — the serving
// regime, where the plan cache amortizes the front half — so the
// series isolates what the rewrites do to execution.

void RunPrepared(benchmark::State& state, const std::string& query,
                 bool optimize) {
  const DocumentStore& store =
      CorpusStore(static_cast<size_t>(state.range(0)), /*sections=*/4);
  oql::OqlOptions opts;
  opts.engine = oql::Engine::kAlgebraic;
  opts.optimize = optimize;
  auto prepared = oql::Prepare(store.schema(), query, opts);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  calculus::EvalContext ctx = store.eval_context();
  size_t rows = 0;
  for (auto _ : state) {
    auto r = oql::ExecutePrepared(ctx, *prepared);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    rows = r->size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["articles"] = static_cast<double>(state.range(0));
  ReportPostingsFootprint(state, store);
}

void BM_Q1_Algebraic_NoOpt(benchmark::State& state) {
  RunPrepared(state, PaperQueryText("Q1_TitleAndFirstAuthor"), false);
}
BENCHMARK(BM_Q1_Algebraic_NoOpt)->Arg(10)->Arg(50)->Arg(200);

void BM_Q1_Algebraic_Opt(benchmark::State& state) {
  RunPrepared(state, PaperQueryText("Q1_TitleAndFirstAuthor"), true);
}
BENCHMARK(BM_Q1_Algebraic_Opt)->Arg(10)->Arg(50)->Arg(200);

// Q1-style contains with a document-selective pattern: the same plan
// shape as Q1 (Articles -> sections -> title contains), but the word
// appears in only ~1 in 8 documents' titles, so the document
// prefilter's pruning is visible. Q1's own pattern matches a quarter
// of the corpus, which caps its best possible speedup near 4x.
constexpr char kQ1SelectiveContains[] =
    "select tuple (t: a.title, f_author: first(a.authors)) "
    "from a in Articles, s in a.sections "
    "where s.title contains (\"recursion\")";

void BM_Q1Selective_Algebraic_NoOpt(benchmark::State& state) {
  RunPrepared(state, kQ1SelectiveContains, false);
}
BENCHMARK(BM_Q1Selective_Algebraic_NoOpt)->Arg(10)->Arg(50)->Arg(200);

void BM_Q1Selective_Algebraic_Opt(benchmark::State& state) {
  RunPrepared(state, kQ1SelectiveContains, true);
}
BENCHMARK(BM_Q1Selective_Algebraic_Opt)->Arg(10)->Arg(50)->Arg(200);

void BM_Q2_Algebraic_NoOpt(benchmark::State& state) {
  RunPrepared(state, PaperQueryText("Q2_SubsectionsContaining"), false);
}
BENCHMARK(BM_Q2_Algebraic_NoOpt)->Arg(10)->Arg(50)->Arg(200);

void BM_Q2_Algebraic_Opt(benchmark::State& state) {
  RunPrepared(state, PaperQueryText("Q2_SubsectionsContaining"), true);
}
BENCHMARK(BM_Q2_Algebraic_Opt)->Arg(10)->Arg(50)->Arg(200);

void BM_Q5_Algebraic_NoOpt(benchmark::State& state) {
  RunPrepared(state, PaperQueryText("Q5_AttributeGrep"), false);
}
BENCHMARK(BM_Q5_Algebraic_NoOpt)->Arg(10)->Arg(50)->Arg(200);

void BM_Q5_Algebraic_Opt(benchmark::State& state) {
  RunPrepared(state, PaperQueryText("Q5_AttributeGrep"), true);
}
BENCHMARK(BM_Q5_Algebraic_Opt)->Arg(10)->Arg(50)->Arg(200);

// Q7 runs as a TopKScore leaf over the postings (no optimizer input);
// Q8 is the §5.4 `..` expansion under a GroupAggregate — its shared
// schema-path prefixes and per-branch BuildPath are what E19 measures.
void BM_Q7_Algebraic_Opt(benchmark::State& state) {
  RunPrepared(state, PaperQueryText("Q7_RankedRetrieval"), true);
}
BENCHMARK(BM_Q7_Algebraic_Opt)->Arg(10)->Arg(50)->Arg(200);

void BM_Q8_Algebraic_NoOpt(benchmark::State& state) {
  RunPrepared(state, PaperQueryText("Q8_CountByStatus"), false);
}
BENCHMARK(BM_Q8_Algebraic_NoOpt)->Arg(10)->Arg(50)->Arg(200);

void BM_Q8_Algebraic_Opt(benchmark::State& state) {
  RunPrepared(state, PaperQueryText("Q8_CountByStatus"), true);
}
BENCHMARK(BM_Q8_Algebraic_Opt)->Arg(10)->Arg(50)->Arg(200);

// --articles N adds large-corpus variants of the optimizer series on
// demand (the static cases above stay at their fixed sizes): the
// selective-contains and near-style shapes where the compressed
// index's galloping pays off, optimizer off vs on.
void RegisterScaled(size_t articles) {
  const auto n = static_cast<int64_t>(articles);
  struct ScaledCase {
    const char* name;
    const char* query;
    bool optimize;
  };
  static const ScaledCase kCases[] = {
      {"BM_Q1_Algebraic_NoOpt", nullptr, false},
      {"BM_Q1_Algebraic_Opt", nullptr, true},
      {"BM_Q1Selective_Algebraic_NoOpt", kQ1SelectiveContains, false},
      {"BM_Q1Selective_Algebraic_Opt", kQ1SelectiveContains, true},
      {"BM_Q2_Algebraic_NoOpt", nullptr, false},
      {"BM_Q2_Algebraic_Opt", nullptr, true},
  };
  for (const ScaledCase& c : kCases) {
    std::string query =
        c.query != nullptr ? c.query
        : std::string(c.name).find("Q1") != std::string::npos
            ? PaperQueryText("Q1_TitleAndFirstAuthor")
            : PaperQueryText("Q2_SubsectionsContaining");
    bool optimize = c.optimize;
    ::benchmark::RegisterBenchmark(
        c.name,
        [query, optimize](benchmark::State& state) {
          RunPrepared(state, query, optimize);
        })
        ->Arg(n);
  }
}

// E16 — scatter-gather scan QPS vs shard count. The scan-dominated
// paper queries (Q1, Q2 and Q6 iterate every article via the
// broadcast `Articles` root) compile once, execute per-shard against
// each pinned snapshot on the branch pool, and merge with
// deterministic order and cross-shard dedup. Arg(0) is the shard
// count; shards=1 measures the facade's overhead over the
// pre-sharding single-store path (acceptance: within 10%). On a
// single-core host the series is flat by construction — the honest
// shape; the speedup claim needs a multi-core runner.
void RunShardedScan(benchmark::State& state, size_t articles) {
  const size_t shards = static_cast<size_t>(state.range(0));
  ShardedStore& store = MutableShardedCorpusStore(articles, /*sections=*/4,
                                                  shards);
  service::QueryService::Options options;
  options.num_threads = 1;
  options.max_queue_depth = 1 << 20;
  service::QueryService service(store, options);
  static constexpr const char* kScanQueries[] = {
      "Q1_TitleAndFirstAuthor", "Q2_SubsectionsContaining",
      "Q6_PositionComparison"};
  // Warm the plan cache: the series measures scatter-gather
  // execution, not first-compile cost.
  for (const char* q : kScanQueries) {
    auto r = service.ExecuteSync(PaperQueryText(q));
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  size_t queries = 0;
  for (auto _ : state) {
    for (const char* q : kScanQueries) {
      auto r = service.ExecuteSync(PaperQueryText(q));
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(r->size());
      ++queries;
    }
  }
  state.counters["articles"] = static_cast<double>(articles);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(queries), benchmark::Counter::kIsRate);
  ReportShardedFootprint(state, store);
  service.Shutdown();
}

void RegisterSharded(size_t articles, const std::vector<size_t>& shards) {
  const size_t n = articles > 0 ? articles : 200;
  auto* bench = ::benchmark::RegisterBenchmark(
      "BM_ShardedScanQps",
      [n](benchmark::State& state) { RunShardedScan(state, n); });
  for (size_t s : shards) bench->Arg(static_cast<int64_t>(s));
  bench->Unit(benchmark::kMillisecond)->UseRealTime();
}

}  // namespace
}  // namespace sgmlqdb::bench

int main(int argc, char** argv) {
  return sgmlqdb::bench::RunBenchmarks(argc, argv,
                                       sgmlqdb::bench::RegisterScaled,
                                       sgmlqdb::bench::RegisterSharded);
}
