// perfbench: the repository's serving benchmark. One process builds a
// seeded corpus into a durable ShardedStore, serves it through
// service::QueryService and net::Server on loopback, drives it with
// net::BinaryClient / net::HttpClient connections, checks every
// answer, restarts the store from its WAL, and prints one metric per
// line followed by a single JSON result line.
//
//   perfbench --workload paper_mix|text_search|ingest_mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics and writes spans and counters to DIR. See
// perfbench/README.md for the workloads and what each metric means.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/sharded_store.h"
#include "corpus/generator.h"
#include "corpus/workload.h"
#include "harness.h"
#include "ingest/snapshot.h"
#include "mapping/loader.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire_format.h"
#include "oql/oql.h"
#include "om/database.h"
#include "rank/scoring.h"
#include "service/branch_executor.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "sgml/document.h"
#include "sgml/goldens.h"
#include "wal/manager.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace net = sgmlqdb::net;
namespace oql = sgmlqdb::oql;
namespace svc = sgmlqdb::service;
using sgmlqdb::DocMutation;
using sgmlqdb::Result;
using sgmlqdb::ShardedStore;
using sgmlqdb::Status;
using sgmlqdb::StatusCode;

// -- Fixed shape of every run ------------------------------------------

constexpr size_t kServerWorkers = 2;   // QueryService query threads
constexpr size_t kBranchThreads = 2;   // QueryService branch pool
constexpr size_t kMarked = 20;         // documents whose title carries kMark
constexpr const char* kMark = "ingestmark";
constexpr int kIoTimeoutMs = 30000;
constexpr size_t kReferenceThreads = 3;  // computing expected answers
constexpr size_t kSlices = 5;  // read-window slices (see SliceMedians)
/// Batches logged after the last checkpoint of the dir that paper_mix
/// and text_search restart: paper_mix's fixture (the first set-up's
/// dir), text_search's served dir after its write phase.
constexpr size_t kTailBatches = 4;

enum class Traffic { kPaperMix, kTextSearch, kIngestMix };

struct Workload {
  const char* name;
  Traffic traffic;
  size_t articles;
  size_t shards;
  size_t vocabulary_words;  // 0 = the built-in vocabulary only
  size_t readers;           // closed-loop query connections
  /// ingest_mix: open-loop /ingest batches per second during the read
  /// window. The others send `write_batches` batches after the window,
  /// closed loop (each after the previous reply), with no reader.
  double write_rate;
  size_t write_batches;
  size_t setup_repeats;    // setups per run; setup_s is their median
  size_t restart_repeats;  // restarts per run; recover_s is their median
  /// > 0: the restarts are of a fixture, this many during the read
  /// window. 0: they are of the served dir, after the window.
  size_t window_restarts;
};

constexpr Workload kWorkloads[] = {
    {"paper_mix", Traffic::kPaperMix, 200, 1, 0, 2, 0.0, 40, 7, 5, 5},
    {"text_search", Traffic::kTextSearch, 2000, 4, 5000, 2, 0.0, 36, 2, 2, 0},
    {"ingest_mix", Traffic::kIngestMix, 200, 2, 0, 1, 3.0, 0, 7, 2, 0},
};

constexpr size_t kTextPool = 1024;  // distinct text_search statements

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

// -- Inputs --------------------------------------------------------------

/// A statement the clients send, with what a correct answer is.
struct Stmt {
  std::string text{};
  oql::Engine engine = oql::Engine::kAlgebraic;
  std::string expected{};      // exact result text...
  int64_t expected_rows = -1;  // ...or, when >= 0, only the row count
  /// HTTP only: a correct reply body is http_head + <micros> + http_tail.
  std::string http_head{}, http_tail{};
};

/// Splits the HTTP body of a correct answer around its "micros" value,
/// the only part that varies, so the client checks a reply with two
/// comparisons instead of parsing JSON in its timed loop.
void SetHttpExpectation(const sgmlqdb::om::Value& v, Stmt* s) {
  const bool collection = v.kind() == sgmlqdb::om::ValueKind::kSet ||
                          v.kind() == sgmlqdb::om::ValueKind::kList;
  const std::string body =
      net::FormatQueryResultJson(collection ? v.size() : 1, 0, s->expected);
  const std::string key = "\"micros\":";
  const size_t at = body.find(key) + key.size();
  s->http_head = body.substr(0, at);
  s->http_tail = body.substr(at + 1);  // past the "0"
}

/// Puts kMark at the start of the article's title, so a `contains`
/// statement can count marked documents.
std::string Mark(std::string sgml) {
  const size_t at = sgml.find("<title>");
  if (at != std::string::npos) sgml.insert(at + 7, std::string(kMark) + " ");
  return sgml;
}

struct Corpus {
  sgmlqdb::corpus::ArticleParams params;
  std::vector<std::string> articles;
  std::vector<std::string> names;  // doc0, doc1, ...
};

/// The workload's article population is fixed, so every seed loads
/// the same amount of text; the seed permutes the load order (and so
/// shard placement and oids) of all but doc0, and picks which
/// documents start marked.
Corpus MakeCorpus(const Workload& w, uint64_t seed) {
  Corpus c;
  c.params.seed = 0x5eed0000ull;
  c.params.figure_prob = 0.15;
  c.params.vocabulary_words = w.vocabulary_words;
  std::vector<size_t> order(w.articles);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  sgmlqdb::corpus::Rng rng(seed * 0x2545f4914f6cdd1dull + 1);
  for (size_t i = order.size() - 1; i > 1; --i) {
    std::swap(order[i], order[1 + rng.Below(i)]);
  }
  for (size_t i = 0; i < w.articles; ++i) {
    std::string a = sgmlqdb::corpus::GenerateCorpusArticle(order[i], c.params);
    // doc1..docK start marked; doc0 (the single-document queries'
    // target) is never touched by a writer.
    c.articles.push_back(i >= 1 && i <= kMarked ? Mark(std::move(a)) : a);
    c.names.push_back("doc" + std::to_string(i));
  }
  return c;
}

std::string MarkerStatement() {
  return std::string("select a from a in Articles where a.title contains (\"") +
         kMark + "\")";
}

/// Seeded text_search statements: contains and/or, near and ranked
/// top-10 in turn, over word pairs whose vocabulary ranks are drawn
/// log-uniformly, so both frequent and rare terms appear. No `..`, no
/// group-by. The draws are stratified (one per equal slice of the
/// log-rank range, in seeded order), so every seed's pool has the same
/// mix of frequent and rare terms, and so about the same work; the
/// seed picks the words and how they pair.
std::vector<std::string> TextStatements(uint64_t seed, size_t vocabulary) {
  sgmlqdb::corpus::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  const auto& base = sgmlqdb::corpus::Vocabulary();
  const size_t total = std::max(vocabulary, base.size());
  auto strata = [&] {
    std::vector<double> u(kTextPool);
    for (size_t i = 0; i < u.size(); ++i) {
      u[i] = (static_cast<double>(i) + rng.NextDouble()) / u.size();
    }
    for (size_t i = u.size() - 1; i > 0; --i) std::swap(u[i], u[rng.Below(i + 1)]);
    return u;
  };
  const std::vector<double> ua = strata();
  const std::vector<double> ub = strata();
  auto word = [&](double u) -> std::string {
    size_t idx = static_cast<size_t>(std::pow(static_cast<double>(total), u)) - 1;
    idx = std::min(idx, total - 1);
    if (idx < base.size()) return base[idx];
    std::string tail = "w";  // the generator's tail words: w<rank>
    tail += std::to_string(idx);
    return tail;
  };
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (size_t i = 0; i < kTextPool; ++i) {
    const std::string a = word(ua[i]);
    const std::string near_distance = std::to_string(2 + rng.Below(6));
    auto render = [&](const std::string& b) -> std::string {
      switch (i % 5) {
        case 0:
          return "select a from a in Articles where a contains (\"" + a +
                 "\" and \"" + b + "\")";
        case 1:
          return "select a from a in Articles where a contains (\"" + a +
                 "\" or \"" + b + "\")";
        case 2:
          return "select s from a in Articles, s in a.sections where near(s, \"" +
                 a + "\", \"" + b + "\", " + near_distance + ")";
        case 3:
          return "rank(Articles by (\"" + a + "\" or \"" + b + "\")) limit 10";
        default:
          return "rank(Articles by (\"" + a + "\" and \"" + b + "\")) limit 10";
      }
    };
    // A repeated word or statement redraws the second word.
    std::string b = word(ub[i]);
    while (b == a || seen.count(render(b)) != 0) b = word(rng.NextDouble());
    seen.insert(render(b));
    out.push_back(render(b));
  }
  return out;
}

// -- The served system ---------------------------------------------------

/// Loads `c` into a store of `shards` shards: in memory when `dir` is
/// empty, else durably in `dir` and checkpointed.
Result<std::unique_ptr<ShardedStore>> LoadStore(size_t shards, const Corpus& c,
                                                const std::string& dir) {
  std::unique_ptr<ShardedStore> store;
  if (dir.empty()) {
    store = std::make_unique<ShardedStore>(shards);
  } else {
    sgmlqdb::wal::Options o;
    o.data_dir = dir;
    o.durable_sync = true;
    auto opened = ShardedStore::OpenOrRecover(o, shards);
    if (!opened.ok()) return opened.status();
    store = std::move(opened).value();
  }
  if (Status st = store->LoadDtd(sgmlqdb::sgml::ArticleDtdText()); !st.ok()) {
    return st;
  }
  for (size_t i = 0; i < c.articles.size(); ++i) {
    auto r = store->LoadDocument(c.articles[i], c.names[i]);
    if (!r.ok()) return r.status();
  }
  if (!dir.empty()) {
    // Checkpoint the loaded corpus, as an operator would before
    // opening for writes: a restart then replays only the WAL tail.
    store->Freeze();
    if (Status st = store->Checkpoint(); !st.ok()) return st;
  }
  return store;
}

/// Store -> QueryService -> net::Server, torn down in reverse order.
class Served {
 public:
  static Result<std::unique_ptr<Served>> Start(
      std::unique_ptr<ShardedStore> store) {
    auto s = std::unique_ptr<Served>(new Served());
    s->store_ = std::move(store);
    svc::QueryService::Options o;
    o.num_threads = kServerWorkers;
    o.branch_threads = kBranchThreads;
    s->service_ = std::make_unique<svc::QueryService>(*s->store_, o);
    s->server_ =
        std::make_unique<net::Server>(*s->service_, net::ServerOptions{});
    if (Status st = s->server_->Start(); !st.ok()) return st;
    return s;
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() { Stop(); }

  /// Stops without a checkpoint: a restart must replay the WAL.
  void Stop() {
    if (server_) server_->Stop();
    if (service_) service_->Shutdown();
    server_.reset();
    service_.reset();
    store_.reset();
  }

  ShardedStore& store() { return *store_; }
  svc::QueryService& service() { return *service_; }
  net::Server& server() { return *server_; }
  uint16_t http_port() const { return server_->http_port(); }
  uint16_t bin_port() const { return server_->binary_port(); }

 private:
  Served() = default;
  std::unique_ptr<ShardedStore> store_;
  std::unique_ptr<svc::QueryService> service_;
  std::unique_ptr<net::Server> server_;
};

// -- Clients ---------------------------------------------------------------

enum class Outcome { kOk, kBusy, kError, kWrong };

Outcome Judge(StatusCode code, int64_t rows, const std::string& text,
              const Stmt& s) {
  if (code == StatusCode::kUnavailable) return Outcome::kBusy;
  if (code != StatusCode::kOk) return Outcome::kError;
  if (s.expected_rows >= 0) {
    return rows == s.expected_rows ? Outcome::kOk : Outcome::kWrong;
  }
  return text == s.expected ? Outcome::kOk : Outcome::kWrong;
}

net::QueryRequest RequestFor(const Stmt& s) {
  net::QueryRequest req;
  req.query = s.text;
  req.options.engine = s.engine;
  return req;
}

/// One client connection: binary-prepared (statements prepared once,
/// executed by id) or HTTP/JSON (statement text in every request).
class QueryConn {
 public:
  QueryConn(bool http, const std::vector<Stmt>* stmts)
      : http_(http), stmts_(stmts) {}

  Status Connect(const Served& s) {
    if (http_) return http_client_.Connect("127.0.0.1", s.http_port(), kIoTimeoutMs);
    Status st = bin_client_.Connect("127.0.0.1", s.bin_port(), kIoTimeoutMs);
    if (!st.ok()) return st;
    for (size_t i = 0; i < stmts_->size(); ++i) {
      auto r = bin_client_.Prepare(static_cast<uint32_t>(i + 1),
                                   RequestFor((*stmts_)[i]));
      if (!r.ok()) return r.status();
      if (r->code != StatusCode::kOk) {
        return Status::Internal("prepare failed: " + r->text);
      }
    }
    return Status::OK();
  }

  Outcome Run(size_t idx, std::string* detail = nullptr) {
    const Stmt& s = (*stmts_)[idx];
    if (!http_) {
      auto r = bin_client_.Execute(static_cast<uint32_t>(idx + 1));
      if (!r.ok()) return Outcome::kError;
      Outcome o = Judge(r->code, r->rows, r->text, s);
      if (o != Outcome::kOk && detail) *detail = r->text;
      return o;
    }
    auto r = http_client_.Post("/query", net::FormatQueryRequestJson(RequestFor(s)));
    if (!r.ok()) return Outcome::kError;
    if (r->status == 503) return Outcome::kBusy;
    if (r->status != 200) {
      if (detail) *detail = r->body;
      return Outcome::kError;
    }
    const std::string& b = r->body;
    const size_t head = s.http_head.size(), tail = s.http_tail.size();
    const bool ok =
        b.size() > head + tail && b.compare(0, head, s.http_head) == 0 &&
        b.compare(b.size() - tail, tail, s.http_tail) == 0 &&
        b.find_first_not_of("0123456789", head) == b.size() - tail;
    if (!ok && detail) *detail = b.substr(0, 200);
    return ok ? Outcome::kOk : Outcome::kWrong;
  }

 private:
  bool http_;
  const std::vector<Stmt>* stmts_;
  net::BinaryClient bin_client_;
  net::HttpClient http_client_;
};

Status WaitHealthy(uint16_t http_port) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < deadline) {
    net::HttpClient c;
    if (c.Connect("127.0.0.1", http_port, kIoTimeoutMs).ok()) {
      auto r = c.Get("/healthz");
      if (r.ok() && r->status == 200) return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::Unavailable("server never became healthy");
}

/// Readiness: /healthz answers 200 and `probe` answers correctly over
/// the binary protocol.
Status WaitFirstCorrectAnswer(const Served& s, const Stmt& probe) {
  if (Status st = WaitHealthy(s.http_port()); !st.ok()) return st;
  std::vector<Stmt> one{probe};
  QueryConn conn(false, &one);
  if (Status st = conn.Connect(s); !st.ok()) return st;
  std::string detail;
  Outcome o = conn.Run(0, &detail);
  if (o != Outcome::kOk) {
    return Status::Internal("first answer is not correct: " + detail);
  }
  return Status::OK();
}

struct Tally {
  std::vector<double> lat_ms;  // successful requests only
  std::vector<double> at_s;    // when each of them completed
  uint64_t attempted = 0, ok = 0, busy = 0, errors = 0, wrong = 0;
  std::string first_wrong;

  void Count(Outcome o, double ms, double done_s, const std::string& what) {
    ++attempted;
    switch (o) {
      case Outcome::kOk:
        ++ok;
        lat_ms.push_back(ms);
        at_s.push_back(done_s);
        break;
      case Outcome::kBusy:
        ++busy;
        break;
      case Outcome::kError:
        ++errors;
        if (first_wrong.empty()) first_wrong = "error: " + what;
        break;
      case Outcome::kWrong:
        ++wrong;
        if (first_wrong.empty()) first_wrong = "wrong: " + what;
        break;
    }
  }
  void Merge(const Tally& o) {
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    at_s.insert(at_s.end(), o.at_s.begin(), o.at_s.end());
    attempted += o.attempted;
    ok += o.ok;
    busy += o.busy;
    errors += o.errors;
    wrong += o.wrong;
    if (first_wrong.empty()) first_wrong = o.first_wrong;
  }
  uint64_t failed() const { return busy + errors + wrong; }
};

/// Query figures of a read window, each the median over `kSlices`
/// equal slices of it: a burst of noise from the machine's other
/// tenants in one slice moves the median of slices far less than it
/// moves the whole-window figure.
struct WindowFigures {
  double p50_ms = 0, p95_ms = 0, qps = 0;
};

WindowFigures SliceMedians(const Tally& t, double window_s) {
  std::vector<std::vector<double>> slices(kSlices);
  for (size_t i = 0; i < t.lat_ms.size(); ++i) {
    const size_t k = static_cast<size_t>(t.at_s[i] / window_s * kSlices);
    slices[std::min(k, kSlices - 1)].push_back(t.lat_ms[i]);
  }
  std::vector<double> p50, p95, qps;
  for (const auto& s : slices) {
    p50.push_back(Median(s));
    p95.push_back(Quantile(s, 0.95));
    qps.push_back(s.size() / (window_s / kSlices));
  }
  return {Median(p50), Median(p95), Median(qps)};
}

// -- The open-loop writer ------------------------------------------------------

/// Plans ingest batches that keep the store's size and its number of
/// marked documents flat. Every batch Replaces a marked document with
/// a fresh marked article, Loads another fresh marked article and
/// Removes the oldest marked document. Only acknowledged batches
/// change the plan, and `live()` is what the store must then hold.
class BatchPlanner {
 public:
  BatchPlanner(const Corpus& c, uint64_t seed) : params_(c.params) {
    params_.seed = c.params.seed ^ (0xfeedull + seed);
    for (size_t i = 1; i <= kMarked; ++i) marked_.push_back(c.names[i]);
    for (size_t i = 0; i < c.names.size(); ++i) live_[c.names[i]] = c.articles[i];
  }

  std::vector<DocMutation> Next() const {
    auto fresh = [&](size_t k) {
      return Mark(sgmlqdb::corpus::GenerateCorpusArticle(2 * committed_ + k,
                                                         params_));
    };
    return {DocMutation::Replace(
                marked_[1 + committed_ % (marked_.size() - 1)], fresh(0)),
            DocMutation::Load(fresh(1), NewName()),
            DocMutation::Remove(marked_.front())};
  }

  void Commit(std::vector<DocMutation> ops) {
    marked_.pop_front();
    marked_.push_back(NewName());
    for (DocMutation& op : ops) {
      sgml_bytes_ += op.sgml.size();
      if (op.kind == DocMutation::Kind::kRemove) {
        live_.erase(op.name);
      } else {
        live_[op.name] = std::move(op.sgml);
      }
    }
    ++committed_;
  }

  /// Acknowledged batches so far.
  size_t committed() const { return committed_; }
  uint64_t sgml_bytes() const { return sgml_bytes_; }
  /// Document name -> SGML text after every acknowledged batch.
  const std::map<std::string, std::string>& live() const { return live_; }

 private:
  std::string NewName() const { return "ing" + std::to_string(committed_); }

  sgmlqdb::corpus::ArticleParams params_;
  std::deque<std::string> marked_;
  size_t committed_ = 0;
  uint64_t sgml_bytes_ = 0;
  std::map<std::string, std::string> live_;
};

/// Sends one batch every 1/rate seconds (rate 0: each batch as soon as
/// the previous one is answered) until `end` or until `max_batches`
/// were sent (0 = no limit). Latency runs from each batch's due time,
/// so a stall also counts against the batches queued behind it;
/// `late_ms` is how far behind schedule each send was.
struct WriteTally {
  Tally t;
  std::vector<double> late_ms;
};

void WriterLoop(uint16_t http_port, double rate, Clock::time_point end,
                size_t max_batches, BatchPlanner* planner, WriteTally* out,
                Tracer* tracer) {
  net::HttpClient client;
  if (!client.Connect("127.0.0.1", http_port, kIoTimeoutMs).ok()) {
    out->t.Count(Outcome::kError, 0, 0, "writer connect");
    return;
  }
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(rate > 0 ? 1.0 / rate : 0.0));
  size_t sent_batches = 0;
  for (auto due = Clock::now(); due < end;
       due = rate > 0 ? due + period : Clock::now()) {
    if (max_batches != 0 && sent_batches++ == max_batches) break;
    std::this_thread::sleep_until(due);
    std::vector<DocMutation> ops = planner->Next();
    net::IngestRequest req;
    req.ops = ops;
    const auto sent = Clock::now();
    auto r = client.Post("/ingest", net::FormatIngestRequestJson(req));
    const auto done = Clock::now();
    out->late_ms.push_back(MsBetween(due, sent));
    Outcome o = !r.ok()              ? Outcome::kError
                : r->status == 503   ? Outcome::kBusy
                : r->status == 200   ? Outcome::kOk
                                     : Outcome::kError;
    out->t.Count(o, MsBetween(due, done), 0, r.ok() ? r->body : "ingest io");
    tracer->Record("net.ingest_round_trip", tracer->NewRequest(), 0, sent, done);
    if (o == Outcome::kOk) planner->Commit(std::move(ops));
  }
}

// -- Layer counters ------------------------------------------------------------

/// Cumulative counters the layers already expose, summed over shards.
struct Counters {
  uint64_t executions = 0, plan_hits = 0, plan_misses = 0, busy = 0;
  uint64_t probes = 0, postings_decoded = 0, postings_skipped = 0;
  uint64_t text_hits = 0, text_misses = 0;
  uint64_t docs_scored = 0, heap_pushes = 0;
  uint64_t term_copies = 0, units = 0, df_updates = 0;
  uint64_t wal_syncs = 0, wal_bytes = 0;
  size_t ingest_records = 0;
  uint64_t batches = 0, user_bytes = 0;  // acknowledged, from the plan
};

Counters Snap(Served& s, const BatchPlanner& planner) {
  Counters c;
  c.batches = planner.committed();
  c.user_bytes = planner.sgml_bytes();
  const svc::QueryService& q = s.service();
  c.executions = q.stats().total_executions();
  c.plan_hits = q.plan_cache().hits();
  c.plan_misses = q.plan_cache().misses();
  c.busy = s.server().stats().Get().busy_rejections;
  for (size_t i = 0; i < s.store().shard_count(); ++i) {
    const sgmlqdb::DocumentStore& d = s.store().shard(i);
    const auto p = d.text_index().probe_stats();
    c.probes += p.probes;
    c.postings_decoded += p.postings_decoded;
    c.postings_skipped += p.postings_skipped;
    const auto tc = d.text_cache_stats();
    c.text_hits += tc.hits;
    c.text_misses += tc.misses;
    const auto rp = d.rank_stats().probe_stats();
    c.docs_scored += rp.docs_scored;
    c.heap_pushes += rp.heap_pushes;
    const auto& m = d.text_index().maintenance_stats();
    c.term_copies += m.term_copies;
    c.units += m.units_added + m.units_removed;
    c.df_updates += d.rank_stats().maintenance_stats().df_updates;
  }
  if (const auto* w = s.store().wal(); w != nullptr) {
    const auto ws = w->stats();
    c.wal_syncs = ws.syncs;
    c.wal_bytes = ws.wal_bytes;
  }
  c.ingest_records = q.stats().IngestHistory().size();
  return c;
}

/// Per-layer counter metrics: query-side counters per statement over
/// [r0, r1] (the traced window), ingest-side counters per acknowledged
/// batch over [w0, w1] (the writes).
void AddCounterMetrics(const Counters& r0, const Counters& r1,
                       const Counters& w0, const Counters& w1,
                       const std::vector<svc::IngestRecord>& history,
                       MetricSink* m) {
  const double stmts = static_cast<double>(r1.executions - r0.executions);
  m->Add("net.busy_replies", static_cast<double>(r1.busy - r0.busy), "count");
  const double ph = r1.plan_hits - r0.plan_hits;
  const double pm = r1.plan_misses - r0.plan_misses;
  m->Add("service.plan_cache_hit_ratio", Ratio(ph, ph + pm), "ratio");
  m->Add("text.probes_per_stmt", Ratio(r1.probes - r0.probes, stmts), "count");
  const double dec = r1.postings_decoded - r0.postings_decoded;
  const double skip = r1.postings_skipped - r0.postings_skipped;
  m->Add("text.postings_decoded_per_stmt", Ratio(dec, stmts), "count");
  m->Add("text.postings_skip_ratio", Ratio(skip, dec + skip), "ratio");
  const double th = r1.text_hits - r0.text_hits;
  const double tm = r1.text_misses - r0.text_misses;
  m->Add("text.cache_hit_ratio", Ratio(th, th + tm), "ratio");
  m->Add("rank.docs_scored_per_stmt", Ratio(r1.docs_scored - r0.docs_scored, stmts),
         "count");
  m->Add("rank.heap_pushes_per_stmt", Ratio(r1.heap_pushes - r0.heap_pushes, stmts),
         "count");

  const double batches = static_cast<double>(w1.batches - w0.batches);
  m->Add("ingest.term_copies_per_batch", Ratio(w1.term_copies - w0.term_copies, batches),
         "count");
  m->Add("ingest.units_per_batch", Ratio(w1.units - w0.units, batches), "count");
  m->Add("rank.df_updates_per_batch", Ratio(w1.df_updates - w0.df_updates, batches),
         "count");
  std::vector<double> publish_us;
  for (size_t i = w0.ingest_records; i < w1.ingest_records; ++i) {
    publish_us.push_back(static_cast<double>(history[i].publish_micros));
  }
  m->Add("ingest.publish_us", Median(publish_us), "us");
  m->Add("wal.syncs_per_batch", Ratio(w1.wal_syncs - w0.wal_syncs, batches), "count");
  m->Add("wal.bytes_per_user_byte",
         Ratio(w1.wal_bytes - w0.wal_bytes, w1.user_bytes - w0.user_bytes), "ratio");
}

// -- One run ---------------------------------------------------------------------

class Run {
 public:
  Run(const Workload& w, const Args& a)
      : w_(w), args_(a), corpus_(MakeCorpus(w, a.seed)), tracer_(false),
        planner_(corpus_, a.seed), fixture_planner_(corpus_, a.seed) {}

  int Main();

 private:
  Status PrepareExpectations();
  Result<std::unique_ptr<Served>> Setup(const std::string& dir);
  std::string FreshDir();
  Status Warm();
  void ReadWindow(double seconds, double offset_s, size_t stream, Tally* reads,
                  WriteTally* writes);
  Status ReadSliced(double seconds, size_t restarts, Tally* reads,
                    WriteTally* writes);
  void WritePhase(WriteTally* writes);
  Status CheckpointAndWriteTail(WriteTally* writes);
  Result<std::unique_ptr<Served>> Restart(const std::string& dir);
  Status RecoveryCheck(const BatchPlanner& plan, Served& recovered);
  void LayerProbes(MetricSink* m);
  void IngestProbes(MetricSink* m);

  /// Prints how long the run spent since the previous phase line.
  void Phase(const char* name) {
    const auto now = Clock::now();
    std::printf("phase %-16s %.2f s\n", name, MsBetween(phase_start_, now) / 1000.0);
    phase_start_ = now;
  }

  const Workload& w_;
  const Args& args_;
  Clock::time_point phase_start_ = Clock::now();
  Corpus corpus_;
  Tracer tracer_;
  BatchPlanner planner_;
  BatchPlanner fixture_planner_;  // the batches in the fixture's WAL tail
  std::string fixture_dir_;       // paper_mix only
  std::vector<double> recover_s_;
  uint64_t replayed_ = 0;
  std::optional<Status> recovery_;  // the recovery check, once made
  size_t streams_ = 0;              // read slices so far
  std::vector<Stmt> stmts_;  // what the readers send
  Stmt probe_;               // readiness probe (Q3 on doc0)
  std::unique_ptr<Served> served_;
  std::vector<std::string> dirs_;
  bool http_readers() const { return w_.traffic == Traffic::kTextSearch; }
};

std::string ResultText(const Result<sgmlqdb::om::Value>& r) {
  return r.ok() ? r->ToString() : "<error " + r.status().ToString() + ">";
}

/// Expected answers come from an in-memory one-shard copy of the
/// corpus, outside every timed window: the naive §5.2 evaluator for
/// the paper's queries (the algebraic engine where a statement is
/// outside the naive fragment), the one-shard algebraic result for
/// text_search.
Status Run::PrepareExpectations() {
  auto ref = LoadStore(1, corpus_, "");
  if (!ref.ok()) return ref.status();
  (*ref)->Freeze();
  const sgmlqdb::DocumentStore& d = (*ref)->shard(0);
  auto expect = [&](const std::string& text, oql::Engine engine) {
    return ResultText(d.Query(text, engine));
  };
  const auto& mix = sgmlqdb::corpus::PaperQueryMix();
  const auto& q3 = sgmlqdb::corpus::PaperQuery("Q3_AllTitlesOfOneDocument");
  probe_ = {.text = q3.text, .engine = q3.engine,
            .expected = expect(q3.text, oql::Engine::kNaive)};
  switch (w_.traffic) {
    case Traffic::kPaperMix:
      for (const auto& q : mix) {
        Result<sgmlqdb::om::Value> naive = d.Query(q.text, oql::Engine::kNaive);
        std::string e = naive.ok() ? naive->ToString()
                                   : expect(q.text, oql::Engine::kAlgebraic);
        stmts_.push_back({.text = q.text, .engine = q.engine, .expected = e});
      }
      break;
    case Traffic::kTextSearch: {
      for (std::string& t : TextStatements(args_.seed, w_.vocabulary_words)) {
        stmts_.push_back({.text = std::move(t)});
      }
      // The frozen reference store serves concurrent reads.
      std::vector<std::thread> threads;
      for (size_t k = 0; k < kReferenceThreads; ++k) {
        threads.emplace_back([&, k] {
          for (size_t i = k; i < stmts_.size(); i += kReferenceThreads) {
            auto r = d.Query(stmts_[i].text, oql::Engine::kAlgebraic);
            stmts_[i].expected = ResultText(r);
            if (r.ok()) SetHttpExpectation(*r, &stmts_[i]);
          }
        });
      }
      for (auto& t : threads) t.join();
      break;
    }
    case Traffic::kIngestMix: {
      const auto& q5 = sgmlqdb::corpus::PaperQuery("Q5_AttributeGrep");
      stmts_.push_back(probe_);
      stmts_.push_back({.text = q5.text, .engine = q5.engine,
                        .expected = expect(q5.text, oql::Engine::kNaive)});
      stmts_.push_back({.text = MarkerStatement(),
                        .expected_rows = static_cast<int64_t>(kMarked)});
      break;
    }
  }
  for (const Stmt& s : stmts_) {
    if (s.expected.rfind("<error", 0) == 0) {
      return Status::Internal("reference failed for " + s.text + ": " + s.expected);
    }
  }
  return Status::OK();
}

std::string Run::FreshDir() {
  std::string dir = args_.out_dir + "/data-" + std::to_string(getpid()) + "-" +
                    std::to_string(dirs_.size());
  fs::remove_all(dir);
  fs::create_directories(dir);
  dirs_.push_back(dir);
  return dir;
}

/// Load, serve, and wait for the first correct answer over the socket.
Result<std::unique_ptr<Served>> Run::Setup(const std::string& dir) {
  auto store = LoadStore(w_.shards, corpus_, dir);
  if (!store.ok()) return store.status();
  auto served = Served::Start(std::move(store).value());
  if (!served.ok()) return served.status();
  if (Status st = WaitFirstCorrectAnswer(**served, probe_); !st.ok()) return st;
  return served;
}

/// Every reader statement once, split over the reader connections,
/// each answer correct, before any timing starts.
Status Run::Warm() {
  std::vector<Status> results(w_.readers, Status::OK());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w_.readers; ++c) {
    threads.emplace_back([&, c] {
      QueryConn conn(http_readers(), &stmts_);
      if (Status st = conn.Connect(*served_); !st.ok()) {
        results[c] = st;
        return;
      }
      for (size_t i = c; i < stmts_.size(); i += w_.readers) {
        std::string detail;
        if (conn.Run(i, &detail) != Outcome::kOk) {
          results[c] = Status::Internal("warm-up answer wrong for " +
                                        stmts_[i].text + ": " + detail);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : results) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

/// Closed-loop readers (and on ingest_mix the open-loop writer) for
/// `seconds`. Replies are stamped `offset_s` plus their time into the
/// window, clamped to it. Each `stream` draws its own statements.
void Run::ReadWindow(double seconds, double offset_s, size_t stream,
                     Tally* reads, WriteTally* writes) {
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(w_.readers);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w_.readers; ++c) {
    threads.emplace_back([&, c] {
      QueryConn conn(http_readers(), &stmts_);
      if (!conn.Connect(*served_).ok()) {
        tallies[c].Count(Outcome::kError, 0, 0, "reader connect");
        return;
      }
      sgmlqdb::corpus::Rng rng(args_.seed * 1000003 + stream * w_.readers + c);
      size_t next = c * stmts_.size() / w_.readers;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t idx = http_readers() ? rng.Below(stmts_.size())
                                          : next++ % stmts_.size();
        const auto t0 = Clock::now();
        std::string detail;
        Outcome o = conn.Run(idx, &detail);
        const auto t1 = Clock::now();
        tracer_.Record("net.round_trip", tracer_.NewRequest(), 0, t0, t1);
        const double at_s =
            offset_s + std::min(MsBetween(start, t1) / 1000.0, seconds * 0.999);
        tallies[c].Count(o, MsBetween(t0, t1), at_s,
                         o == Outcome::kOk ? std::string()
                                           : stmts_[idx].text + " -> " + detail);
      }
    });
  }
  std::thread writer;
  if (w_.traffic == Traffic::kIngestMix) {
    writer = std::thread([&] {
      WriterLoop(served_->http_port(), w_.write_rate, end, 0, &planner_, writes,
                 &tracer_);
    });
  }
  std::this_thread::sleep_until(end);
  stop.store(true);
  for (auto& t : threads) t.join();
  if (writer.joinable()) writer.join();
  for (const Tally& t : tallies) reads->Merge(t);
}

void Run::WritePhase(WriteTally* writes) {
  WriterLoop(served_->http_port(), w_.write_rate, Clock::time_point::max(),
             w_.write_batches, &planner_, writes, &tracer_);
}

/// text_search checkpoints after its write phase and then writes a
/// short tail, so a restart replays kTailBatches batches whatever the
/// length of the write phase.
Status Run::CheckpointAndWriteTail(WriteTally* writes) {
  if (Status st = served_->store().Checkpoint(); !st.ok()) return st;
  WriterLoop(served_->http_port(), w_.write_rate, Clock::time_point::max(),
             kTailBatches, &planner_, writes, &tracer_);
  return Status::OK();
}

/// The read window. With `restarts` > 0 it runs as kSlices slices,
/// stamped as one window, and the readers pause after some slices
/// while the fixture restarts. So the restarts spread over the window
/// as the reads do: a slowdown from the machine's other tenants lasts
/// seconds, and restarts bunched together all fall into the same one.
/// The first restart is also checked (see RecoveryCheck).
Status Run::ReadSliced(double seconds, size_t restarts, Tally* reads,
                       WriteTally* writes) {
  if (restarts == 0) {
    ReadWindow(seconds, 0, streams_++, reads, writes);
    return Status::OK();
  }
  const double slice = seconds / kSlices;
  for (size_t k = 0; k < kSlices; ++k) {
    ReadWindow(slice, k * slice, streams_++, reads, writes);
    if (k * restarts / kSlices == (k + 1) * restarts / kSlices) continue;
    auto r = Restart(fixture_dir_);
    if (!r.ok()) return r.status();
    if (!recovery_) recovery_ = RecoveryCheck(fixture_planner_, **r);
  }
  return Status::OK();
}

/// Re-opens `dir`, whose last writer stopped without a final
/// checkpoint, serves it and waits for the first correct answer; the
/// time goes to recover_s_. Every restart of a run must replay the
/// same number of batches.
Result<std::unique_ptr<Served>> Run::Restart(const std::string& dir) {
  const auto r0 = Clock::now();
  sgmlqdb::wal::Options o;
  o.data_dir = dir;
  auto reopened = ShardedStore::OpenOrRecover(o, w_.shards);
  if (!reopened.ok()) return reopened.status();
  auto recovered = Served::Start(std::move(reopened).value());
  if (!recovered.ok()) return recovered.status();
  if (Status st = WaitFirstCorrectAnswer(**recovered, probe_); !st.ok()) {
    return st;
  }
  recover_s_.push_back(MsSince(r0) / 1000.0);
  const uint64_t n =
      (*recovered)->store().wal()->recovery_stats().wal_batches_replayed;
  if (recover_s_.size() > 1 && n != replayed_) {
    return Status::Internal("restarts replayed " + std::to_string(replayed_) +
                            " then " + std::to_string(n) + " batches");
  }
  replayed_ = n;
  return recovered;
}

/// The restarted store must hold exactly the acknowledged batches:
/// the same documents (count and full text) as an in-memory store
/// loaded with what the batch plan says is live.
Status Run::RecoveryCheck(const BatchPlanner& plan, Served& recovered) {
  Corpus expected;
  for (const auto& [name, sgml] : plan.live()) {
    expected.names.push_back(name);
    expected.articles.push_back(sgml);
  }
  auto ref = LoadStore(1, expected, "");
  if (!ref.ok()) return ref.status();
  (*ref)->Freeze();
  const sgmlqdb::DocumentStore& want_store = (*ref)->shard(0);
  auto size_of = [](const Result<sgmlqdb::om::Value>& r) -> int64_t {
    return r.ok() ? static_cast<int64_t>(r->size()) : -1;
  };
  const std::string all = "select a from a in Articles";
  const int64_t want_docs = size_of(want_store.Query(all));
  const int64_t got_docs = size_of(recovered.service().ExecuteSync(all));
  if (want_docs != got_docs || want_docs != static_cast<int64_t>(expected.names.size())) {
    return Status::Internal("recovered store holds " + std::to_string(got_docs) +
                            " documents, expected " + std::to_string(want_docs));
  }
  const std::string text = "select text(a) from a in Articles";
  const std::string want = ResultText(want_store.Query(text));
  const std::string got = ResultText(recovered.service().ExecuteSync(text));
  if (want != got || want.rfind("<error", 0) == 0) {
    return Status::Internal("recovered documents differ from the acknowledged "
                            "batches\n want " + want.substr(0, 300) +
                            "\n got  " + got.substr(0, 300));
  }
  if (size_of(recovered.service().ExecuteSync(MarkerStatement())) !=
      static_cast<int64_t>(kMarked)) {
    return Status::Internal("recovered store lost the marked-document count");
  }
  return Status::OK();
}

/// Runs `call` twice and returns the [start, end) of the faster run:
/// the first run of a stage may still pay for caches the previous
/// stage evicted.
template <typename F>
std::pair<Clock::time_point, Clock::time_point> Faster(F&& call) {
  std::pair<Clock::time_point, Clock::time_point> best;
  for (int i = 0; i < 2; ++i) {
    const auto a = Clock::now();
    call();
    const auto b = Clock::now();
    if (i == 0 || b - a < best.second - best.first) best = {a, b};
  }
  return best;
}

/// Times the calls the service makes, one statement at a time on the
/// idle server, each sample a request of child spans: the socket round
/// trip, QueryService::ExecuteSync, oql::Prepare, and the execution on
/// each shard the statement routes to. Plans and text caches are warm
/// for all of them (one untimed ExecuteSync first).
void Run::LayerProbes(MetricSink* m) {
  svc::QueryService& q = served_->service();
  ShardedStore& store = served_->store();
  svc::ThreadPool pool(kBranchThreads);
  svc::PoolBranchExecutor branch_exec(&pool);
  QueryConn conn(http_readers(), &stmts_);
  const bool connected = conn.Connect(*served_).ok();
  std::vector<size_t> sample;
  const size_t target = http_readers() ? 128 : 32;
  for (size_t i = 0; sample.size() < target; ++i) sample.push_back(i % stmts_.size());

  std::vector<double> net_self, svc_self, prepare, shard_max, shard_med, branches;
  for (size_t idx : sample) {
    const Stmt& s = stmts_[idx];
    svc::QueryService::QueryOptions qo;
    qo.engine = s.engine;
    (void)q.ExecuteSync(s.text, qo);
    const uint64_t req = tracer_.NewRequest();
    const uint64_t root = tracer_.ReserveId();
    const auto t_root = Clock::now();
    int socket_failures = 0;
    const auto [t0, t1] = Faster([&] {
      if (!connected || conn.Run(idx) != Outcome::kOk) ++socket_failures;
    });
    tracer_.Record("net.round_trip", req, root, t0, t1);
    const auto [t2, t3] = Faster([&] { (void)q.ExecuteSync(s.text, qo); });
    tracer_.Record("service.execute_sync", req, root, t2, t3);
    oql::OqlOptions po;
    po.engine = s.engine;
    Result<oql::PreparedStatement> p = Status::Internal("not prepared");
    const auto [t4, t5] = Faster(
        [&] { p = oql::Prepare(store.shard(0).schema(), s.text, po); });
    tracer_.Record("oql.prepare", req, root, t4, t5);
    if (!p.ok()) continue;
    prepare.push_back(MsBetween(t4, t5));
    branches.push_back(static_cast<double>(p->branch_count()));

    // Route like the service: a name bound on one shard pins the
    // statement there; a name bound everywhere scatters it.
    const auto snap = store.snapshot();
    std::vector<size_t> homes;
    bool broadcast = false;
    for (const std::string& name : p->root_refs) {
      const auto bound = ShardedStore::BoundShards(*snap, name);
      if (bound.size() == 1) homes.push_back(bound[0]);
      if (bound.size() > 1) broadcast = true;
    }
    std::vector<size_t> targets;
    if (broadcast && snap->shards.size() > 1) {
      for (size_t i = 0; i < snap->shards.size(); ++i) targets.push_back(i);
    } else {
      targets.push_back(homes.empty() ? 0 : homes[0]);
    }
    const bool scatter = targets.size() > 1;
    sgmlqdb::rank::ScoringContext global;
    if (scatter && p->post != nullptr &&
        p->post->kind == sgmlqdb::rank::PostSpec::Kind::kRank) {
      global.df.resize(p->post->rank.words.size(), 0);
      for (size_t i : targets) {
        const auto local =
            sgmlqdb::rank::LocalScoring(*snap->shards[i]->rank_stats, p->post->rank);
        global.doc_count += local.doc_count;
        global.total_tokens += local.total_tokens;
        for (size_t k = 0; k < local.df.size(); ++k) global.df[k] += local.df[k];
      }
    }
    std::vector<double> per_shard;
    for (size_t i : targets) {
      sgmlqdb::calculus::EvalContext ctx = sgmlqdb::ingest::ContextFor(snap->shards[i]);
      const auto [a, b] = Faster([&] {
        if (scatter && p->post != nullptr) {
          ctx.rank_scoring = global.df.empty() ? nullptr : &global;
          (void)oql::ExecutePreparedPartial(ctx, *p, nullptr);
        } else {
          (void)oql::ExecutePrepared(ctx, *p, scatter ? nullptr : &branch_exec);
        }
      });
      tracer_.Record("oql.shard_execute.s" + std::to_string(i), req, root, a, b);
      per_shard.push_back(MsBetween(a, b));
    }
    tracer_.RecordWithId(root, "request", req, 0, t_root, Clock::now());
    const double slowest = *std::max_element(per_shard.begin(), per_shard.end());
    shard_max.push_back(slowest);
    shard_med.push_back(Median(per_shard));
    svc_self.push_back(MsBetween(t2, t3) - slowest);
    if (socket_failures == 0) net_self.push_back(MsBetween(t0, t1) - MsBetween(t2, t3));
  }
  m->Add("net.self_ms", Median(net_self), "ms");
  m->Add("service.self_ms", Median(svc_self), "ms");
  m->Add("oql.prepare_ms", Median(prepare), "ms");
  m->Add("oql.shard_execute_ms.max", Median(shard_max), "ms");
  m->Add("oql.shard_execute_ms.median", Median(shard_med), "ms");
  double branch_sum = 0;
  for (double b : branches) branch_sum += b;
  m->Add("algebra.branches_per_stmt", Ratio(branch_sum, branches.size()), "count");

  // The paper's Q1..Q8 on shard 0's snapshot, on every workload.
  const auto snap = store.snapshot();
  for (const auto& wq : sgmlqdb::corpus::PaperQueryMix()) {
    const std::string tag = std::string(wq.name).substr(0, 2);
    oql::OqlOptions po;
    po.engine = wq.engine;
    auto p = oql::Prepare(store.shard(0).schema(), wq.text, po);
    std::vector<double> ms;
    for (int rep = 0; p.ok() && rep < 5; ++rep) {
      const auto ctx = sgmlqdb::ingest::ContextFor(snap->shards[0]);
      const auto a = Clock::now();
      (void)oql::ExecutePrepared(ctx, *p, &branch_exec);
      const auto b = Clock::now();
      tracer_.Record("oql.execute." + tag, tracer_.NewRequest(), 0, a, b);
      ms.push_back(MsBetween(a, b));
    }
    m->Add("oql.execute_ms." + tag, Median(ms), "ms");
  }
}

/// Times SGML parsing and mapping on corpus articles into a scratch
/// database, and QueryService::Ingest on planned batches (which the
/// recovery check then expects like any acknowledged batch).
void Run::IngestProbes(MetricSink* m) {
  ShardedStore& store = served_->store();
  const sgmlqdb::sgml::Dtd& dtd = store.dtd();
  sgmlqdb::om::Database db(store.shard(0).schema());
  std::vector<double> parse_ms, load_ms;
  for (size_t i = 0; i < std::min<size_t>(32, corpus_.articles.size()); ++i) {
    const uint64_t req = tracer_.NewRequest();
    const auto t0 = Clock::now();
    auto doc = sgmlqdb::sgml::ParseDocument(dtd, corpus_.articles[i]);
    const auto t1 = Clock::now();
    tracer_.Record("sgml.parse", req, 0, t0, t1);
    if (!doc.ok()) continue;
    parse_ms.push_back(MsBetween(t0, t1));
    auto loaded = sgmlqdb::mapping::LoadDocument(dtd, *doc, &db);
    const auto t2 = Clock::now();
    tracer_.Record("mapping.load", req, 0, t1, t2);
    if (loaded.ok()) load_ms.push_back(MsBetween(t1, t2));
  }
  m->Add("sgml.parse_ms_per_doc", Median(parse_ms), "ms");
  m->Add("mapping.load_ms_per_doc", Median(load_ms), "ms");

  std::vector<double> batch_ms;
  for (int k = 0; k < 12; ++k) {
    std::vector<DocMutation> ops = planner_.Next();
    const auto t0 = Clock::now();
    auto r = served_->service().Ingest(ops);
    const auto t1 = Clock::now();
    tracer_.Record("service.ingest", tracer_.NewRequest(), 0, t0, t1);
    if (!r.ok()) continue;
    batch_ms.push_back(MsBetween(t0, t1));
    planner_.Commit(std::move(ops));
  }
  m->Add("ingest.batch_ms", Median(batch_ms), "ms");
}

int Run::Main() {
  const auto fail = [&](const std::string& what, const Status& st) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
                 st.ToString().c_str());
    for (const std::string& d : dirs_) fs::remove_all(d);
    return 1;
  };
  if (Status st = PrepareExpectations(); !st.ok()) return fail("reference", st);
  Phase("reference");

  // Set-up, repeated; the last one serves. On paper_mix the first one
  // becomes the restart fixture.
  const bool fixture = w_.window_restarts > 0;
  std::vector<double> setup_s;
  const size_t repeats = args_.trace ? 1 + fixture : w_.setup_repeats;
  for (size_t i = 0; i < repeats; ++i) {
    if (served_) served_->Stop();
    served_.reset();
    const std::string dir = FreshDir();
    const auto t0 = Clock::now();
    auto s = Setup(dir);
    if (!s.ok()) return fail("setup", s.status());
    setup_s.push_back(MsSince(t0) / 1000.0);
    served_ = std::move(s).value();
    if (i == 0 && fixture) {
      WriteTally tail;
      WriterLoop(served_->http_port(), 0, Clock::time_point::max(),
                 kTailBatches, &fixture_planner_, &tail, &tracer_);
      if (tail.t.ok != kTailBatches) {
        return fail("fixture", Status::Internal("fixture batch failed: " +
                                                tail.t.first_wrong));
      }
      served_->Stop();
      served_.reset();
      fixture_dir_ = dir;
    } else if (i + 1 < repeats) {
      served_->Stop();
      served_.reset();
      fs::remove_all(dir);
    }
  }
  const std::string serve_dir = dirs_.back();
  Phase("setup");
  if (Status st = Warm(); !st.ok()) return fail("warm-up", st);

  MetricSink m;
  Tally reads;
  WriteTally writes;
  double window_s = args_.seconds;
  Counters before, after;
  Tally untraced_reads;
  Status read_status;
  if (!args_.trace) {
    read_status = ReadSliced(window_s, w_.window_restarts, &reads, &writes);
  } else {
    // Half untraced, half traced: the difference is the overhead. Where
    // restarts run in the window, each half ends with one.
    window_s = args_.seconds / 2;
    const size_t restarts = std::min<size_t>(1, w_.window_restarts);
    WriteTally untraced_writes;
    read_status = ReadSliced(window_s, restarts, &untraced_reads, &untraced_writes);
    before = Snap(*served_, planner_);
    tracer_.set_enabled(true);
    if (read_status.ok()) {
      read_status = ReadSliced(window_s, restarts, &reads, &writes);
    }
    after = Snap(*served_, planner_);
    writes.t.Merge(untraced_writes.t);
    writes.late_ms.insert(writes.late_ms.end(), untraced_writes.late_ms.begin(),
                          untraced_writes.late_ms.end());
  }
  if (!read_status.ok()) return fail("recover", read_status);
  const double rss_mb = ResidentMiB();
  Phase("read window");

  // After-window write phase (paper_mix, text_search).
  const Counters write_before =
      w_.traffic == Traffic::kIngestMix ? before : Snap(*served_, planner_);
  if (w_.write_batches > 0) WritePhase(&writes);
  Phase("write phase");
  const Counters write_after =
      w_.traffic == Traffic::kIngestMix ? after : Snap(*served_, planner_);

  if (args_.trace) {
    AddCounterMetrics(before, after, write_before, write_after,
                      served_->service().stats().IngestHistory(), &m);
    m.Add("loadgen.ingest_late_ms", Quantile(writes.late_ms, 0.99), "ms");

    LayerProbes(&m);
    IngestProbes(&m);
    Phase("layer probes");
  }
  if (w_.write_batches > 0 && !fixture) {
    if (Status st = CheckpointAndWriteTail(&writes); !st.ok()) {
      return fail("checkpoint", st);
    }
  }
  if (args_.trace) {
    const WindowFigures a = SliceMedians(untraced_reads, window_s);
    const WindowFigures b = SliceMedians(reads, window_s);
    m.Add("trace.overhead_pct.query_p50_ms",
          100.0 * Ratio(b.p50_ms - a.p50_ms, a.p50_ms), "%");
    m.Add("trace.overhead_pct.query_qps", 100.0 * Ratio(a.qps - b.qps, a.qps), "%");
    reads.Merge(untraced_reads);
  }

  // Restarts of the served dir, stopped with no final checkpoint:
  // text_search replays its tail, ingest_mix every batch since the
  // post-load checkpoint.
  const size_t restarts = args_.trace ? 1 : w_.restart_repeats;
  if (recover_s_.size() < restarts) {
    for (size_t i = recover_s_.size(); i < restarts; ++i) {
      served_.reset();
      auto r = Restart(serve_dir);
      if (!r.ok()) return fail("recover", r.status());
      served_ = std::move(r).value();
    }
    Phase("restart");
    if (!recovery_) {
      recovery_ = RecoveryCheck(planner_, *served_);
    }
    Phase("recovery check");
  }
  served_.reset();
  for (const std::string& d : dirs_) fs::remove_all(d);
  const Status recovery = recovery_.value_or(Status::Internal("no restart"));

  if (args_.trace) {
    m.Add("wal.replayed_batches", static_cast<double>(replayed_), "count");
  } else {
    m.Add("setup_s", Median(setup_s), "s");
    const WindowFigures f = SliceMedians(reads, window_s);
    m.Add("query_p50_ms", f.p50_ms, "ms");
    // p95, not p99: on a shared host the p99 of text_search spread
    // wider than any bound the harness allows.
    m.Add("query_p95_ms", f.p95_ms, "ms");
    m.Add("query_qps", f.qps, "1/s");
    m.Add("query_ok_ratio", Ratio(reads.ok, reads.attempted), "ratio");
    m.Add("ingest_p50_ms", Median(writes.t.lat_ms), "ms");
    // p75: a run holds 40-45 batches, so p75 still has ten beyond it.
    m.Add("ingest_p75_ms", Quantile(writes.t.lat_ms, 0.75), "ms");
    m.Add("ingest_ok_ratio", Ratio(writes.t.ok, writes.t.attempted), "ratio");
    m.Add("recover_s", Median(recover_s_), "s");
    m.Add("rss_mb", rss_mb, "MiB");
  }

  Tally all = reads;
  all.Merge(writes.t);
  bool correct = all.wrong == 0;
  if (!all.first_wrong.empty()) {
    std::fprintf(stderr, "perfbench: first failure: %s\n",
                 all.first_wrong.substr(0, 400).c_str());
  }
  if (!recovery.ok()) {
    correct = false;
    std::fprintf(stderr, "perfbench: recovery check: %s\n",
                 recovery.ToString().c_str());
  }

  std::string stamp = "{\"workload\":\"" + std::string(w_.name) +
                      "\",\"seed\":" + std::to_string(args_.seed) +
                      ",\"seconds\":" + std::to_string(args_.seconds) +
                      ",\"trace\":" + (args_.trace ? "1" : "0") +
                      ",\"host\":\"" + JsonEscape(HostName()) +
                      "\",\"nproc\":" +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"" +
                      ",\"queries\":" + std::to_string(reads.attempted) +
                      ",\"ingest_batches\":" + std::to_string(writes.t.attempted) +
                      "}";
  std::printf("stamp %s\n", stamp.c_str());
  std::printf("counts reads ok=%llu busy=%llu errors=%llu wrong=%llu; writes ok=%llu busy=%llu errors=%llu\n",
              (unsigned long long)reads.ok, (unsigned long long)reads.busy,
              (unsigned long long)reads.errors, (unsigned long long)reads.wrong,
              (unsigned long long)writes.t.ok, (unsigned long long)writes.t.busy,
              (unsigned long long)writes.t.errors);
  if (args_.trace) {
    const std::string path = args_.out_dir + "/trace-" + w_.name + "-seed" +
                             std::to_string(args_.seed) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\"stamp\":%s,\n\"metrics\":%s,\n\"spans\":[\n",
                   stamp.c_str(), m.CountersJson().c_str());
      const auto spans = tracer_.spans();
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                     "\"request\":%llu,\"start_us\":%.1f,\"end_us\":%.1f}\n",
                     i ? "," : "", s.name.c_str(), (unsigned long long)s.id,
                     (unsigned long long)s.parent,
                     (unsigned long long)s.request, s.start_us, s.end_us);
      }
      std::fprintf(f, "]}\n");
      std::fclose(f);
      std::printf("trace %s (%zu spans)\n", path.c_str(), spans.size());
    }
  }
  m.PrintLines();
  std::printf("%s\n", m.ResultJson(correct, all.attempted, all.failed()).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_mix|text_search|ingest_mix "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return perfbench::Usage();
  // Numbers from an unoptimized build are not comparable; refuse them.
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const perfbench::Workload* w = nullptr;
  for (const auto& candidate : perfbench::kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) return perfbench::Usage();
  std::signal(SIGPIPE, SIG_IGN);
  std::filesystem::create_directories(args.out_dir);
  perfbench::Run run(*w, args);
  return run.Main();
}
