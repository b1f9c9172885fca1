#include "core/document_store.h"

#include <chrono>

#include "base/fault_injection.h"
#include "mapping/exporter.h"
#include "mapping/loader.h"
#include "mapping/names.h"
#include "mapping/schema_compiler.h"
#include "om/typecheck.h"

namespace sgmlqdb {

std::shared_ptr<const ingest::StoreSnapshot> DocumentStore::state() const {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (state_ != nullptr) return state_;
  }
  return snapshots_.Current();
}

Status DocumentStore::LoadDtd(std::string_view dtd_text) {
  if (frozen()) {
    return Status::Unavailable("store is frozen: LoadDtd is not allowed "
                               "after serving starts");
  }
  if (dtd_.has_value()) {
    return Status::InvalidArgument("a DTD is already loaded");
  }
  SGMLQDB_ASSIGN_OR_RETURN(sgml::Dtd dtd, sgml::ParseDtd(dtd_text));
  SGMLQDB_ASSIGN_OR_RETURN(om::Schema schema,
                           mapping::CompileDtdToSchema(dtd));
  dtd_ = std::move(dtd);
  dtd_text_ = std::string(dtd_text);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    state_ = ingest::StoreSnapshot::Initial(std::move(schema));
  }
  if (wal_ != nullptr) {
    SGMLQDB_RETURN_IF_ERROR(wal_->LogDtd(dtd_text));
  }
  return Status::OK();
}

Result<om::ObjectId> DocumentStore::LoadDocument(std::string_view sgml_text,
                                                 std::string_view name,
                                                 uint64_t oid_base) {
  if (frozen()) {
    return Status::Unavailable("store is frozen: LoadDocument is not "
                               "allowed after serving starts; use "
                               "BeginIngest/PublishIngest");
  }
  if (!dtd_.has_value()) {
    return Status::InvalidArgument("load a DTD first");
  }
  ingest::StoreSnapshot* ws = state_.get();
  om::Database* db = ws->db.get();
  // A caller-assigned oid block: number this document's objects from
  // `oid_base` (refused if any oid there was already assigned).
  if (oid_base != 0) {
    SGMLQDB_RETURN_IF_ERROR(db->SetNextOid(oid_base));
  }
  // Declare the per-document persistence name so its binding
  // typechecks against the doctype's class.
  if (!name.empty() && db->schema().FindName(name) == nullptr) {
    SGMLQDB_RETURN_IF_ERROR(db->DeclareName(
        std::string(name),
        om::Type::Class(mapping::ClassNameFor(dtd_->doctype()))));
  }
  SGMLQDB_ASSIGN_OR_RETURN(
      mapping::LoadedDocument loaded,
      mapping::LoadDocumentText(*dtd_, sgml_text, db));
  // Conformance check: types + Figure 3 constraints.
  SGMLQDB_RETURN_IF_ERROR(om::CheckConstraints(*db, loaded.root));
  std::vector<std::pair<uint64_t, std::string_view>> rank_units;
  rank_units.reserve(loaded.element_texts.size());
  for (const auto& [oid, text] : loaded.element_texts) {
    (*ws->element_texts)[oid.id()] = text;
    (*ws->unit_docs)[oid.id()] = loaded.root.id();
    ws->index->Add(oid.id(), text);
    rank_units.emplace_back(oid.id(), text);
  }
  ws->rank_stats->AddDocument(loaded.root.id(), rank_units);
  if (!name.empty()) {
    SGMLQDB_RETURN_IF_ERROR(
        db->BindName(name, om::Value::Object(loaded.root)));
  }
  ++ws->doc_count;
  // Advancing the epoch retires cached candidate sets (they are
  // snapshots of the index) without discarding the cache itself.
  ws->epoch = snapshots_.AdvanceEpoch();
  ws->cache->SetLiveEpochFloor(ws->epoch);
  if (wal_ != nullptr) {
    std::vector<wal::LoggedOp> ops;
    ops.push_back({wal::LoggedOp::Kind::kLoad, std::string(name),
                   std::string(sgml_text), oid_base});
    SGMLQDB_RETURN_IF_ERROR(
        wal_->LogBatch(ops, {0}, ++wal_doc_seq_, ws->epoch));
  }
  return loaded.root;
}

Status DocumentStore::DeclareDocumentName(std::string_view name) {
  if (frozen()) {
    return Status::Unavailable("store is frozen: declare names through "
                               "an ingest session");
  }
  if (!dtd_.has_value()) {
    return Status::InvalidArgument("load a DTD first");
  }
  if (name.empty()) return Status::OK();
  om::Database* db = state_->db.get();
  if (db->schema().FindName(name) != nullptr) return Status::OK();
  return db->DeclareName(
      std::string(name),
      om::Type::Class(mapping::ClassNameFor(dtd_->doctype())));
}

void DocumentStore::Freeze() {
  if (frozen_.exchange(true, std::memory_order_acq_rel)) return;
  std::lock_guard<std::mutex> lock(state_mu_);
  if (state_ == nullptr) {
    // Frozen before LoadDtd: nothing to publish; the store is inert.
    return;
  }
  // The degenerate single-epoch case: the load workspace becomes the
  // first served version. The store drops its own reference — from
  // here on only the manager and pinned statements hold snapshots, so
  // the min-live-epoch accounting sees exactly the reader pins.
  snapshots_.Publish(std::move(state_));
  state_ = nullptr;
}

Result<std::unique_ptr<ingest::IngestSession>> DocumentStore::BeginIngest() {
  if (!dtd_.has_value()) {
    return Status::InvalidArgument("load a DTD first");
  }
  if (!frozen()) {
    return Status::InvalidArgument(
        "store is not frozen: use LoadDocument while loading, "
        "BeginIngest only after Freeze()");
  }
  bool expected = false;
  if (!ingest_active_.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
    return Status::Unavailable("another ingest session is active "
                               "(single-writer ingestion)");
  }
  return std::make_unique<ingest::IngestSession>(
      *dtd_, snapshots_.Current(),
      [this] { ingest_active_.store(false, std::memory_order_release); });
}

Result<uint64_t> DocumentStore::PublishIngest(
    std::unique_ptr<ingest::IngestSession> session) {
  if (session == nullptr) {
    return Status::InvalidArgument("null ingest session");
  }
  if (session->consumed()) {
    return Status::InvalidArgument("ingest session already published");
  }
  SGMLQDB_FAULT_POINT("ingest.publish");
  // fsync-before-publish: the batch's journal must be durable before
  // any reader can observe the new epoch. A log failure rejects the
  // publish outright — the served state stays at the old epoch.
  if (wal_ != nullptr && !session->journal().empty()) {
    uint64_t consumed = 0;
    for (const wal::LoggedOp& op : session->journal()) {
      if (op.kind == wal::LoggedOp::Kind::kLoad ||
          op.kind == wal::LoggedOp::Kind::kReplace) {
        consumed++;
      }
    }
    SGMLQDB_RETURN_IF_ERROR(wal_->LogBatch(session->journal(), {0},
                                           wal_doc_seq_ + consumed,
                                           epoch() + 1));
    wal_doc_seq_ += consumed;
  }
  std::shared_ptr<ingest::StoreSnapshot> next = session->Consume();
  if (next == nullptr) {
    return Status::InvalidArgument("ingest session already published");
  }
  uint64_t epoch = snapshots_.Publish(std::move(next));
  // Only now release the writer latch: a second writer that began
  // before the publish would clone the old epoch and drop this batch.
  session.reset();
  return epoch;
}

std::shared_ptr<const ingest::StoreSnapshot> DocumentStore::snapshot() const {
  return state();
}

size_t DocumentStore::document_count() const {
  auto snap = state();
  return snap == nullptr ? 0 : snap->doc_count;
}

text::TextQueryCache::CacheStats DocumentStore::text_cache_stats() const {
  auto snap = state();
  if (snap == nullptr || snap->cache == nullptr) return {};
  return snap->cache->stats();
}

Result<om::Value> DocumentStore::Query(std::string_view statement,
                                       oql::Engine engine) const {
  QueryOptions options;
  options.engine = engine;
  return Query(statement, options);
}

Status DocumentStore::ValidateOptions(const QueryOptions& options) {
  if (options.engine == oql::Engine::kAlgebraic &&
      options.semantics == path::PathSemantics::kLiberal) {
    return Status::InvalidArgument(
        "liberal path semantics is only supported by the naive engine: "
        "the algebraic expansion (paper §5.4) requires the restricted "
        "semantics' schema-bounded path sets; use Engine::kNaive or "
        "PathSemantics::kRestricted");
  }
  return Status::OK();
}

Result<om::Value> DocumentStore::Query(std::string_view statement,
                                       const QueryOptions& options) const {
  SGMLQDB_RETURN_IF_ERROR(ValidateOptions(options));
  std::shared_ptr<const ingest::StoreSnapshot> snap = snapshot();
  if (snap == nullptr) {
    return Status::InvalidArgument("load a DTD first");
  }
  const om::Schema& schema = snap->db->schema();
  calculus::EvalContext ctx = ingest::ContextFor(snap);
  ctx.semantics = options.semantics;
  // Single-statement use gets the same cooperative limits as the
  // service layer; the guard lives for this call only.
  std::optional<ExecGuard> guard;
  if (options.HasLimits()) {
    guard.emplace(ExecGuard::Limits{options.timeout_ms, options.max_rows,
                                    options.max_steps});
    ctx.guard = &*guard;
  }
  oql::OqlOptions oql_options;
  oql_options.engine = options.engine;
  oql_options.optimize = options.optimize;
  return oql::ExecuteOql(ctx, schema, statement, oql_options);
}

Result<std::string> DocumentStore::ExportSgml(om::ObjectId root) const {
  if (!dtd_.has_value()) {
    return Status::InvalidArgument("load a DTD first");
  }
  auto snap = snapshot();
  return mapping::ExportDocumentText(*snap->db, *dtd_, root);
}

Result<std::string> DocumentStore::TextOf(om::ObjectId oid) const {
  auto snap = snapshot();
  if (snap == nullptr) {
    return Status::InvalidArgument("load a DTD first");
  }
  auto it = snap->element_texts->find(oid.id());
  if (it == snap->element_texts->end()) {
    return Status::NotFound("no text recorded for oid " +
                            std::to_string(oid.id()));
  }
  return it->second;
}

calculus::EvalContext DocumentStore::eval_context() const {
  return ingest::ContextFor(snapshot());
}

Result<std::vector<DocumentStore::DumpedDocument>>
DocumentStore::DumpDocuments() const {
  std::vector<DumpedDocument> out;
  if (!dtd_.has_value()) return out;
  std::shared_ptr<const ingest::StoreSnapshot> snap = snapshot();
  if (snap == nullptr) return out;
  const om::Database& db = *snap->db;

  // Smallest unit oid per document root. Every element object the
  // loader creates is a unit (it records the object and its inner
  // text in one step), so the minimum is the document's first oid.
  std::map<uint64_t, uint64_t> first_oid;  // root -> min unit oid
  for (const auto& [unit, root] : *snap->unit_docs) {
    auto [it, inserted] = first_oid.emplace(root, unit);
    if (!inserted && unit < it->second) it->second = unit;
  }
  // Reverse name bindings: root oid -> per-document persistence name.
  const std::string root_name = mapping::RootNameFor(dtd_->doctype());
  std::map<uint64_t, std::string> name_of;
  for (const std::string& bound : db.BoundNames()) {
    if (bound == root_name) continue;
    Result<om::Value> v = db.LookupName(bound);
    if (v.ok() && v.value().kind() == om::ValueKind::kObject) {
      name_of[v.value().AsObject().id()] = bound;
    }
  }

  Result<om::Value> roots = db.LookupName(root_name);
  if (!roots.ok() || roots.value().kind() != om::ValueKind::kList) {
    return out;  // no documents loaded yet
  }
  out.reserve(roots.value().size());
  for (size_t i = 0; i < roots.value().size(); ++i) {
    om::Value v = roots.value().Element(i);
    if (v.kind() != om::ValueKind::kObject) continue;
    const om::ObjectId root = v.AsObject();
    DumpedDocument doc;
    auto name_it = name_of.find(root.id());
    if (name_it != name_of.end()) doc.name = name_it->second;
    auto oid_it = first_oid.find(root.id());
    doc.first_oid = oid_it != first_oid.end() ? oid_it->second : root.id();
    SGMLQDB_ASSIGN_OR_RETURN(doc.sgml,
                             mapping::ExportDocumentText(db, *dtd_, root));
    out.push_back(std::move(doc));
  }
  return out;
}

std::vector<std::string> DocumentStore::DeclaredNames() const {
  std::vector<std::string> out;
  std::shared_ptr<const ingest::StoreSnapshot> snap = snapshot();
  if (snap == nullptr) return out;
  for (const om::NameDef& def : snap->db->schema().names()) {
    if (def.type.kind() == om::TypeKind::kClass) out.push_back(def.name);
  }
  return out;
}

uint64_t DocumentStore::next_oid() const {
  std::shared_ptr<const ingest::StoreSnapshot> snap = snapshot();
  return snap == nullptr ? 1 : snap->db->next_oid();
}

Status DocumentStore::SetNextOid(uint64_t next) {
  if (frozen()) {
    return Status::Unavailable("store is frozen: oids advance through "
                               "ingest sessions");
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  if (state_ == nullptr) {
    return Status::InvalidArgument("load a DTD first");
  }
  return state_->db->SetNextOid(next);
}

Status DocumentStore::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("no durability manager attached");
  }
  // Exclude concurrent writers: the checkpoint must capture a version
  // no session is about to supersede mid-dump.
  bool expected = false;
  if (frozen() && !ingest_active_.compare_exchange_strong(
                      expected, true, std::memory_order_acq_rel)) {
    return Status::Unavailable("an ingest session is active");
  }
  Status result;
  {
    wal::CheckpointState state;
    state.doc_seq = wal_doc_seq_;
    state.dtd_text = dtd_text_;
    state.declared_names = DeclaredNames();
    wal::CheckpointShard shard;
    shard.epoch = epoch();
    shard.next_oid = next_oid();
    Result<std::vector<DumpedDocument>> docs = DumpDocuments();
    if (!docs.ok()) {
      result = docs.status();
    } else {
      shard.docs.reserve(docs->size());
      for (DumpedDocument& doc : *docs) {
        shard.docs.push_back(
            {std::move(doc.name), doc.first_oid, std::move(doc.sgml)});
      }
      state.shards.push_back(std::move(shard));
      state.shard_count = 1;
      result = wal_->Checkpoint(std::move(state));
    }
  }
  if (frozen()) ingest_active_.store(false, std::memory_order_release);
  return result;
}

}  // namespace sgmlqdb
