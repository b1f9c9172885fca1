#include "ingest/ingest_session.h"

#include <utility>
#include <vector>

#include "base/fault_injection.h"
#include "mapping/loader.h"
#include "mapping/names.h"
#include "om/typecheck.h"

namespace sgmlqdb::ingest {

using om::ObjectId;
using om::Value;

namespace {

/// Bumps the session's journal depth for one compound verb.
class JournalScope {
 public:
  explicit JournalScope(int* depth) : depth_(depth) { ++*depth_; }
  ~JournalScope() { --*depth_; }
  JournalScope(const JournalScope&) = delete;
  JournalScope& operator=(const JournalScope&) = delete;

 private:
  int* depth_;
};

}  // namespace

IngestSession::IngestSession(const sgml::Dtd& dtd,
                             std::shared_ptr<const StoreSnapshot> base,
                             std::function<void()> release)
    : dtd_(dtd), base_epoch_(base->epoch), release_(std::move(release)) {
  // Clone the published version into the private workspace. The
  // database clone shares every Value rep; the index clone shares
  // every untouched postings list; the two maps are copied outright
  // (node-per-unit, no text re-tokenization).
  work_ = std::make_shared<StoreSnapshot>();
  work_->db = std::shared_ptr<om::Database>(base->db->Clone());
  work_->element_texts =
      std::make_shared<std::map<uint64_t, std::string>>(*base->element_texts);
  work_->unit_docs =
      std::make_shared<std::map<uint64_t, uint64_t>>(*base->unit_docs);
  work_->index = std::make_shared<text::InvertedIndex>(*base->index);
  work_->rank_stats = std::make_shared<rank::CorpusStats>(*base->rank_stats);
  work_->cache = base->cache;  // shared, epoch-keyed
  work_->doc_count = base->doc_count;
}

IngestSession::~IngestSession() {
  if (release_ != nullptr) {
    release_();
    release_ = nullptr;
  }
}

std::shared_ptr<StoreSnapshot> IngestSession::Consume() {
  // The latch stays held: the session's owner (PublishIngest) destroys
  // it only after the snapshot is published, so the next writer always
  // clones the epoch this one produced.
  std::shared_ptr<StoreSnapshot> out = std::move(work_);
  work_ = nullptr;
  return out;
}

Status IngestSession::DeclareName(std::string_view name) {
  if (work_ == nullptr) {
    return Status::InvalidArgument("ingest session already published");
  }
  if (name.empty()) return Status::OK();
  om::Database* db = work_->db.get();
  if (db->schema().FindName(name) != nullptr) return Status::OK();
  SGMLQDB_RETURN_IF_ERROR(db->DeclareName(
      std::string(name),
      om::Type::Class(mapping::ClassNameFor(dtd_.doctype()))));
  if (journal_depth_ == 0) {
    journal_.push_back({wal::LoggedOp::Kind::kDeclare, std::string(name),
                        std::string(), 0});
  }
  return Status::OK();
}

Result<ObjectId> IngestSession::LoadDocument(std::string_view sgml_text,
                                             std::string_view name,
                                             uint64_t oid_base) {
  if (work_ == nullptr) {
    return Status::InvalidArgument("ingest session already published");
  }
  // Fault site: an apply failure must leave the published store
  // untouched (the workspace is private, so nothing to undo).
  SGMLQDB_FAULT_POINT("ingest.apply");
  om::Database* db = work_->db.get();
  if (oid_base != 0) {
    SGMLQDB_RETURN_IF_ERROR(db->SetNextOid(oid_base));
  }
  if (!name.empty() && db->schema().FindName(name) == nullptr) {
    SGMLQDB_RETURN_IF_ERROR(db->DeclareName(
        std::string(name),
        om::Type::Class(mapping::ClassNameFor(dtd_.doctype()))));
  }
  SGMLQDB_ASSIGN_OR_RETURN(mapping::LoadedDocument loaded,
                           mapping::LoadDocumentText(dtd_, sgml_text, db));
  SGMLQDB_RETURN_IF_ERROR(om::CheckConstraints(*db, loaded.root));
  std::vector<std::pair<uint64_t, std::string_view>> rank_units;
  rank_units.reserve(loaded.element_texts.size());
  for (const auto& [oid, text] : loaded.element_texts) {
    (*work_->element_texts)[oid.id()] = text;
    (*work_->unit_docs)[oid.id()] = loaded.root.id();
    work_->index->Add(oid.id(), text);
    rank_units.emplace_back(oid.id(), text);
    ++stats_.units_added;
  }
  work_->rank_stats->AddDocument(loaded.root.id(), rank_units);
  if (!name.empty()) {
    SGMLQDB_RETURN_IF_ERROR(db->BindName(name, Value::Object(loaded.root)));
  }
  ++work_->doc_count;
  ++stats_.docs_loaded;
  if (journal_depth_ == 0) {
    journal_.push_back({wal::LoggedOp::Kind::kLoad, std::string(name),
                        std::string(sgml_text), oid_base});
  }
  return loaded.root;
}

Status IngestSession::RemoveDocumentRoot(ObjectId root) {
  if (work_ == nullptr) {
    return Status::InvalidArgument("ingest session already published");
  }
  SGMLQDB_FAULT_POINT("ingest.apply");
  om::Database* db = work_->db.get();
  // Every element object of the document is a unit mapped to the
  // root's oid (including the root itself), inside the unit range the
  // corpus stats' document table keeps for the root.
  const rank::CorpusStats::DocEntry* doc =
      work_->rank_stats->FindDoc(root.id());
  std::vector<uint64_t> units;
  if (doc != nullptr) {
    for (auto it = work_->unit_docs->lower_bound(doc->first_unit);
         it != work_->unit_docs->end() && it->first <= doc->last_unit; ++it) {
      if (it->second == root.id()) units.push_back(it->first);
    }
  }
  if (units.empty()) {
    return Status::NotFound("oid " + std::to_string(root.id()) +
                            " is not a loaded document root");
  }
  // Un-account the document before its texts are erased (the stats
  // and the index re-tokenize exactly the removed texts —
  // delta-proportional).
  std::vector<std::pair<uint64_t, std::string_view>> texts;
  texts.reserve(units.size());
  for (uint64_t unit : units) {
    auto text_it = work_->element_texts->find(unit);
    if (text_it != work_->element_texts->end()) {
      texts.emplace_back(unit, text_it->second);
    }
  }
  work_->rank_stats->RemoveDocument(root.id(), texts);
  work_->index->RemoveDocument(texts);
  for (uint64_t unit : units) {
    work_->element_texts->erase(unit);
    work_->unit_docs->erase(unit);
    SGMLQDB_RETURN_IF_ERROR(db->RemoveObject(ObjectId(unit)));
    ++stats_.units_removed;
  }
  // Drop the root from the doctype's persistence list (`Articles`).
  const std::string root_name = mapping::RootNameFor(dtd_.doctype());
  Result<Value> list = db->LookupName(root_name);
  if (list.ok() && list.value().kind() == om::ValueKind::kList) {
    std::vector<Value> kept;
    for (size_t i = 0; i < list.value().size(); ++i) {
      Value v = list.value().Element(i);
      if (v.kind() == om::ValueKind::kObject && v.AsObject() == root) continue;
      kept.push_back(std::move(v));
    }
    SGMLQDB_RETURN_IF_ERROR(
        db->BindName(root_name, Value::List(std::move(kept))));
  }
  // Unbind any per-document persistence name pointing at the root.
  for (const std::string& bound : db->BoundNames()) {
    if (bound == root_name) continue;
    Result<Value> v = db->LookupName(bound);
    if (v.ok() && v.value().kind() == om::ValueKind::kObject &&
        v.value().AsObject() == root) {
      SGMLQDB_RETURN_IF_ERROR(db->UnbindName(bound));
    }
  }
  --work_->doc_count;
  ++stats_.docs_removed;
  if (journal_depth_ == 0) {
    journal_.push_back({wal::LoggedOp::Kind::kRemoveRoot, std::string(),
                        std::string(), root.id()});
  }
  return Status::OK();
}

Status IngestSession::RemoveDocument(std::string_view name) {
  if (work_ == nullptr) {
    return Status::InvalidArgument("ingest session already published");
  }
  Result<Value> bound = work_->db->LookupName(name);
  if (!bound.ok() || bound.value().kind() != om::ValueKind::kObject) {
    return Status::NotFound("'" + std::string(name) +
                            "' does not name a loaded document");
  }
  {
    JournalScope scope(&journal_depth_);
    SGMLQDB_RETURN_IF_ERROR(RemoveDocumentRoot(bound.value().AsObject()));
  }
  if (journal_depth_ == 0) {
    journal_.push_back({wal::LoggedOp::Kind::kRemove, std::string(name),
                        std::string(), 0});
  }
  return Status::OK();
}

Result<ObjectId> IngestSession::ReplaceDocument(std::string_view name,
                                                std::string_view sgml_text,
                                                uint64_t oid_base) {
  Result<ObjectId> root = Status::Internal("unreachable");
  {
    JournalScope scope(&journal_depth_);
    Status removed = RemoveDocument(name);
    if (!removed.ok()) return removed;
    root = LoadDocument(sgml_text, name, oid_base);
  }
  if (root.ok()) {
    // The remove/load pair is one logical replace.
    --stats_.docs_removed;
    --stats_.docs_loaded;
    ++stats_.docs_replaced;
    if (journal_depth_ == 0) {
      journal_.push_back({wal::LoggedOp::Kind::kReplace, std::string(name),
                          std::string(sgml_text), oid_base});
    }
  }
  return root;
}

}  // namespace sgmlqdb::ingest
