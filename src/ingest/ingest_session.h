// IngestSession: the single-writer side of live ingestion.
//
// A session clones the published snapshot into a private workspace
// (copy-on-write where it counts: Values share their immutable reps,
// and the inverted index shares postings per term until a term is
// touched) and applies LoadDocument / ReplaceDocument /
// RemoveDocument to the clone. Readers never see the workspace; the
// paper's whole load pipeline (parse, validate, map, conformance
// check) runs unchanged against the cloned database. Publishing is
// DocumentStore::PublishIngest, which hands the finished workspace to
// the SnapshotManager for the atomic epoch swap.
//
// Index maintenance is incremental: loading a document Add()s its
// units to the cloned index; removing one finds its units by the unit
// range the corpus stats keep for its root and hands them to one
// InvertedIndex::RemoveDocument call, which re-tokenizes only the
// removed texts and splices each affected postings list once — no
// full rebuild, ever. The index's maintenance_stats() prove it. The
// clone itself still copies the database, element_texts and unit_docs
// in full, so opening a session costs O(store).

#ifndef SGMLQDB_INGEST_INGEST_SESSION_H_
#define SGMLQDB_INGEST_INGEST_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include <vector>

#include "base/status.h"
#include "ingest/snapshot.h"
#include "sgml/dtd.h"
#include "wal/format.h"

namespace sgmlqdb {
class DocumentStore;
}  // namespace sgmlqdb

namespace sgmlqdb::ingest {

class IngestSession {
 public:
  struct Stats {
    size_t docs_loaded = 0;
    size_t docs_replaced = 0;
    size_t docs_removed = 0;
    uint64_t units_added = 0;
    uint64_t units_removed = 0;
  };

  /// Opens a session over `base` (the snapshot the workspace is
  /// cloned from). `release` fires exactly once, on destruction —
  /// after PublishIngest has published, or when the session is
  /// abandoned — and is how DocumentStore clears its single-writer
  /// latch. Use DocumentStore::BeginIngest rather than constructing
  /// directly.
  IngestSession(const sgml::Dtd& dtd,
                std::shared_ptr<const StoreSnapshot> base,
                std::function<void()> release);
  IngestSession(const IngestSession&) = delete;
  IngestSession& operator=(const IngestSession&) = delete;
  ~IngestSession();

  /// Parses, validates and loads a document into the workspace —
  /// the same pipeline as the pre-freeze DocumentStore::LoadDocument,
  /// against the cloned database. `name` optionally binds the root.
  /// `oid_base` != 0 numbers the document's objects from that oid
  /// (the sharded store's per-document oid blocks; must be past every
  /// assigned oid); 0 = continue numbering.
  Result<om::ObjectId> LoadDocument(std::string_view sgml_text,
                                    std::string_view name = "",
                                    uint64_t oid_base = 0);

  /// Removes the named document and loads `sgml_text` under the same
  /// name. The replacement gets fresh oids (oids are never reused;
  /// `oid_base` as in LoadDocument).
  Result<om::ObjectId> ReplaceDocument(std::string_view name,
                                       std::string_view sgml_text,
                                       uint64_t oid_base = 0);

  /// Declares a per-document persistence name (typed as the doctype's
  /// class) without binding it — how the sharded store makes every
  /// shard's schema know every document name while only the home
  /// shard binds it. Idempotent.
  Status DeclareName(std::string_view name);

  /// Removes the document bound to `name`: all its element objects,
  /// texts, index postings, its entry in the doctype's persistence
  /// root list, and the name binding itself.
  Status RemoveDocument(std::string_view name);

  /// Same, addressing the document by its root object (for unnamed
  /// documents).
  Status RemoveDocumentRoot(om::ObjectId root);

  const Stats& stats() const { return stats_; }
  /// Op journal for the durability layer: every successful mutation,
  /// in apply order. A replace journals as one kReplace (not its
  /// internal remove+load pair), so replaying the journal through a
  /// fresh session reproduces the workspace exactly.
  const std::vector<wal::LoggedOp>& journal() const { return journal_; }
  uint64_t base_epoch() const { return base_epoch_; }
  /// Documents the workspace currently holds.
  size_t doc_count() const { return work_ == nullptr ? 0 : work_->doc_count; }
  /// True once the workspace was handed over for publishing.
  bool consumed() const { return work_ == nullptr; }

 private:
  friend class sgmlqdb::DocumentStore;

  /// Hands the workspace over for publishing (the session becomes
  /// inert). The release hook does not fire here but on destruction,
  /// after the caller has published.
  std::shared_ptr<StoreSnapshot> Consume();

  const sgml::Dtd& dtd_;
  uint64_t base_epoch_ = 0;
  std::shared_ptr<StoreSnapshot> work_;  // null once consumed
  std::function<void()> release_;
  Stats stats_;
  std::vector<wal::LoggedOp> journal_;
  /// > 0 while inside a compound verb (replace = remove + load): the
  /// nested calls' journal entries are suppressed in favor of the
  /// compound's single entry.
  int journal_depth_ = 0;
};

}  // namespace sgmlqdb::ingest

#endif  // SGMLQDB_INGEST_INGEST_SESSION_H_
