#include "core/sharded_store.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "algebra/ops.h"

namespace sgmlqdb {

namespace {

/// Fires a callable at scope exit (the facade latch release).
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;
  ~ScopeExit() { fn_(); }

 private:
  Fn fn_;
};

}  // namespace

ShardedStore::ShardedStore(size_t shards) : assign_oid_blocks_(true) {
  if (shards == 0) shards = 1;
  owned_.reserve(shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    owned_.push_back(std::make_unique<DocumentStore>());
    shards_.push_back(owned_.back().get());
  }
}

ShardedStore::ShardedStore(DocumentStore& external)
    : assign_oid_blocks_(false) {
  shards_.push_back(&external);
}

Status ShardedStore::LoadDtd(std::string_view dtd_text) {
  for (DocumentStore* shard : shards_) {
    SGMLQDB_RETURN_IF_ERROR(shard->LoadDtd(dtd_text));
  }
  dtd_text_ = std::string(dtd_text);
  if (wal_ != nullptr) {
    SGMLQDB_RETURN_IF_ERROR(wal_->LogDtd(dtd_text));
  }
  return Status::OK();
}

Result<om::ObjectId> ShardedStore::LoadDocument(std::string_view sgml_text,
                                                std::string_view name) {
  const uint64_t seq = doc_seq_.fetch_add(1, std::memory_order_relaxed);
  size_t target = static_cast<size_t>(seq % shards_.size());
  if (!name.empty()) {
    // A reload of an already-bound name must land on its home shard
    // (rebinding elsewhere would leave two shards claiming the name).
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i]->has_dtd()) continue;
      Result<om::Value> bound = shards_[i]->db().LookupName(name);
      if (bound.ok() && bound.value().kind() == om::ValueKind::kObject) {
        target = i;
        break;
      }
    }
  }
  const uint64_t oid_base =
      assign_oid_blocks_ ? seq * kOidsPerDocument + 1 : 0;
  SGMLQDB_ASSIGN_OR_RETURN(
      om::ObjectId root,
      shards_[target]->LoadDocument(sgml_text, name, oid_base));
  // Invariant 2: every other shard's schema learns the name (declared,
  // unbound) so statements naming this document prepare anywhere.
  if (!name.empty()) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (i == target) continue;
      SGMLQDB_RETURN_IF_ERROR(shards_[i]->DeclareDocumentName(name));
    }
  }
  if (wal_ != nullptr) {
    // Journaled as a one-op facade batch; replay re-routes it with the
    // restored sequence counter, reproducing target and oid block.
    std::vector<wal::LoggedOp> ops;
    ops.push_back({wal::LoggedOp::Kind::kLoad, std::string(name),
                   std::string(sgml_text), 0});
    SGMLQDB_RETURN_IF_ERROR(
        wal_->LogBatch(ops, {static_cast<uint32_t>(target)}, seq + 1,
                       shards_[target]->epoch()));
  }
  return root;
}

void ShardedStore::Freeze() {
  for (DocumentStore* shard : shards_) shard->Freeze();
}

void ShardedStore::RebuildLocked() const {
  auto next = std::make_shared<ShardedSnapshot>();
  next->shards.reserve(shards_.size());
  next->epochs.reserve(shards_.size());
  for (const DocumentStore* shard : shards_) {
    std::shared_ptr<const ingest::StoreSnapshot> snap = shard->snapshot();
    next->epochs.push_back(snap == nullptr ? 0 : snap->epoch);
    next->shards.push_back(std::move(snap));
  }
  next->version = ++version_;
  combined_ = std::move(next);
}

std::shared_ptr<const ShardedSnapshot> ShardedStore::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  bool stale = combined_ == nullptr;
  if (!stale) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      // Pre-freeze workspaces bump their epoch in place per load;
      // post-freeze publishes swap the snapshot. Both move epoch().
      if (combined_->epochs[i] != shards_[i]->epoch()) {
        stale = true;
        break;
      }
    }
  }
  if (stale) RebuildLocked();
  return combined_;
}

std::vector<size_t> ShardedStore::BoundShards(const ShardedSnapshot& snap,
                                              std::string_view name) {
  std::vector<size_t> out;
  for (size_t i = 0; i < snap.shards.size(); ++i) {
    if (snap.shards[i] == nullptr) continue;
    // LookupName fails for declared-but-unbound names, so success ==
    // bound, whatever the value kind (document names bind objects;
    // the doctype's persistence root binds a list on every shard).
    if (snap.shards[i]->db->LookupName(name).ok()) out.push_back(i);
  }
  return out;
}

Result<ShardedStore::IngestResult> ShardedStore::Ingest(
    const std::vector<DocMutation>& ops, algebra::BranchExecutor* executor) {
  if (!frozen()) {
    return Status::InvalidArgument(
        "store is not frozen: use LoadDocument while loading, "
        "Ingest only after Freeze()");
  }
  bool expected = false;
  if (!ingest_active_.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
    return Status::Unavailable(
        "another ingest batch is active (single-writer ingestion)");
  }
  ScopeExit release([this] {
    ingest_active_.store(false, std::memory_order_release);
  });

  const size_t n = shards_.size();
  std::shared_ptr<const ShardedSnapshot> snap = snapshot();

  // -- Plan: route every op to its home shard, in batch order. -----------
  struct ShardTask {
    size_t index;  // global op index (error-reporting order)
    const DocMutation* op;
    uint64_t oid_base;
    bool declare_only;  // named load on a non-home shard
  };
  std::vector<std::vector<ShardTask>> plan(n);
  // Homes decided earlier in this batch override the snapshot.
  std::map<std::string, size_t, std::less<>> batch_home;
  auto home_of = [&](const std::string& name) -> int {
    auto it = batch_home.find(name);
    if (it != batch_home.end()) return static_cast<int>(it->second);
    std::vector<size_t> bound = BoundShards(*snap, name);
    return bound.empty() ? -1 : static_cast<int>(bound[0]);
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    const DocMutation& op = ops[i];
    switch (op.kind) {
      case DocMutation::Kind::kLoad: {
        const uint64_t seq = doc_seq_.fetch_add(1, std::memory_order_relaxed);
        const uint64_t base =
            assign_oid_blocks_ ? seq * kOidsPerDocument + 1 : 0;
        size_t target = static_cast<size_t>(seq % n);
        if (!op.name.empty()) {
          int home = home_of(op.name);
          if (home >= 0) target = static_cast<size_t>(home);
          batch_home[op.name] = target;
          for (size_t s = 0; s < n; ++s) {
            if (s != target) plan[s].push_back({i, &op, 0, true});
          }
        }
        plan[target].push_back({i, &op, base, false});
        break;
      }
      case DocMutation::Kind::kReplace: {
        const uint64_t seq = doc_seq_.fetch_add(1, std::memory_order_relaxed);
        const uint64_t base =
            assign_oid_blocks_ ? seq * kOidsPerDocument + 1 : 0;
        // An unknown name goes to shard 0, whose session raises the
        // same NotFound a single store would.
        int home = home_of(op.name);
        size_t target = home >= 0 ? static_cast<size_t>(home) : 0;
        plan[target].push_back({i, &op, base, false});
        break;
      }
      case DocMutation::Kind::kRemove: {
        int home = home_of(op.name);
        size_t target = home >= 0 ? static_cast<size_t>(home) : 0;
        plan[target].push_back({i, &op, 0, false});
        batch_home.erase(op.name);
        break;
      }
    }
  }

  std::vector<size_t> touched;
  for (size_t s = 0; s < n; ++s) {
    if (!plan[s].empty()) touched.push_back(s);
  }
  if (touched.empty()) {
    IngestResult result;
    result.version = snap->version;
    return result;
  }

  // -- Open one session per touched shard (per-shard latches) and apply
  // its slice, in parallel across shards. Opening clones the shard's
  // published state, so it runs inside the shard's task too. ----------
  std::vector<std::unique_ptr<ingest::IngestSession>> sessions(
      touched.size());
  // A session that cannot open fails the batch ahead of every apply
  // failure, the lowest touched shard first; otherwise each slot holds
  // (global index, status) of the shard's first apply failure and the
  // smallest index wins the batch's error.
  std::vector<Status> open_failures(touched.size(), Status::OK());
  std::vector<std::pair<size_t, Status>> failures(
      touched.size(), {0, Status::OK()});
  auto apply_one = [&](size_t k) {
    Result<std::unique_ptr<ingest::IngestSession>> opened =
        shards_[touched[k]]->BeginIngest();
    if (!opened.ok()) {
      open_failures[k] = opened.status();
      return;
    }
    sessions[k] = std::move(opened).value();
    ingest::IngestSession* session = sessions[k].get();
    for (const ShardTask& task : plan[touched[k]]) {
      Status st;
      if (task.declare_only) {
        st = session->DeclareName(task.op->name);
      } else {
        switch (task.op->kind) {
          case DocMutation::Kind::kLoad:
            st = session->LoadDocument(task.op->sgml, task.op->name,
                                       task.oid_base)
                     .status();
            break;
          case DocMutation::Kind::kReplace:
            st = session->ReplaceDocument(task.op->name, task.op->sgml,
                                          task.oid_base)
                     .status();
            break;
          case DocMutation::Kind::kRemove:
            st = session->RemoveDocument(task.op->name);
            break;
        }
      }
      if (!st.ok()) {
        failures[k] = {task.index, std::move(st)};
        return;
      }
    }
  };
  if (executor != nullptr && touched.size() > 1) {
    executor->Run(touched.size(), apply_one);
  } else {
    for (size_t k = 0; k < touched.size(); ++k) apply_one(k);
  }

  for (const Status& st : open_failures) {
    if (!st.ok()) {
      sessions.clear();  // releases every latch that did open
      return st;
    }
  }
  const std::pair<size_t, Status>* first_failure = nullptr;
  for (const auto& f : failures) {
    if (f.second.ok()) continue;
    if (first_failure == nullptr || f.first < first_failure->first) {
      first_failure = &f;
    }
  }
  if (first_failure != nullptr) {
    // Abandon every session: no shard publishes, the batch leaves the
    // served state untouched (invariant 3's failure half).
    sessions.clear();
    return first_failure->second;
  }

  IngestResult result;
  result.shards_touched = touched.size();
  for (const auto& session : sessions) {
    const ingest::IngestSession::Stats& s = session->stats();
    result.stats.docs_loaded += s.docs_loaded;
    result.stats.docs_replaced += s.docs_replaced;
    result.stats.docs_removed += s.docs_removed;
    result.stats.units_added += s.units_added;
    result.stats.units_removed += s.units_removed;
  }

  // -- Journal the batch, fsynced on every touched shard, before any
  // reader can observe it (fsync-before-publish). A log failure
  // abandons the sessions like an apply failure: nothing publishes. --
  if (wal_ != nullptr) {
    std::vector<wal::LoggedOp> logged;
    logged.reserve(ops.size());
    for (const DocMutation& op : ops) {
      wal::LoggedOp entry;
      switch (op.kind) {
        case DocMutation::Kind::kLoad:
          entry.kind = wal::LoggedOp::Kind::kLoad;
          break;
        case DocMutation::Kind::kReplace:
          entry.kind = wal::LoggedOp::Kind::kReplace;
          break;
        case DocMutation::Kind::kRemove:
          entry.kind = wal::LoggedOp::Kind::kRemove;
          break;
      }
      entry.name = op.name;
      entry.sgml = op.sgml;
      logged.push_back(std::move(entry));
    }
    std::vector<uint32_t> touched_ids;
    touched_ids.reserve(touched.size());
    for (size_t s : touched) touched_ids.push_back(static_cast<uint32_t>(s));
    Status st = wal_->LogBatch(
        logged, touched_ids, doc_seq_.load(std::memory_order_relaxed),
        shards_[touched[0]]->epoch() + 1);
    if (!st.ok()) {
      sessions.clear();
      return st;
    }
  }

  // -- Publish atomically: all touched shards + the combined rebuild
  // under snap_mu_, so no reader observes a partial batch. ---------------
  const auto publish_start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    for (size_t k = 0; k < touched.size(); ++k) {
      Result<uint64_t> epoch =
          shards_[touched[k]]->PublishIngest(std::move(sessions[k]));
      if (!epoch.ok()) {
        // A mid-batch publish failure (fault injection) leaves earlier
        // shards published; rebuild so the combined snapshot at least
        // reflects what landed, and surface the error.
        sessions.clear();
        RebuildLocked();
        return epoch.status();
      }
    }
    RebuildLocked();
    result.version = combined_->version;
  }
  result.publish_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - publish_start)
          .count());
  return result;
}

size_t ShardedStore::document_count() const {
  size_t total = 0;
  for (const DocumentStore* shard : shards_) {
    total += shard->document_count();
  }
  return total;
}

Result<std::string> ShardedStore::TextOf(om::ObjectId oid) const {
  std::shared_ptr<const ShardedSnapshot> snap = snapshot();
  for (const auto& shard : snap->shards) {
    if (shard == nullptr) continue;
    auto it = shard->element_texts->find(oid.id());
    if (it != shard->element_texts->end()) return it->second;
  }
  return Status::NotFound("no text recorded for oid " +
                          std::to_string(oid.id()));
}

Status ShardedStore::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("no durability manager attached");
  }
  // The facade writer latch excludes concurrent Ingest, so every
  // shard's current version is stable for the whole dump.
  bool expected = false;
  const bool latched =
      frozen() && ingest_active_.compare_exchange_strong(
                      expected, true, std::memory_order_acq_rel);
  if (frozen() && !latched) {
    return Status::Unavailable("an ingest batch is active");
  }
  ScopeExit release([this, latched] {
    if (latched) ingest_active_.store(false, std::memory_order_release);
  });

  wal::CheckpointState state;
  state.doc_seq = doc_seq_.load(std::memory_order_relaxed);
  state.shard_count = static_cast<uint32_t>(shards_.size());
  state.dtd_text = dtd_text_;
  state.declared_names = shards_[0]->DeclaredNames();
  state.shards.reserve(shards_.size());
  for (DocumentStore* shard : shards_) {
    wal::CheckpointShard entry;
    entry.epoch = shard->epoch();
    entry.next_oid = shard->next_oid();
    SGMLQDB_ASSIGN_OR_RETURN(
        std::vector<DocumentStore::DumpedDocument> docs,
        shard->DumpDocuments());
    entry.docs.reserve(docs.size());
    for (DocumentStore::DumpedDocument& doc : docs) {
      entry.docs.push_back(
          {std::move(doc.name), doc.first_oid, std::move(doc.sgml)});
    }
    state.shards.push_back(std::move(entry));
  }
  return wal_->Checkpoint(std::move(state));
}

Result<std::string> ShardedStore::ExportSgml(om::ObjectId root) const {
  std::shared_ptr<const ShardedSnapshot> snap = snapshot();
  for (size_t i = 0; i < snap->shards.size(); ++i) {
    if (snap->shards[i] == nullptr) continue;
    auto it = snap->shards[i]->unit_docs->find(root.id());
    if (it != snap->shards[i]->unit_docs->end() && it->second == root.id()) {
      return shards_[i]->ExportSgml(root);
    }
  }
  return Status::NotFound("oid " + std::to_string(root.id()) +
                          " is not a loaded document root");
}

}  // namespace sgmlqdb
