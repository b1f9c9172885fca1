// A positional inverted index over text units (paper §4.1/§6: the
// "integration of full text indexing mechanisms"). The query layer
// indexes every string reachable in the database and uses the index to
// find candidate units for `contains` patterns instead of scanning.
//
// Storage layout (the raw-speed pass):
//  * the term dictionary is a flat sorted array of
//    {interned term pointer, postings ref} entries — binary-searched,
//    cache-friendly, and O(#terms) 16-byte copies per index clone
//    instead of a red-black tree of string nodes;
//  * term strings are interned in an arena-backed StringPool shared
//    by every copy in the lineage, so a term's bytes exist once no
//    matter how many snapshots reference it;
//  * each term's postings are a block-compressed, varint/delta-coded
//    list with per-block skip headers (postings.h), so probes gallop
//    over blocks instead of decoding whole lists, and the footprint
//    is a fraction of the flat layout's.
//
// The postings are stored behind shared_ptrs, so copying an index is
// cheap (the flat entry array only — the compressed lists are shared)
// and mutation is copy-on-write per term. This is what makes the
// ingest subsystem's incremental maintenance possible: an
// IngestSession clones the published index in O(#terms), applies
// per-document posting adds/removes, and publishes the clone — the
// unchanged terms keep sharing their postings with every earlier
// snapshot and no text is ever re-tokenized. A document removal
// splices each affected term's list once (CompressedPostings::
// WithoutUnits): untouched blocks are copied as bytes and only the
// blocks holding the document's units are re-encoded, so its cost
// follows the document, not the length of the lists it touches.

#ifndef SGMLQDB_TEXT_INDEX_H_
#define SGMLQDB_TEXT_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/string_pool.h"
#include "text/pattern.h"
#include "text/postings.h"

namespace sgmlqdb::text {

/// Cumulative maintenance counters. Copied along with the index, so a
/// snapshot lineage carries its history: the delta across a publish
/// shows exactly how much work the publish did (the snapshot-isolation
/// suite asserts "1 document ingested => units of that document
/// tokenized, nothing else").
struct IndexMaintenanceStats {
  /// Units tokenized+added over the index lineage's lifetime (each
  /// Add call). A full rebuild would re-count every unit; incremental
  /// maintenance grows this by exactly the new units.
  uint64_t units_added = 0;
  /// Indexed units removed by RemoveDocument.
  uint64_t units_removed = 0;
  /// Postings appended by Add.
  uint64_t postings_added = 0;
  /// Postings dropped by RemoveDocument.
  uint64_t postings_removed = 0;
  /// Kept postings RemoveDocument encoded again: those of the blocks
  /// its splices rewrote (bounded per term by the removed document,
  /// not by the list's length).
  uint64_t postings_rewritten = 0;
  /// Copy-on-write term-list copies (shared postings materialized
  /// before mutation).
  uint64_t term_copies = 0;
};

/// Cumulative probe-side counters, shared across every copy in an
/// index lineage (IndexMaintenanceStats-style, but for reads):
/// how much compressed data probes actually decoded vs. galloped
/// past. Surfaced by the server's /stats endpoint.
struct IndexProbeStats {
  /// Lookup / NearLookup / Candidates calls.
  uint64_t probes = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
  uint64_t postings_decoded = 0;
  uint64_t postings_skipped = 0;
};

class InvertedIndex {
 public:
  InvertedIndex();
  /// Copies share the compressed postings lists, the term-string pool
  /// and the probe counters (O(#terms) flat entries); the copy
  /// diverges term-by-term on mutation (copy-on-write).
  InvertedIndex(const InvertedIndex&) = default;
  InvertedIndex& operator=(const InvertedIndex&) = default;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Indexes a unit's text. Ids must be unique and added in
  /// increasing order (postings lists stay sorted by construction).
  /// Removed ids may not be re-added.
  void Add(UnitId id, std::string_view text);

  /// Removes a document's units: `units` are its (unit id, text)
  /// pairs in strictly ascending id order, each Add-ed with exactly
  /// this text (the tokenization must reproduce the indexed terms —
  /// callers keep the original text, e.g. the snapshot's
  /// element_texts). Ids that are not indexed are skipped. The texts
  /// are tokenized once and each affected term's list is spliced once
  /// for all of the document's units, so the cost follows the removed
  /// document, not the corpus.
  void RemoveDocument(
      const std::vector<std::pair<UnitId, std::string_view>>& units);

  size_t unit_count() const { return unit_count_; }
  size_t term_count() const { return terms_.size(); }

  /// Units whose token list *may* match the pattern. The pattern's
  /// and/or/not structure is evaluated directly on the index
  /// (intersection / union / complement of postings), so the result is
  /// always a superset of the true matches. `*exact` is set when the
  /// result is known to be the exact match set: plain single words
  /// combined with and/or, and `not` of an exact subpattern (the
  /// complement against all units). Conjunctions of plain words run
  /// the galloping block-skip intersection. Phrases and regexes are
  /// conservative — phrases contribute the intersection of their plain
  /// parts, regexes cannot prune. Purely negative and empty patterns
  /// return all units (inexact). Candidates must be confirmed with
  /// Pattern::Matches on the unit's text unless `*exact` is true.
  std::vector<UnitId> Candidates(const Pattern& pattern, bool* exact) const;

  /// Units containing (case-insensitively) the given plain word.
  std::vector<UnitId> Lookup(std::string_view word) const;

  /// Units where `word1` and `word2` occur within `max_distance`
  /// words (exact, via positions). Galloping unit intersection; only
  /// co-occurring units' position data is decoded.
  std::vector<UnitId> NearLookup(std::string_view word1,
                                 std::string_view word2,
                                 size_t max_distance) const;

  /// All live unit ids, ascending.
  const std::vector<UnitId>& units() const { return units_; }

  /// Lifetime maintenance counters (carried across copies).
  const IndexMaintenanceStats& maintenance_stats() const { return stats_; }

  /// Lifetime probe counters (shared across the whole lineage — a
  /// probe against any snapshot counts here).
  IndexProbeStats probe_stats() const;

  /// The term's compressed postings, or null when absent (term is
  /// lowercased by the caller). Probe-path primitive for benches and
  /// tests; does not count as a probe by itself.
  std::shared_ptr<const CompressedPostings> Postings(
      std::string_view lowercased_term) const;

  /// Rough memory footprint of the postings (bytes) — the compressed
  /// reality: payload + skip headers + dictionary entries + the
  /// interned term arena.
  size_t ApproximateBytes() const;

  /// What the pre-compression flat layout (std::map term nodes over
  /// std::vector<Posting>) would take for the same content — the
  /// baseline the compression win is measured against.
  size_t FlatApproximateBytes() const;

 private:
  struct TermEntry {
    /// Interned in *pool_ (lowercased). Entry order == string order.
    const std::string* term;
    std::shared_ptr<const CompressedPostings> list;
  };

  struct AtomicProbeStats {
    std::atomic<uint64_t> probes{0};
    std::atomic<uint64_t> blocks_decoded{0};
    std::atomic<uint64_t> blocks_skipped{0};
    std::atomic<uint64_t> postings_decoded{0};
    std::atomic<uint64_t> postings_skipped{0};
  };

  /// Binary search for `term`; null when absent.
  const TermEntry* FindEntry(std::string_view term) const;
  TermEntry* FindMutableEntry(std::string_view term);

  /// The term's postings list, uniquely owned by this index (copies a
  /// shared list first — the copy-on-write step).
  CompressedPostings& MutableList(TermEntry* entry);

  /// Folds one probe's decode counters into the lineage counters.
  void CountProbe(const DecodeCounters& c) const;

  // Flat sorted dictionary: entries ordered by term string. Shared
  // lists diverge copy-on-write; the pool and probe stats are shared
  // by the whole lineage.
  std::vector<TermEntry> terms_;
  std::shared_ptr<StringPool> pool_;
  std::shared_ptr<AtomicProbeStats> probe_stats_;
  std::vector<UnitId> units_;  // sorted ascending (Add contract)
  size_t unit_count_ = 0;
  IndexMaintenanceStats stats_;
};

}  // namespace sgmlqdb::text

#endif  // SGMLQDB_TEXT_INDEX_H_
