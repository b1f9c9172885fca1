#include "text/index.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "base/strutil.h"

namespace sgmlqdb::text {

InvertedIndex::InvertedIndex()
    : pool_(std::make_shared<StringPool>()),
      probe_stats_(std::make_shared<AtomicProbeStats>()) {}

const InvertedIndex::TermEntry* InvertedIndex::FindEntry(
    std::string_view term) const {
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), term,
      [](const TermEntry& e, std::string_view t) {
        return std::string_view(*e.term) < t;
      });
  if (it == terms_.end() || std::string_view(*it->term) != term) {
    return nullptr;
  }
  return &*it;
}

InvertedIndex::TermEntry* InvertedIndex::FindMutableEntry(
    std::string_view term) {
  return const_cast<TermEntry*>(FindEntry(term));
}

CompressedPostings& InvertedIndex::MutableList(TermEntry* entry) {
  if (entry->list.use_count() > 1) {
    // Shared with another snapshot: materialize a private copy before
    // mutating (the sharing copies never observe the change).
    entry->list = std::make_shared<CompressedPostings>(*entry->list);
    ++stats_.term_copies;
  }
  // The const in the entry type protects sharers; this index owns the
  // list uniquely here.
  return const_cast<CompressedPostings&>(*entry->list);
}

void InvertedIndex::CountProbe(const DecodeCounters& c) const {
  probe_stats_->probes.fetch_add(1, std::memory_order_relaxed);
  probe_stats_->blocks_decoded.fetch_add(c.blocks_decoded,
                                         std::memory_order_relaxed);
  probe_stats_->blocks_skipped.fetch_add(c.blocks_skipped,
                                         std::memory_order_relaxed);
  probe_stats_->postings_decoded.fetch_add(c.postings_decoded,
                                           std::memory_order_relaxed);
  probe_stats_->postings_skipped.fetch_add(c.postings_skipped,
                                           std::memory_order_relaxed);
}

IndexProbeStats InvertedIndex::probe_stats() const {
  IndexProbeStats out;
  out.probes = probe_stats_->probes.load(std::memory_order_relaxed);
  out.blocks_decoded =
      probe_stats_->blocks_decoded.load(std::memory_order_relaxed);
  out.blocks_skipped =
      probe_stats_->blocks_skipped.load(std::memory_order_relaxed);
  out.postings_decoded =
      probe_stats_->postings_decoded.load(std::memory_order_relaxed);
  out.postings_skipped =
      probe_stats_->postings_skipped.load(std::memory_order_relaxed);
  return out;
}

std::shared_ptr<const CompressedPostings> InvertedIndex::Postings(
    std::string_view lowercased_term) const {
  const TermEntry* e = FindEntry(lowercased_term);
  return e == nullptr ? nullptr : e->list;
}

void InvertedIndex::Add(UnitId id, std::string_view text) {
  units_.push_back(id);
  ++unit_count_;
  ++stats_.units_added;
  std::vector<std::string> tokens = Tokenize(text);
  // Terms unseen by the dictionary are collected here and merged in
  // one sort + inplace_merge at the end, so a document with T new
  // terms costs one O(#terms) merge instead of T O(#terms) inserts.
  struct Fresh {
    const std::string* term;
    std::shared_ptr<CompressedPostings> list;
  };
  std::vector<Fresh> fresh;
  std::unordered_map<std::string_view, size_t> fresh_by_term;
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string term = AsciiToLower(tokens[i]);
    ++stats_.postings_added;
    if (TermEntry* e = FindMutableEntry(term)) {
      MutableList(e).Append(id, static_cast<uint32_t>(i));
      continue;
    }
    auto it = fresh_by_term.find(term);
    if (it == fresh_by_term.end()) {
      const std::string* interned = pool_->Intern(term);
      fresh.push_back(Fresh{interned, std::make_shared<CompressedPostings>()});
      it = fresh_by_term
               .emplace(std::string_view(*interned), fresh.size() - 1)
               .first;
    }
    fresh[it->second].list->Append(id, static_cast<uint32_t>(i));
  }
  if (!fresh.empty()) {
    std::sort(fresh.begin(), fresh.end(), [](const Fresh& a, const Fresh& b) {
      return *a.term < *b.term;
    });
    size_t old_size = terms_.size();
    terms_.reserve(old_size + fresh.size());
    for (Fresh& f : fresh) {
      terms_.push_back(TermEntry{f.term, std::move(f.list)});
    }
    std::inplace_merge(terms_.begin(),
                       terms_.begin() + static_cast<long>(old_size),
                       terms_.end(), [](const TermEntry& a, const TermEntry& b) {
                         return *a.term < *b.term;
                       });
  }
}

void InvertedIndex::RemoveDocument(
    const std::vector<std::pair<UnitId, std::string_view>>& units) {
  assert(std::adjacent_find(units.begin(), units.end(),
                            [](const auto& a, const auto& b) {
                              return a.first >= b.first;
                            }) == units.end());
  // The removed units of each term, ascending, gathered from one
  // tokenization of the document's texts.
  std::vector<UnitId> removed;
  std::unordered_map<std::string, std::vector<UnitId>> by_term;
  for (const auto& [id, text] : units) {
    if (!std::binary_search(units_.begin(), units_.end(), id)) continue;
    removed.push_back(id);
    for (const std::string& token : Tokenize(text)) {
      std::vector<UnitId>& ids = by_term[AsciiToLower(token)];
      if (ids.empty() || ids.back() != id) ids.push_back(id);
    }
  }
  if (removed.empty()) return;
  units_.erase(std::remove_if(std::lower_bound(units_.begin(), units_.end(),
                                               removed.front()),
                              units_.end(),
                              [&](UnitId u) {
                                return std::binary_search(
                                    removed.begin(), removed.end(), u);
                              }),
               units_.end());
  unit_count_ -= removed.size();
  stats_.units_removed += removed.size();
  bool emptied = false;
  for (const auto& [term, ids] : by_term) {
    TermEntry* e = FindMutableEntry(term);
    if (e == nullptr) continue;
    SpliceCounters counters;
    std::optional<CompressedPostings> spliced =
        e->list->WithoutUnits(ids, &counters);
    if (!spliced.has_value()) continue;  // none of the units indexed here
    if (e->list.use_count() > 1) ++stats_.term_copies;
    stats_.postings_removed += counters.postings_removed;
    stats_.postings_rewritten += counters.postings_rewritten;
    if (spliced->empty()) {
      e->list = nullptr;  // erased below, one pass for all terms
      emptied = true;
    } else {
      e->list = std::make_shared<const CompressedPostings>(
          std::move(*spliced));
    }
  }
  if (emptied) {
    terms_.erase(std::remove_if(terms_.begin(), terms_.end(),
                                [](const TermEntry& e) {
                                  return e.list == nullptr;
                                }),
                 terms_.end());
  }
}

namespace {

/// Distinct units of one postings list, ascending (the sequential
/// whole-list decode — no cursor or skip-header overhead).
std::vector<UnitId> UnitsOf(const CompressedPostings* list,
                            DecodeCounters* dc) {
  std::vector<UnitId> out;
  if (list == nullptr) return out;
  list->AppendDistinctUnits(&out, dc);
  return out;
}

/// Intersects the distinct units of several lists with galloping: the
/// shortest list drives, the others SkipToUnit over their block skip
/// headers — selective conjunctions decode a handful of blocks of the
/// long lists instead of all of them.
std::vector<UnitId> GallopingIntersect(
    std::vector<CompressedPostings::Cursor> cursors) {
  std::vector<UnitId> out;
  if (cursors.empty()) return out;
  for (const CompressedPostings::Cursor& c : cursors) {
    if (c.at_end()) return out;  // an empty list empties the result
  }
  std::sort(cursors.begin(), cursors.end(),
            [](const CompressedPostings::Cursor& a,
               const CompressedPostings::Cursor& b) {
              return a.list_size() < b.list_size();
            });
  CompressedPostings::Cursor& lead = cursors[0];
  while (!lead.at_end()) {
    const UnitId u = lead.unit();
    bool all = true;
    for (size_t i = 1; i < cursors.size(); ++i) {
      if (!cursors[i].SkipToUnit(u)) return out;  // a list ran dry
      if (cursors[i].unit() != u) {
        // Overshot: fast-forward the lead to the blocker's unit and
        // re-verify from the top.
        all = false;
        if (!lead.SkipToUnit(cursors[i].unit())) return out;
        break;
      }
    }
    if (all) {
      out.push_back(u);
      if (!lead.NextUnit()) break;
    }
  }
  return out;
}

std::vector<UnitId> Intersect(const std::vector<UnitId>& a,
                              const std::vector<UnitId>& b) {
  std::vector<UnitId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<UnitId> Union(const std::vector<UnitId>& a,
                          const std::vector<UnitId>& b) {
  std::vector<UnitId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<UnitId> Difference(const std::vector<UnitId>& a,
                               const std::vector<UnitId>& b) {
  std::vector<UnitId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

/// A candidate set plus whether it is known to be the exact match set
/// (rather than a superset needing Pattern::Matches confirmation).
struct CandSet {
  std::vector<UnitId> units;  // sorted
  bool exact;
};

/// True when the node is a single plain word whose postings list *is*
/// its exact match set — the galloping-intersection building block.
const std::string* PlainSingleWord(const Pattern::Node& node) {
  if (node.kind != Pattern::Kind::kWord) return nullptr;
  if (node.word.token_count() != 1) return nullptr;
  return node.word.plain_word(0);
}

/// Evaluates the pattern tree on the index. `all` is the full sorted
/// unit list (the top element of the candidate lattice, and the base
/// of `not` complements). `dc` accumulates the probe's decode work.
CandSet WalkNode(const InvertedIndex& index, const Pattern::Node& node,
                 const std::vector<UnitId>& all, DecodeCounters* dc) {
  switch (node.kind) {
    case Pattern::Kind::kWord: {
      const WordPattern& w = node.word;
      if (const std::string* word = PlainSingleWord(node)) {
        // Plain single word: the postings list *is* the match set
        // (both sides tokenize and compare case-insensitively).
        return CandSet{UnitsOf(index.Postings(*word).get(), dc),
                       /*exact=*/true};
      }
      // Phrase: a match needs every plain part somewhere in the unit
      // (adjacency is not checked — conservative), so the parts'
      // lists gallop-intersect. Regex parts cannot prune; a pattern
      // with no plain part returns all units.
      bool any_plain = false;
      bool any_missing = false;
      std::vector<std::shared_ptr<const CompressedPostings>> lists;
      for (size_t i = 0; i < w.token_count(); ++i) {
        const std::string* word = w.plain_word(i);
        if (word == nullptr) continue;
        any_plain = true;
        std::shared_ptr<const CompressedPostings> list = index.Postings(*word);
        if (list == nullptr) {
          any_missing = true;  // an absent part empties the candidates
          break;
        }
        lists.push_back(std::move(list));
      }
      if (!any_plain) return CandSet{all, /*exact=*/false};
      if (any_missing) return CandSet{{}, /*exact=*/false};
      std::vector<CompressedPostings::Cursor> cursors;
      cursors.reserve(lists.size());
      for (const auto& list : lists) cursors.push_back(list->cursor(dc));
      return CandSet{GallopingIntersect(std::move(cursors)),
                     /*exact=*/false};
    }
    case Pattern::Kind::kAnd: {
      // Split the conjunction: plain single words intersect by
      // galloping over their compressed lists; everything else is
      // evaluated recursively and merged on materialized sets.
      std::vector<std::shared_ptr<const CompressedPostings>> lists;
      std::vector<const Pattern::Node*> rest;
      bool missing_word = false;
      for (const auto& kid : node.kids) {
        if (const std::string* word = PlainSingleWord(*kid)) {
          std::shared_ptr<const CompressedPostings> list =
              index.Postings(*word);
          if (list == nullptr) {
            missing_word = true;  // unknown word: conjunction is empty
            break;
          }
          lists.push_back(std::move(list));
        } else {
          rest.push_back(kid.get());
        }
      }
      if (missing_word) {
        // Exact: the missing word is exact (empty), and AND with an
        // empty exact set is exactly empty.
        return CandSet{{}, /*exact=*/true};
      }
      CandSet out;
      bool have = false;
      if (!lists.empty()) {
        std::vector<CompressedPostings::Cursor> cursors;
        cursors.reserve(lists.size());
        for (const auto& list : lists) cursors.push_back(list->cursor(dc));
        out = CandSet{GallopingIntersect(std::move(cursors)),
                      /*exact=*/true};
        have = true;
      }
      for (const Pattern::Node* kid : rest) {
        CandSet k = WalkNode(index, *kid, all, dc);
        if (!have) {
          out = std::move(k);
          have = true;
        } else {
          out.units = Intersect(out.units, k.units);
          out.exact = out.exact && k.exact;
        }
      }
      return out;
    }
    case Pattern::Kind::kOr: {
      CandSet out = WalkNode(index, *node.kids[0], all, dc);
      for (size_t i = 1; i < node.kids.size(); ++i) {
        CandSet k = WalkNode(index, *node.kids[i], all, dc);
        out.units = Union(out.units, k.units);
        out.exact = out.exact && k.exact;
      }
      return out;
    }
    case Pattern::Kind::kNot: {
      CandSet k = WalkNode(index, *node.kids[0], all, dc);
      if (k.exact) {
        // Exact complement: units not matching the subpattern.
        return CandSet{Difference(all, k.units), /*exact=*/true};
      }
      // The subpattern over-approximates, so its complement may drop
      // true matches — the only sound candidate set is all units.
      return CandSet{all, /*exact=*/false};
    }
  }
  return CandSet{all, /*exact=*/false};
}

}  // namespace

std::vector<UnitId> InvertedIndex::Candidates(const Pattern& pattern,
                                              bool* exact) const {
  // `units_` is sorted by the Add contract (increasing ids, removals
  // preserve order), as are the per-term postings.
  if (pattern.root() == nullptr) {
    *exact = false;
    return units_;
  }
  DecodeCounters dc;
  CandSet out = WalkNode(*this, *pattern.root(), units_, &dc);
  CountProbe(dc);
  *exact = out.exact;
  return std::move(out.units);
}

std::vector<UnitId> InvertedIndex::Lookup(std::string_view word) const {
  DecodeCounters dc;
  const TermEntry* e = FindEntry(AsciiToLower(word));
  std::vector<UnitId> out =
      UnitsOf(e == nullptr ? nullptr : e->list.get(), &dc);
  CountProbe(dc);
  return out;
}

std::vector<UnitId> InvertedIndex::NearLookup(std::string_view word1,
                                              std::string_view word2,
                                              size_t max_distance) const {
  std::vector<UnitId> out;
  DecodeCounters dc;
  const TermEntry* e1 = FindEntry(AsciiToLower(word1));
  const TermEntry* e2 = FindEntry(AsciiToLower(word2));
  if (e1 == nullptr || e2 == nullptr) {
    CountProbe(dc);
    return out;
  }
  CompressedPostings::Cursor a = e1->list->cursor(&dc);
  CompressedPostings::Cursor b = e2->list->cursor(&dc);
  std::vector<uint32_t> pa;
  std::vector<uint32_t> pb;
  // Galloping unit intersection; only co-occurring units' position
  // data is decoded in full.
  while (!a.at_end() && !b.at_end()) {
    if (a.unit() < b.unit()) {
      if (!a.SkipToUnit(b.unit())) break;
    } else if (b.unit() < a.unit()) {
      if (!b.SkipToUnit(a.unit())) break;
    } else {
      const UnitId unit = a.unit();
      pa.clear();
      pb.clear();
      // These advance both cursors past `unit`.
      a.CurrentUnitPositions(&pa);
      b.CurrentUnitPositions(&pb);
      // Two-pointer minimum-gap scan over the sorted position lists
      // (guarding the unsigned subtraction against wrap).
      size_t i = 0;
      size_t j = 0;
      while (i < pa.size() && j < pb.size()) {
        uint32_t x = pa[i];
        uint32_t y = pb[j];
        uint32_t d = x > y ? x - y : y - x;
        if (d <= max_distance) {
          out.push_back(unit);
          break;
        }
        if (x < y) {
          ++i;
        } else {
          ++j;
        }
      }
    }
  }
  CountProbe(dc);
  return out;
}

size_t InvertedIndex::ApproximateBytes() const {
  size_t bytes = pool_->ApproximateBytes();
  for (const TermEntry& e : terms_) {
    bytes += sizeof(TermEntry) + e.list->ByteSize();
  }
  return bytes;
}

size_t InvertedIndex::FlatApproximateBytes() const {
  size_t bytes = 0;
  for (const TermEntry& e : terms_) {
    bytes += e.term->size() + 32 + e.list->FlatByteSize();
  }
  return bytes;
}

}  // namespace sgmlqdb::text
