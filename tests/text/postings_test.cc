// Property tests for the block-compressed posting lists and their use
// in the inverted index:
//  * encode -> decode roundtrips for random lists (empty, single
//    posting, multi-block),
//  * galloping (skip-header) intersection agrees with the linear
//    merge on random list pairs across a density sweep,
//  * the removal splice equals a rebuild by Append (decode, distinct
//    units, SkipToUnit from every unit, a later Append) on random
//    lists whose units span blocks, and keeps adjacent blocks merged
//    over 1000 random removals,
//  * copy-on-write sharing: cloning an index and mutating the clone
//    never disturbs the pinned original, and untouched terms keep
//    sharing one compressed list.
// The suite runs under the tier-1 TSan stage (scripts/tier1.sh), so
// the lineage-shared atomic probe counters get exercised under the
// race detector too.

#include "text/postings.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/strutil.h"
#include "text/index.h"
#include "text/pattern.h"

namespace sgmlqdb::text {
namespace {

/// A valid random posting list of exactly `count` postings: units
/// non-decreasing with geometric-ish gaps up to `max_unit_gap`,
/// positions increasing within a unit.
std::vector<Posting> RandomList(std::mt19937_64& rng, size_t count,
                                uint64_t max_unit_gap) {
  std::vector<Posting> out;
  out.reserve(count);
  UnitId unit = rng() % (max_unit_gap + 1);
  uint32_t position = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i == 0 || rng() % 3 == 0) {
      unit += (i == 0) ? 0 : 1 + rng() % max_unit_gap;
      position = static_cast<uint32_t>(rng() % 4);
    } else {
      position += 1 + static_cast<uint32_t>(rng() % 7);
    }
    out.push_back({unit, position});
  }
  return out;
}

CompressedPostings Encode(const std::vector<Posting>& postings) {
  CompressedPostings list;
  for (const Posting& p : postings) list.Append(p.unit, p.position);
  return list;
}

TEST(PostingsRoundtrip, RandomListsOfEverySize) {
  std::mt19937_64 rng(20260807);
  // 600 and 2000 postings span >4 blocks at kBlockPostings == 128;
  // 127/128/129 pin the block-boundary edges.
  const size_t sizes[] = {0, 1, 2, 5, 127, 128, 129, 256, 600, 2000};
  for (size_t size : sizes) {
    for (uint64_t gap : {1u, 16u, 4096u}) {
      std::vector<Posting> original = RandomList(rng, size, gap);
      CompressedPostings list = Encode(original);
      EXPECT_EQ(list.size(), original.size());
      EXPECT_EQ(list.block_count(),
                (size + CompressedPostings::kBlockPostings - 1) /
                    CompressedPostings::kBlockPostings);
      std::vector<Posting> decoded;
      list.DecodeAll(&decoded);
      EXPECT_EQ(decoded, original) << "size=" << size << " gap=" << gap;
    }
  }
}

TEST(PostingsRoundtrip, CompressesDenseLists) {
  std::mt19937_64 rng(7);
  CompressedPostings list = Encode(RandomList(rng, 4096, 4));
  // Small deltas varint-code to ~1-3 bytes vs 16 flat.
  EXPECT_LT(list.ByteSize(), list.FlatByteSize() / 2);
}

TEST(PostingsRoundtrip, CursorWalkMatchesDecodeAll) {
  std::mt19937_64 rng(11);
  std::vector<Posting> original = RandomList(rng, 1000, 8);
  CompressedPostings list = Encode(original);
  std::vector<Posting> walked;
  for (auto c = list.cursor(); !c.at_end(); c.Next()) {
    walked.push_back({c.unit(), c.position()});
  }
  EXPECT_EQ(walked, original);
}

/// Distinct units shared by both lists, via the galloping cursors.
std::vector<UnitId> GallopIntersect(const CompressedPostings& a,
                                    const CompressedPostings& b,
                                    DecodeCounters* counters) {
  std::vector<UnitId> out;
  auto ca = a.cursor(counters);
  auto cb = b.cursor(counters);
  while (!ca.at_end() && !cb.at_end()) {
    if (ca.unit() == cb.unit()) {
      out.push_back(ca.unit());
      UnitId u = ca.unit();
      if (!ca.SkipToUnit(u + 1) || !cb.SkipToUnit(u + 1)) break;
    } else if (ca.unit() < cb.unit()) {
      if (!ca.SkipToUnit(cb.unit())) break;
    } else {
      if (!cb.SkipToUnit(ca.unit())) break;
    }
  }
  return out;
}

/// The same intersection by full linear decode (the pre-compression
/// reference semantics).
std::vector<UnitId> LinearIntersect(const CompressedPostings& a,
                                    const CompressedPostings& b) {
  auto units = [](const CompressedPostings& l) {
    std::vector<Posting> all;
    l.DecodeAll(&all);
    std::vector<UnitId> u;
    for (const Posting& p : all) {
      if (u.empty() || u.back() != p.unit) u.push_back(p.unit);
    }
    return u;
  };
  std::vector<UnitId> ua = units(a), ub = units(b), out;
  std::set_intersection(ua.begin(), ua.end(), ub.begin(), ub.end(),
                        std::back_inserter(out));
  return out;
}

TEST(GallopingParity, MatchesLinearIntersectionAcrossDensitySweep) {
  std::mt19937_64 rng(20260808);
  // (count, max unit gap) pairs from dense-meets-dense to a selective
  // list probing a long one — the shape galloping exists for.
  struct Shape {
    size_t count;
    uint64_t gap;
  };
  const Shape shapes[] = {{0, 1},    {1, 100},   {50, 2},
                          {500, 1},  {500, 50},  {3000, 1},
                          {3000, 8}, {20, 2000}, {10000, 1}};
  for (const Shape& sa : shapes) {
    for (const Shape& sb : shapes) {
      CompressedPostings a = Encode(RandomList(rng, sa.count, sa.gap));
      CompressedPostings b = Encode(RandomList(rng, sb.count, sb.gap));
      DecodeCounters counters;
      EXPECT_EQ(GallopIntersect(a, b, &counters), LinearIntersect(a, b))
          << "a=(" << sa.count << "," << sa.gap << ") b=(" << sb.count
          << "," << sb.gap << ")";
    }
  }
}

TEST(GallopingParity, SelectiveProbeSkipsBlocks) {
  // A 20-unit list driving a 10^4-posting dense list must gallop past
  // most of the long list's blocks instead of decoding them.
  std::mt19937_64 rng(3);
  CompressedPostings sparse = Encode(RandomList(rng, 20, 2000));
  CompressedPostings dense = Encode(RandomList(rng, 10000, 1));
  DecodeCounters counters;
  GallopIntersect(sparse, dense, &counters);
  EXPECT_GT(counters.blocks_skipped, dense.block_count() / 2)
      << "decoded=" << counters.blocks_decoded
      << " skipped=" << counters.blocks_skipped;
  EXPECT_GT(counters.postings_skipped, counters.postings_decoded);
}

TEST(GallopingParity, SkipToUnitAgreesWithLinearScan) {
  std::mt19937_64 rng(17);
  std::vector<Posting> original = RandomList(rng, 2000, 30);
  CompressedPostings list = Encode(original);
  for (int trial = 0; trial < 200; ++trial) {
    UnitId target = rng() % (original.back().unit + 10);
    auto c = list.cursor();
    bool found = c.SkipToUnit(target);
    // Reference: first posting with unit >= target.
    auto it = std::lower_bound(
        original.begin(), original.end(), target,
        [](const Posting& p, UnitId u) { return p.unit < u; });
    if (it == original.end()) {
      EXPECT_FALSE(found) << "target=" << target;
    } else {
      ASSERT_TRUE(found) << "target=" << target;
      EXPECT_EQ(c.unit(), it->unit);
      EXPECT_EQ(c.position(), it->position);
    }
  }
}

/// A random list whose units each hold 1..`max_run` postings, so long
/// runs span block boundaries; unit gaps are 1..`max_unit_gap`.
std::vector<Posting> RunList(std::mt19937_64& rng, size_t units,
                             size_t max_run, uint64_t max_unit_gap) {
  std::vector<Posting> out;
  UnitId unit = rng() % 4;
  for (size_t u = 0; u < units; ++u) {
    const size_t run = 1 + rng() % max_run;
    uint32_t position = static_cast<uint32_t>(rng() % 4);
    for (size_t i = 0; i < run; ++i) {
      out.push_back({unit, position});
      position += 1 + static_cast<uint32_t>(rng() % 7);
    }
    unit += 1 + rng() % max_unit_gap;
  }
  return out;
}

std::vector<UnitId> DistinctUnits(const std::vector<Posting>& postings) {
  std::vector<UnitId> out;
  for (const Posting& p : postings) {
    if (out.empty() || out.back() != p.unit) out.push_back(p.unit);
  }
  return out;
}

/// `postings` minus every posting of `units` (sorted).
std::vector<Posting> Without(const std::vector<Posting>& postings,
                             const std::vector<UnitId>& units) {
  std::vector<Posting> out;
  for (const Posting& p : postings) {
    if (!std::binary_search(units.begin(), units.end(), p.unit)) {
      out.push_back(p);
    }
  }
  return out;
}

/// No two adjacent blocks together fit in one.
void ExpectBlocksMerged(const CompressedPostings& list) {
  for (size_t b = 0; b + 1 < list.block_count(); ++b) {
    ASSERT_GT(list.block_postings(b) + list.block_postings(b + 1),
              CompressedPostings::kBlockPostings)
        << "blocks " << b << "," << b + 1 << " of " << list.block_count();
  }
  EXPECT_LT(list.block_count(),
            2 * list.size() / CompressedPostings::kBlockPostings + 2);
}

/// `spliced` behaves exactly like `expected` rebuilt by Append: same
/// postings, distinct units, SkipToUnit landing from every unit, and
/// the same list after further Appends.
void ExpectSameAsRebuild(const CompressedPostings& spliced,
                         const std::vector<Posting>& expected) {
  CompressedPostings rebuilt = Encode(expected);
  ASSERT_EQ(spliced.size(), expected.size());
  std::vector<Posting> decoded;
  spliced.DecodeAll(&decoded);
  ASSERT_EQ(decoded, expected);
  std::vector<UnitId> units_a;
  std::vector<UnitId> units_b;
  spliced.AppendDistinctUnits(&units_a);
  rebuilt.AppendDistinctUnits(&units_b);
  EXPECT_EQ(units_a, units_b);
  // SkipToUnit from a fresh cursor, to every unit and to the gaps.
  const UnitId last = expected.empty() ? 0 : expected.back().unit;
  for (UnitId u = 0; u <= last + 1; ++u) {
    auto a = spliced.cursor();
    auto b = rebuilt.cursor();
    const bool fa = a.SkipToUnit(u);
    ASSERT_EQ(fa, b.SkipToUnit(u)) << "unit " << u;
    if (fa) {
      ASSERT_EQ(a.unit(), b.unit()) << "unit " << u;
      ASSERT_EQ(a.position(), b.position()) << "unit " << u;
    }
  }
  // And one cursor visiting every unit in turn.
  auto a = spliced.cursor();
  for (UnitId u : units_b) {
    ASSERT_TRUE(a.SkipToUnit(u));
    ASSERT_EQ(a.unit(), u);
  }
  // The append state survives the splice.
  CompressedPostings appended = spliced;
  std::vector<Posting> more = expected;
  if (!more.empty()) {
    more.push_back({more.back().unit, more.back().position + 3});
  }
  more.push_back({last + 2, 1});
  more.push_back({last + 2, 4});
  for (size_t i = expected.size(); i < more.size(); ++i) {
    appended.Append(more[i].unit, more[i].position);
  }
  decoded.clear();
  appended.DecodeAll(&decoded);
  EXPECT_EQ(decoded, more);
}

TEST(PostingsSplice, MatchesRebuildOnRandomLists) {
  std::mt19937_64 rng(20261020);
  struct Shape {
    size_t units;
    size_t max_run;
  };
  // Runs up to 300 postings span two and more block boundaries.
  const Shape shapes[] = {{1, 1}, {3, 300}, {40, 4}, {200, 3},
                          {60, 40}, {30, 300}};
  for (const Shape& shape : shapes) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<Posting> original =
          RunList(rng, shape.units, shape.max_run, 3);
      const CompressedPostings list = Encode(original);
      const std::vector<UnitId> units = DistinctUnits(original);
      std::vector<std::vector<UnitId>> cases = {
          {units.front()}, {units.back()}, units};
      // A contiguous range, as a document's units are.
      const size_t from = rng() % units.size();
      const size_t to = from + rng() % (units.size() - from);
      cases.emplace_back(units.begin() + static_cast<long>(from),
                         units.begin() + static_cast<long>(to) + 1);
      // A scattered subset, mixed with absent units.
      std::vector<UnitId> scattered;
      for (UnitId u = 0; u <= units.back() + 1; ++u) {
        if (rng() % 5 == 0) scattered.push_back(u);
      }
      if (!scattered.empty()) cases.push_back(scattered);
      for (const std::vector<UnitId>& removed : cases) {
        SCOPED_TRACE(testing::Message()
                     << "units=" << shape.units << " run=" << shape.max_run
                     << " removing " << removed.size() << " from "
                     << units.size());
        const std::vector<Posting> expected = Without(original, removed);
        SpliceCounters counters;
        std::optional<CompressedPostings> spliced =
            list.WithoutUnits(removed, &counters);
        if (expected.size() == original.size()) {
          EXPECT_FALSE(spliced.has_value());
          continue;
        }
        ASSERT_TRUE(spliced.has_value());
        EXPECT_EQ(counters.postings_removed,
                  original.size() - expected.size());
        ExpectSameAsRebuild(*spliced, expected);
        ExpectBlocksMerged(*spliced);
      }
    }
  }
}

TEST(PostingsSplice, AbsentUnitsLeaveTheListAlone) {
  // Even unit ids only: every odd id falls inside some block's range.
  std::vector<Posting> original;
  for (UnitId u = 0; u < 400; u += 2) original.push_back({u, 1});
  const CompressedPostings list = Encode(original);
  SpliceCounters counters;
  EXPECT_FALSE(list.WithoutUnits({1, 3, 255, 399, 1000}, &counters));
  EXPECT_FALSE(list.WithoutUnits({}, &counters));
  EXPECT_EQ(counters.postings_removed, 0u);
  EXPECT_EQ(counters.postings_rewritten, 0u);
}

TEST(PostingsSplice, RewritesOnlyTheBlocksThatHoldTheUnit) {
  // 100 blocks of one-posting units; removing one unit rewrites its
  // block (plus at most a merged neighbour), never the whole list.
  std::vector<Posting> original;
  for (UnitId u = 0; u < 100 * CompressedPostings::kBlockPostings; ++u) {
    original.push_back({u, 0});
  }
  const CompressedPostings list = Encode(original);
  SpliceCounters counters;
  auto spliced = list.WithoutUnits({5000}, &counters);
  ASSERT_TRUE(spliced.has_value());
  EXPECT_EQ(counters.postings_removed, 1u);
  EXPECT_LE(counters.postings_rewritten,
            2 * CompressedPostings::kBlockPostings);
  ExpectSameAsRebuild(*spliced, Without(original, {5000}));
}

TEST(PostingsSplice, BlocksStayMergedOverManyRemovals) {
  std::mt19937_64 rng(1000);
  std::vector<Posting> reference = RunList(rng, 3000, 12, 2);
  CompressedPostings list = Encode(reference);
  for (int round = 0; round < 1000; ++round) {
    if (rng() % 4 == 0 || reference.empty()) {
      // Interleave loads: a few new units past the end.
      UnitId unit = reference.empty() ? 0 : reference.back().unit + 1;
      for (const Posting& p : RunList(rng, 1 + rng() % 3, 20, 2)) {
        const Posting shifted{unit + p.unit, p.position};
        reference.push_back(shifted);
        list.Append(shifted.unit, shifted.position);
      }
      continue;
    }
    // Remove a document: 1-6 consecutive units from a random point.
    const std::vector<UnitId> units = DistinctUnits(reference);
    const size_t from = rng() % units.size();
    const size_t to = std::min(units.size(), from + 1 + rng() % 6);
    const std::vector<UnitId> removed(units.begin() + static_cast<long>(from),
                                      units.begin() + static_cast<long>(to));
    SpliceCounters counters;
    std::optional<CompressedPostings> spliced =
        list.WithoutUnits(removed, &counters);
    ASSERT_TRUE(spliced.has_value()) << "round " << round;
    list = std::move(*spliced);
    reference = Without(reference, removed);
    ASSERT_NO_FATAL_FAILURE(ExpectBlocksMerged(list)) << "round " << round;
    if (round % 100 == 0) {
      std::vector<Posting> decoded;
      list.DecodeAll(&decoded);
      ASSERT_EQ(decoded, reference) << "round " << round;
    }
  }
  ExpectSameAsRebuild(list, reference);
}

TEST(IndexRemoval, RemoveDocumentMatchesAnIndexBuiltWithoutIt) {
  std::mt19937_64 rng(77);
  const char* vocabulary[] = {"sgml", "query", "path", "object", "text",
                              "index", "the",  "of",   "a",      "rare"};
  // 60 documents of 8 units each; "rare" appears in one unit only.
  std::vector<std::pair<UnitId, std::string>> texts;
  for (UnitId unit = 1; unit <= 480; ++unit) {
    std::string text;
    const size_t words = 1 + rng() % 40;
    for (size_t i = 0; i < words; ++i) {
      text += vocabulary[rng() % 9];
      text += ' ';
    }
    if (unit == 100) text += "Rare";
    texts.emplace_back(unit, text);
  }
  for (const UnitId first : {UnitId{1}, UnitId{97}, UnitId{473}}) {
    InvertedIndex index;
    InvertedIndex expected;
    std::vector<std::pair<UnitId, std::string_view>> doc;
    for (const auto& [unit, text] : texts) {
      index.Add(unit, text);
      if (unit >= first && unit < first + 8) {
        doc.emplace_back(unit, text);
      } else {
        expected.Add(unit, text);
      }
    }
    const InvertedIndex pinned = index;
    index.RemoveDocument(doc);
    EXPECT_EQ(index.units(), expected.units());
    EXPECT_EQ(index.unit_count(), expected.unit_count());
    EXPECT_EQ(index.term_count(), expected.term_count());
    for (const char* word : vocabulary) {
      EXPECT_EQ(index.Lookup(word), expected.Lookup(word)) << word;
      EXPECT_EQ(index.NearLookup(word, "the", 2),
                expected.NearLookup(word, "the", 2))
          << word;
    }
    const text::IndexMaintenanceStats& stats = index.maintenance_stats();
    EXPECT_EQ(stats.units_removed, 8u);
    EXPECT_EQ(stats.postings_removed,
              index.maintenance_stats().postings_added -
                  expected.maintenance_stats().postings_added);
    // Every term of the document was shared with the pinned copy and
    // spliced once, however many of its units held it.
    std::set<std::string> doc_terms;
    for (const auto& [unit, text] : doc) {
      for (const std::string& token : Tokenize(text)) {
        doc_terms.insert(AsciiToLower(token));
      }
    }
    EXPECT_EQ(stats.term_copies, doc_terms.size());
    // Removing it again (or any unindexed unit) changes nothing.
    const InvertedIndex after = index;
    index.RemoveDocument(doc);
    EXPECT_EQ(index.maintenance_stats().units_removed, 8u);
    EXPECT_EQ(index.Postings("the").get(), after.Postings("the").get());
  }
}

TEST(PostingsCow, CloneAndRemoveLeavesPinnedSnapshotIntact) {
  InvertedIndex original;
  original.Add(1, "galloping skip pointers");
  original.Add(2, "galloping intersection of postings");
  original.Add(3, "flat sorted dictionary");
  InvertedIndex clone = original;  // pinned snapshot semantics

  // Untouched clones share one compressed list per term.
  EXPECT_EQ(original.Postings("galloping").get(),
            clone.Postings("galloping").get());

  clone.RemoveDocument({{2, "galloping intersection of postings"}});
  EXPECT_EQ(clone.Lookup("galloping"), (std::vector<UnitId>{1}));
  EXPECT_TRUE(clone.Lookup("intersection").empty());
  // The pinned original still answers from its own postings.
  EXPECT_EQ(original.Lookup("galloping"), (std::vector<UnitId>{1, 2}));
  EXPECT_EQ(original.Lookup("intersection"), (std::vector<UnitId>{2}));
  EXPECT_EQ(original.unit_count(), 3u);
  EXPECT_EQ(clone.unit_count(), 2u);

  // The mutation forced copy-on-write of exactly the removed unit's
  // term lists; terms the removal never touched stay shared.
  EXPECT_GT(clone.maintenance_stats().term_copies,
            original.maintenance_stats().term_copies);
  EXPECT_NE(original.Postings("galloping").get(),
            clone.Postings("galloping").get());
  EXPECT_EQ(original.Postings("flat").get(), clone.Postings("flat").get());
}

TEST(PostingsCow, CloneAndAddLeavesPinnedSnapshotIntact) {
  InvertedIndex original;
  original.Add(1, "compressed blocks");
  InvertedIndex clone = original;
  clone.Add(2, "compressed varint deltas");

  EXPECT_EQ(original.Lookup("compressed"), (std::vector<UnitId>{1}));
  EXPECT_EQ(clone.Lookup("compressed"), (std::vector<UnitId>{1, 2}));
  EXPECT_TRUE(original.Lookup("varint").empty());
  EXPECT_EQ(original.term_count(), 2u);
  EXPECT_EQ(clone.term_count(), 4u);
  // Appending to a shared list copies it; the original keeps the
  // 1-unit version. "blocks" was never touched and stays shared.
  EXPECT_NE(original.Postings("compressed").get(),
            clone.Postings("compressed").get());
  EXPECT_EQ(original.Postings("blocks").get(),
            clone.Postings("blocks").get());
}

TEST(PostingsCow, ProbeCountersAreSharedAcrossLineage) {
  InvertedIndex original;
  original.Add(1, "shared probe counters");
  InvertedIndex clone = original;
  const uint64_t before = original.probe_stats().probes;
  (void)clone.Lookup("shared");
  (void)original.Lookup("counters");
  // Probes against either copy land in one lineage-wide tally.
  EXPECT_EQ(original.probe_stats().probes, before + 2);
  EXPECT_EQ(clone.probe_stats().probes, before + 2);
}

}  // namespace
}  // namespace sgmlqdb::text
