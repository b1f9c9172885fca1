// Block-compressed positional posting lists for the inverted index.
//
// A posting is (unit, position). The classic flat layout —
// std::vector<Posting> with 16 bytes per entry — dominates the text
// index's footprint and makes every intersection decode every entry.
// This layout stores postings in blocks of kBlockPostings entries:
//
//  * payload: varint-coded deltas. Within a block, each posting after
//    the first encodes its unit as a gap from the previous posting's
//    unit; a gap of 0 (same unit, next occurrence) is followed by the
//    position delta, a positive gap by the absolute position. The
//    block's first posting takes its unit from the header and encodes
//    only its position.
//  * skip header per block: {first unit, last unit, byte offset,
//    posting count}. A probe for unit u compares u against the
//    headers and decodes only blocks whose [first, last] range can
//    contain u — everything else is skipped in O(1) per block.
//
// Cursor is the probe-side view: sequential Next()/NextUnit() plus
// SkipToUnit(), which gallops (exponential + binary search) over the
// skip headers. Intersections of selective terms therefore touch a
// handful of blocks of the long list instead of decoding it.
//
// Lists grow through Append (units non-decreasing, positions
// increasing within a unit — the tokenizer's natural order). Removal
// is a block splice (WithoutUnits): blocks whose [first, last] header
// holds no removed unit are copied as bytes, and only the blocks that
// do — plus a neighbour small enough to merge with — are decoded and
// encoded again. Merging keeps the list from fragmenting: no two
// adjacent blocks together hold <= kBlockPostings postings, so
// block_count() < 2 * size() / kBlockPostings + 2 after any number of
// removals.
//
// DecodeCounters reports what a probe actually did (blocks decoded /
// skipped, postings decoded / skipped); the index aggregates them
// into lineage-wide probe stats surfaced by /stats.

#ifndef SGMLQDB_TEXT_POSTINGS_H_
#define SGMLQDB_TEXT_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace sgmlqdb::text {

/// Identifies an indexed text unit (caller-assigned).
using UnitId = uint64_t;

/// One occurrence of a term: token `position` within unit `unit`.
struct Posting {
  UnitId unit;
  uint32_t position;

  friend bool operator==(const Posting& a, const Posting& b) {
    return a.unit == b.unit && a.position == b.position;
  }
};

/// What one probe decoded vs. skipped (see file comment).
struct DecodeCounters {
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
  uint64_t postings_decoded = 0;
  uint64_t postings_skipped = 0;
};

/// What one WithoutUnits splice did: postings dropped, and kept
/// postings that had to be encoded again (the rewritten blocks).
struct SpliceCounters {
  uint64_t postings_removed = 0;
  uint64_t postings_rewritten = 0;
};

class CompressedPostings {
 public:
  /// Postings per block. 128 keeps blocks around one or two cache
  /// lines compressed while making the skip headers ~1% of the list.
  static constexpr size_t kBlockPostings = 128;

  /// Appends a posting. (unit, position) must be >= the previous
  /// append (units non-decreasing; positions increasing per unit).
  void Append(UnitId unit, uint32_t position);

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  size_t block_count() const { return blocks_.size(); }
  /// Postings in block `b` (< block_count()).
  size_t block_postings(size_t b) const { return blocks_[b].count; }
  UnitId first_unit() const { return blocks_.front().first_unit; }
  UnitId last_unit() const { return blocks_.back().last_unit; }

  /// Compressed footprint: payload bytes + skip headers + bookkeeping.
  size_t ByteSize() const {
    return bytes_.size() + blocks_.size() * sizeof(Block) + sizeof(*this);
  }
  /// What the flat layout (std::vector<Posting>) would take.
  size_t FlatByteSize() const { return count_ * sizeof(Posting); }

  /// Decodes the whole list, appending to `out` (tests).
  void DecodeAll(std::vector<Posting>* out) const;

  /// This list without the postings of `units` (ascending, distinct),
  /// built by a block splice (see file comment); a later Append
  /// continues it. Returns nullopt, leaving `counters` untouched, when
  /// none of `units` occurs in the list.
  std::optional<CompressedPostings> WithoutUnits(
      const std::vector<UnitId>& units, SpliceCounters* counters) const;

  /// Appends the distinct units of the whole list, ascending — the
  /// single-word lookup path. One tight pass over the raw payload
  /// with no cursor state or per-posting header checks; positions are
  /// decoded only to be stepped over.
  void AppendDistinctUnits(std::vector<UnitId>* out,
                           DecodeCounters* counters = nullptr) const;

  /// Forward decoder with skip-pointer galloping. Invalidated by any
  /// Append to the list. A default-constructed Cursor is at_end.
  class Cursor {
   public:
    Cursor() = default;

    bool at_end() const { return list_ == nullptr; }
    UnitId unit() const { return unit_; }
    uint32_t position() const { return position_; }
    /// size() of the underlying list (intersection ordering heuristic).
    size_t list_size() const { return list_ == nullptr ? 0 : list_->count_; }

    /// Advances one posting; at_end when the list is exhausted.
    void Next();
    /// Advances to the first posting of the next distinct unit.
    /// Returns false (and goes at_end) when there is none.
    bool NextUnit();
    /// Advances to the first posting whose unit is >= `u` (no-op if
    /// already there). Gallops over whole blocks via the skip
    /// headers. Returns false (at_end) when every remaining unit < u.
    bool SkipToUnit(UnitId u);
    /// Appends all positions of the current unit to `out` and leaves
    /// the cursor on the next distinct unit (at_end if none).
    void CurrentUnitPositions(std::vector<uint32_t>* out);

   private:
    friend class CompressedPostings;
    Cursor(const CompressedPostings* list, DecodeCounters* counters);

    /// Enters block `b` and decodes its first posting.
    void EnterBlock(size_t b);
    /// Decodes the next posting of the current block (left_ > 0).
    void DecodeNext();

    const CompressedPostings* list_ = nullptr;  // null <=> at_end
    DecodeCounters* counters_ = nullptr;
    size_t block_ = 0;  // current block index
    /// Raw payload pointer at the next undecoded posting and the
    /// count of postings left in the current block. Sequential
    /// decoding (Next/NextUnit with no skip target) runs entirely on
    /// these two — no per-posting header lookups or bounds-indexed
    /// byte access, which is what makes pure enumeration competitive
    /// with a flat pointer walk (the E15 single-word regression).
    const uint8_t* p_ = nullptr;
    uint32_t left_ = 0;
    UnitId unit_ = 0;
    uint32_t position_ = 0;
  };

  /// A cursor at the first posting (at_end for an empty list).
  /// `counters` (optional) accumulates what the probe decodes.
  Cursor cursor(DecodeCounters* counters = nullptr) const;

 private:
  friend class Cursor;

  struct Block {
    UnitId first_unit = 0;
    UnitId last_unit = 0;
    uint32_t offset = 0;  // payload byte offset of the block
    uint32_t count = 0;   // postings in the block
  };

  /// Decodes block `b` of this list, appending to `out`.
  void DecodeBlock(size_t b, std::vector<Posting>* out) const;
  /// Appends `postings` as one new block (1..kBlockPostings entries,
  /// past every posting already in the list).
  void AppendBlock(const Posting* postings, size_t n);
  /// Appends a copy of `src`'s block `b` (bytes copied, offset
  /// shifted).
  void CopyBlock(const CompressedPostings& src, size_t b);

  std::vector<Block> blocks_;
  std::vector<uint8_t> bytes_;
  size_t count_ = 0;
  // Append state (the last posting written).
  UnitId tail_unit_ = 0;
  uint32_t tail_position_ = 0;
};

}  // namespace sgmlqdb::text

#endif  // SGMLQDB_TEXT_POSTINGS_H_
