#include "text/postings.h"

#include <algorithm>
#include <cassert>

namespace sgmlqdb::text {

namespace {

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

inline uint64_t GetVarint(const uint8_t** p) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    uint8_t b = *(*p)++;
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

/// Encodes a block's non-first posting after (prev_unit,
/// prev_position): the unit gap, then the position delta within the
/// same unit or the absolute position in a new one.
void PutNext(UnitId prev_unit, uint32_t prev_position, UnitId unit,
             uint32_t position, std::vector<uint8_t>* out) {
  const uint64_t gap = unit - prev_unit;
  PutVarint(gap, out);
  PutVarint(gap == 0 ? position - prev_position : position, out);
}

}  // namespace

void CompressedPostings::Append(UnitId unit, uint32_t position) {
  assert(count_ == 0 || unit > tail_unit_ ||
         (unit == tail_unit_ && position > tail_position_));
  if (blocks_.empty() || blocks_.back().count == kBlockPostings) {
    Block b;
    b.first_unit = unit;
    b.last_unit = unit;
    b.offset = static_cast<uint32_t>(bytes_.size());
    b.count = 1;
    blocks_.push_back(b);
    PutVarint(position, &bytes_);
  } else {
    Block& b = blocks_.back();
    PutNext(tail_unit_, tail_position_, unit, position, &bytes_);
    b.last_unit = unit;
    ++b.count;
  }
  tail_unit_ = unit;
  tail_position_ = position;
  ++count_;
}

void CompressedPostings::DecodeAll(std::vector<Posting>* out) const {
  out->reserve(out->size() + count_);
  for (Cursor c = cursor(); !c.at_end(); c.Next()) {
    out->push_back(Posting{c.unit(), c.position()});
  }
}

void CompressedPostings::DecodeBlock(size_t b,
                                     std::vector<Posting>* out) const {
  const Block& block = blocks_[b];
  const uint8_t* p = bytes_.data() + block.offset;
  UnitId unit = block.first_unit;
  uint32_t position = static_cast<uint32_t>(GetVarint(&p));
  out->push_back(Posting{unit, position});
  for (uint32_t i = 1; i < block.count; ++i) {
    const uint64_t gap = GetVarint(&p);
    const uint32_t v = static_cast<uint32_t>(GetVarint(&p));
    if (gap == 0) {
      position += v;
    } else {
      unit += gap;
      position = v;
    }
    out->push_back(Posting{unit, position});
  }
}

void CompressedPostings::AppendBlock(const Posting* postings, size_t n) {
  assert(n > 0 && n <= kBlockPostings);
  Block b;
  b.first_unit = postings[0].unit;
  b.last_unit = postings[n - 1].unit;
  b.offset = static_cast<uint32_t>(bytes_.size());
  b.count = static_cast<uint32_t>(n);
  PutVarint(postings[0].position, &bytes_);
  for (size_t i = 1; i < n; ++i) {
    PutNext(postings[i - 1].unit, postings[i - 1].position, postings[i].unit,
            postings[i].position, &bytes_);
  }
  blocks_.push_back(b);
  count_ += n;
  tail_unit_ = postings[n - 1].unit;
  tail_position_ = postings[n - 1].position;
}

void CompressedPostings::CopyBlock(const CompressedPostings& src, size_t b) {
  Block block = src.blocks_[b];
  const size_t end = b + 1 < src.blocks_.size() ? src.blocks_[b + 1].offset
                                                : src.bytes_.size();
  // A block's payload is self-contained (its first unit lives in the
  // header), so its bytes move verbatim.
  bytes_.insert(bytes_.end(), src.bytes_.begin() + block.offset,
                src.bytes_.begin() + static_cast<long>(end));
  block.offset = static_cast<uint32_t>(bytes_.size() - (end - block.offset));
  blocks_.push_back(block);
  count_ += block.count;
}

std::optional<CompressedPostings> CompressedPostings::WithoutUnits(
    const std::vector<UnitId>& units, SpliceCounters* counters) const {
  CompressedPostings out;
  out.blocks_.reserve(blocks_.size());
  out.bytes_.reserve(bytes_.size());
  // The open last block of `out`, decoded: kept postings of rewritten
  // blocks and the neighbours merged into them. Never more than
  // kBlockPostings; encoded when the next block cannot join it.
  std::vector<Posting> pending;
  std::vector<Posting> decoded;
  uint64_t removed = 0;
  uint64_t rewritten = 0;
  bool last_copied = false;  // out's last block came from CopyBlock
  auto flush = [&] {
    if (pending.empty()) return;
    out.AppendBlock(pending.data(), pending.size());
    rewritten += pending.size();
    pending.clear();
    last_copied = false;
  };
  size_t r = 0;  // first removed unit not below the current block
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const Block& block = blocks_[b];
    while (r < units.size() && units[r] < block.first_unit) ++r;
    // Only a block whose header range holds a removed unit is decoded.
    const bool scanned = r < units.size() && units[r] <= block.last_unit;
    bool rewrite = false;
    if (scanned) {
      decoded.clear();
      DecodeBlock(b, &decoded);
      size_t keep = 0;
      size_t s = r;
      for (const Posting& p : decoded) {
        while (s < units.size() && units[s] < p.unit) ++s;
        if (s < units.size() && units[s] == p.unit) continue;
        decoded[keep++] = p;
      }
      removed += decoded.size() - keep;
      rewrite = keep < decoded.size();
      decoded.resize(keep);
    }
    const size_t n = rewrite ? decoded.size() : block.count;
    if (n == 0) continue;  // the whole block went
    // Merge with the open last block when both fit in one, so no two
    // adjacent blocks ever hold <= kBlockPostings together.
    const size_t last_n = !pending.empty()      ? pending.size()
                          : out.blocks_.empty() ? 0
                                                : out.blocks_.back().count;
    if (last_n > 0 && last_n + n <= kBlockPostings) {
      if (pending.empty()) {
        // Reopen out's last encoded block.
        const Block last = out.blocks_.back();
        out.DecodeBlock(out.blocks_.size() - 1, &pending);
        out.bytes_.resize(last.offset);
        out.count_ -= last.count;
        out.blocks_.pop_back();
      }
      if (scanned) {
        pending.insert(pending.end(), decoded.begin(), decoded.end());
      } else {
        DecodeBlock(b, &pending);
      }
      continue;
    }
    flush();
    if (rewrite) {
      pending.swap(decoded);
    } else {
      out.CopyBlock(*this, b);
      last_copied = true;
    }
  }
  flush();
  if (removed == 0) return std::nullopt;
  if (last_copied) {
    // Restore the append state from the copied last block.
    decoded.clear();
    out.DecodeBlock(out.blocks_.size() - 1, &decoded);
    out.tail_unit_ = decoded.back().unit;
    out.tail_position_ = decoded.back().position;
  }
  counters->postings_removed += removed;
  counters->postings_rewritten += rewritten;
  return out;
}

void CompressedPostings::AppendDistinctUnits(std::vector<UnitId>* out,
                                             DecodeCounters* counters) const {
  for (const Block& b : blocks_) {
    const uint8_t* p = bytes_.data() + b.offset;
    UnitId unit = b.first_unit;
    GetVarint(&p);  // first posting's position
    // A unit can span blocks: the block's first unit may continue the
    // previous block's last.
    if (out->empty() || out->back() != unit) out->push_back(unit);
    for (uint32_t i = 1; i < b.count; ++i) {
      uint64_t gap = GetVarint(&p);
      GetVarint(&p);  // position, stepped over
      if (gap != 0) {
        unit += gap;
        out->push_back(unit);
      }
    }
  }
  if (counters != nullptr) {
    counters->blocks_decoded += blocks_.size();
    counters->postings_decoded += count_;
  }
}

CompressedPostings::Cursor CompressedPostings::cursor(
    DecodeCounters* counters) const {
  if (count_ == 0) return Cursor();
  return Cursor(this, counters);
}

CompressedPostings::Cursor::Cursor(const CompressedPostings* list,
                                   DecodeCounters* counters)
    : list_(list), counters_(counters) {
  EnterBlock(0);
}

void CompressedPostings::Cursor::EnterBlock(size_t b) {
  const Block& block = list_->blocks_[b];
  block_ = b;
  left_ = block.count - 1;
  p_ = list_->bytes_.data() + block.offset;
  unit_ = block.first_unit;
  position_ = static_cast<uint32_t>(GetVarint(&p_));
  if (counters_ != nullptr) {
    ++counters_->blocks_decoded;
    ++counters_->postings_decoded;
  }
}

void CompressedPostings::Cursor::DecodeNext() {
  uint64_t gap = GetVarint(&p_);
  uint64_t p = GetVarint(&p_);
  if (gap == 0) {
    position_ += static_cast<uint32_t>(p);
  } else {
    unit_ += gap;
    position_ = static_cast<uint32_t>(p);
  }
  --left_;
  if (counters_ != nullptr) ++counters_->postings_decoded;
}

void CompressedPostings::Cursor::Next() {
  if (list_ == nullptr) return;
  if (left_ > 0) {
    DecodeNext();
    return;
  }
  if (block_ + 1 < list_->blocks_.size()) {
    EnterBlock(block_ + 1);
    return;
  }
  list_ = nullptr;  // at_end
}

bool CompressedPostings::Cursor::NextUnit() {
  if (list_ == nullptr) return false;
  const UnitId current = unit_;
  // Sequential fast path: with no skip target pending, decode the
  // rest of the block on the raw payload pointer alone — no header
  // lookups, no galloping setup. This is the pure-enumeration path
  // (single-word lookups) that must stay close to a flat pointer
  // walk.
  uint64_t decoded = 0;
  while (left_ > 0) {
    uint64_t gap = GetVarint(&p_);
    uint64_t p = GetVarint(&p_);
    --left_;
    ++decoded;
    if (gap != 0) {
      unit_ += gap;
      position_ = static_cast<uint32_t>(p);
      if (counters_ != nullptr) counters_->postings_decoded += decoded;
      return true;
    }
    position_ += static_cast<uint32_t>(p);
  }
  if (counters_ != nullptr) counters_->postings_decoded += decoded;
  // Block exhausted. If later blocks still start with the same unit
  // (a unit's occurrences can span blocks), SkipToUnit's header walk
  // takes over; otherwise the next block begins the next unit.
  if (block_ + 1 >= list_->blocks_.size()) {
    list_ = nullptr;
    return false;
  }
  if (list_->blocks_[block_ + 1].first_unit == current) {
    return SkipToUnit(current + 1);
  }
  EnterBlock(block_ + 1);
  return true;
}

bool CompressedPostings::Cursor::SkipToUnit(UnitId u) {
  if (list_ == nullptr) return false;
  if (unit_ >= u) return true;
  const std::vector<Block>& blocks = list_->blocks_;
  // Fast path: u is still within the current block's range.
  if (blocks[block_].last_unit >= u) {
    while (left_ > 0) {
      DecodeNext();
      if (unit_ >= u) return true;
    }
    // last_unit >= u guarantees the scan above finds it.
  }
  // Gallop over the skip headers: exponential probe from the current
  // block, then binary search inside the bracketed window, so short
  // skips stay O(1) and long skips O(log distance).
  if (counters_ != nullptr) {
    // The unread tail of the current block is skipped, whatever the
    // gallop lands on.
    counters_->postings_skipped += left_;
  }
  size_t lo = block_ + 1;
  if (lo >= blocks.size()) {
    list_ = nullptr;
    return false;
  }
  size_t step = 1;
  size_t hi = lo;
  while (hi < blocks.size() && blocks[hi].last_unit < u) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, blocks.size());
  auto it = std::lower_bound(
      blocks.begin() + static_cast<long>(lo), blocks.begin() + static_cast<long>(hi), u,
      [](const Block& b, UnitId needle) { return b.last_unit < needle; });
  size_t target = static_cast<size_t>(it - blocks.begin());
  if (counters_ != nullptr) {
    for (size_t b = block_ + 1; b < target; ++b) {
      ++counters_->blocks_skipped;
      counters_->postings_skipped += blocks[b].count;
    }
  }
  if (target == blocks.size()) {
    list_ = nullptr;
    return false;
  }
  EnterBlock(target);
  while (unit_ < u && left_ > 0) DecodeNext();
  if (unit_ >= u) return true;
  // The block's last_unit was >= u, so this is unreachable; guard
  // against a corrupted list anyway.
  list_ = nullptr;
  return false;
}

void CompressedPostings::Cursor::CurrentUnitPositions(
    std::vector<uint32_t>* out) {
  if (list_ == nullptr) return;
  const UnitId current = unit_;
  while (!at_end() && unit_ == current) {
    out->push_back(position_);
    Next();
  }
}

}  // namespace sgmlqdb::text
