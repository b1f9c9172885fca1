// Concrete paths (paper §5.2): sequences of
//
//   .a   attribute selection (tuple or marked union),
//   [i]  list indexing,
//   ->   object dereferencing,
//   {v}  set-element choice,
//
// navigating through database objects/values. Paths are first-class
// citizens: they convert to/from om::Value (as a list of step values)
// so that query results can contain paths and list functions (length,
// slicing) apply to them — exactly the paper's §4.3 points 3 & 4.

#ifndef SGMLQDB_PATH_PATH_H_
#define SGMLQDB_PATH_PATH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "base/status.h"
#include "om/database.h"
#include "om/value.h"

namespace sgmlqdb::path {

/// One step of a concrete path.
class PathStep {
 public:
  enum class Kind { kAttr, kIndex, kDeref, kSetElem };

  static PathStep Attr(std::string name);
  static PathStep Index(int64_t i);
  static PathStep Deref();
  static PathStep SetElem(om::Value v);

  Kind kind() const { return kind_; }
  const std::string& attr() const { return attr_; }
  int64_t index() const { return index_; }
  const om::Value& elem() const { return elem_; }

  friend bool operator==(const PathStep& a, const PathStep& b);
  friend bool operator!=(const PathStep& a, const PathStep& b) {
    return !(a == b);
  }

  /// ".sections", "[0]", "->", "{v}".
  std::string ToString() const;

  /// This step's element of Path::ToValue's list encoding.
  om::Value ToValue() const;

 private:
  PathStep(Kind kind) : kind_(kind), index_(0) {}  // NOLINT

  Kind kind_;
  std::string attr_;
  int64_t index_;
  om::Value elem_;
};

/// A concrete path: a (possibly empty) sequence of steps.
class Path {
 public:
  Path() = default;
  explicit Path(std::vector<PathStep> steps) : steps_(std::move(steps)) {}

  static Path Empty() { return Path(); }

  size_t length() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }
  const PathStep& step(size_t i) const { return steps_[i]; }
  const std::vector<PathStep>& steps() const { return steps_; }

  /// Returns this path extended by one step / by another path.
  Path Append(PathStep step) const;
  Path Concat(const Path& other) const;

  /// Paper §4.3 point 4: P[i:j] — the subpath of steps i..j inclusive.
  /// Out-of-range indices are clamped.
  Path Slice(size_t from, size_t to) const;

  /// True if this path's step sequence ends with `suffix`'s.
  bool EndsWith(const Path& suffix) const;
  /// True if this path's step sequence starts with `prefix`'s.
  bool StartsWith(const Path& prefix) const;

  friend bool operator==(const Path& a, const Path& b) {
    return a.steps_ == b.steps_;
  }
  friend bool operator!=(const Path& a, const Path& b) { return !(a == b); }
  friend bool operator<(const Path& a, const Path& b);

  /// Paths are data: encode as a list value, one tuple per step:
  ///   .a  -> tuple(attr: "a")     [i] -> tuple(index: i)
  ///   ->  -> tuple(deref: nil)    {v} -> tuple(elem: v)
  om::Value ToValue() const;
  /// Inverse of ToValue; fails on malformed encodings.
  static Result<Path> FromValue(const om::Value& v);

  /// ".sections[0].subsectns[0]" (paper §4.3 notation); "<empty>" for
  /// the empty path.
  std::string ToString() const;

 private:
  std::vector<PathStep> steps_;
};

inline std::ostream& operator<<(std::ostream& os, const Path& p) {
  return os << p.ToString();
}

/// Applies a concrete path to a start value: follows each step,
/// failing with NotFound/TypeError if a step does not apply.
Result<om::Value> ApplyPath(const om::Database& db, const om::Value& start,
                            const Path& path);

/// Path interpretation (paper §5.2 "Range-Restriction"):
///  - kRestricted: no two dereferences of objects *of the same class*
///    on one path (the paper's chosen semantics — finitely many paths,
///    schema-derivable);
///  - kLiberal: no object dereferenced twice on one path (paths grow
///    with the data; needs loop detection).
enum class PathSemantics { kRestricted, kLiberal };

struct EnumerateOptions {
  PathSemantics semantics = PathSemantics::kRestricted;
  /// Hard cap on emitted paths (safety valve; 0 = unlimited).
  size_t max_paths = 0;
  /// Hard cap on path length (0 = unlimited).
  size_t max_length = 0;
};

/// Visits every (path, value-at-end-of-path) pair reachable from
/// `start` under the chosen semantics, including the empty path at
/// `start` itself. Enumeration is depth-first in value order; the
/// callback returns false to stop early. Returns the number of pairs
/// visited.
using PathVisitor = std::function<bool(const Path&, const om::Value&)>;
size_t EnumeratePaths(const om::Database& db, const om::Value& start,
                      const EnumerateOptions& options,
                      const PathVisitor& visit);

/// Convenience: all paths from `start` (paper: `my_article PATH_p`),
/// optionally only those whose step sequence ends with `suffix`.
std::vector<Path> AllPaths(const om::Database& db, const om::Value& start,
                           const EnumerateOptions& options);
std::vector<std::pair<Path, om::Value>> AllPathsWithValues(
    const om::Database& db, const om::Value& start,
    const EnumerateOptions& options);

}  // namespace sgmlqdb::path

#endif  // SGMLQDB_PATH_PATH_H_
