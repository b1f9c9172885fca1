#include "path/path.h"

#include <algorithm>
#include <set>

namespace sgmlqdb::path {

using om::Database;
using om::ObjectId;
using om::Value;
using om::ValueKind;

PathStep PathStep::Attr(std::string name) {
  PathStep s(Kind::kAttr);
  s.attr_ = std::move(name);
  return s;
}

PathStep PathStep::Index(int64_t i) {
  PathStep s(Kind::kIndex);
  s.index_ = i;
  return s;
}

PathStep PathStep::Deref() { return PathStep(Kind::kDeref); }

PathStep PathStep::SetElem(Value v) {
  PathStep s(Kind::kSetElem);
  s.elem_ = std::move(v);
  return s;
}

bool operator==(const PathStep& a, const PathStep& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case PathStep::Kind::kAttr:
      return a.attr_ == b.attr_;
    case PathStep::Kind::kIndex:
      return a.index_ == b.index_;
    case PathStep::Kind::kDeref:
      return true;
    case PathStep::Kind::kSetElem:
      return a.elem_ == b.elem_;
  }
  return false;
}

std::string PathStep::ToString() const {
  switch (kind_) {
    case Kind::kAttr:
      return "." + attr_;
    case Kind::kIndex:
      return "[" + std::to_string(index_) + "]";
    case Kind::kDeref:
      return "->";
    case Kind::kSetElem:
      return "{" + elem_.ToString() + "}";
  }
  return "?";
}

Path Path::Append(PathStep step) const {
  std::vector<PathStep> steps = steps_;
  steps.push_back(std::move(step));
  return Path(std::move(steps));
}

Path Path::Concat(const Path& other) const {
  std::vector<PathStep> steps = steps_;
  steps.insert(steps.end(), other.steps_.begin(), other.steps_.end());
  return Path(std::move(steps));
}

Path Path::Slice(size_t from, size_t to) const {
  if (from >= steps_.size()) return Path();
  to = std::min(to, steps_.size() - 1);
  if (to < from) return Path();
  return Path(std::vector<PathStep>(steps_.begin() + from,
                                    steps_.begin() + to + 1));
}

bool Path::EndsWith(const Path& suffix) const {
  if (suffix.length() > length()) return false;
  return std::equal(suffix.steps_.begin(), suffix.steps_.end(),
                    steps_.end() - suffix.length());
}

bool Path::StartsWith(const Path& prefix) const {
  if (prefix.length() > length()) return false;
  return std::equal(prefix.steps_.begin(), prefix.steps_.end(),
                    steps_.begin());
}

bool operator<(const Path& a, const Path& b) {
  return Value::Compare(a.ToValue(), b.ToValue()) < 0;
}

om::Value PathStep::ToValue() const {
  switch (kind_) {
    case Kind::kAttr:
      return Value::Tuple({{"attr", Value::String(attr_)}});
    case Kind::kIndex:
      return Value::Tuple({{"index", Value::Integer(index_)}});
    case Kind::kDeref:
      return Value::Tuple({{"deref", Value::Nil()}});
    case Kind::kSetElem:
      return Value::Tuple({{"elem", elem_}});
  }
  return Value::Nil();
}

om::Value Path::ToValue() const {
  std::vector<Value> elems;
  elems.reserve(steps_.size());
  for (const PathStep& s : steps_) elems.push_back(s.ToValue());
  return Value::List(std::move(elems));
}

Result<Path> Path::FromValue(const om::Value& v) {
  if (v.kind() != ValueKind::kList) {
    return Status::InvalidArgument("path value must be a list, got " +
                                   v.ToString());
  }
  std::vector<PathStep> steps;
  for (size_t i = 0; i < v.size(); ++i) {
    Value e = v.Element(i);
    if (e.kind() != ValueKind::kTuple || e.size() != 1) {
      return Status::InvalidArgument("malformed path step " + e.ToString());
    }
    const std::string& tag = e.FieldName(0);
    Value payload = e.FieldValue(0);
    if (tag == "attr" && payload.kind() == ValueKind::kString) {
      steps.push_back(PathStep::Attr(payload.AsString()));
    } else if (tag == "index" && payload.kind() == ValueKind::kInteger) {
      steps.push_back(PathStep::Index(payload.AsInteger()));
    } else if (tag == "deref") {
      steps.push_back(PathStep::Deref());
    } else if (tag == "elem") {
      steps.push_back(PathStep::SetElem(std::move(payload)));
    } else {
      return Status::InvalidArgument("malformed path step " + e.ToString());
    }
  }
  return Path(std::move(steps));
}

std::string Path::ToString() const {
  if (steps_.empty()) return "<empty>";
  std::string out;
  for (const PathStep& s : steps_) out += s.ToString();
  return out;
}

Result<om::Value> ApplyPath(const Database& db, const Value& start,
                            const Path& p) {
  Value cur = start;
  for (const PathStep& s : p.steps()) {
    switch (s.kind()) {
      case PathStep::Kind::kAttr: {
        if (cur.kind() != ValueKind::kTuple) {
          return Status::TypeError("cannot select ." + s.attr() +
                                   " on non-tuple " + cur.ToString());
        }
        std::optional<Value> f = cur.FindField(s.attr());
        if (!f.has_value()) {
          return Status::NotFound("no attribute '" + s.attr() + "' in " +
                                  cur.ToString());
        }
        cur = *f;
        break;
      }
      case PathStep::Kind::kIndex: {
        if (cur.kind() != ValueKind::kList) {
          return Status::TypeError("cannot index non-list " + cur.ToString());
        }
        if (s.index() < 0 || static_cast<size_t>(s.index()) >= cur.size()) {
          return Status::NotFound("index " + std::to_string(s.index()) +
                                  " out of range for list of size " +
                                  std::to_string(cur.size()));
        }
        cur = cur.Element(static_cast<size_t>(s.index()));
        break;
      }
      case PathStep::Kind::kDeref: {
        if (cur.kind() != ValueKind::kObject) {
          return Status::TypeError("cannot dereference non-object " +
                                   cur.ToString());
        }
        SGMLQDB_ASSIGN_OR_RETURN(cur, db.Deref(cur.AsObject()));
        break;
      }
      case PathStep::Kind::kSetElem: {
        if (cur.kind() != ValueKind::kSet) {
          return Status::TypeError("cannot choose set element of " +
                                   cur.ToString());
        }
        bool found = false;
        for (size_t i = 0; i < cur.size(); ++i) {
          if (cur.Element(i) == s.elem()) {
            found = true;
            break;
          }
        }
        if (!found) {
          return Status::NotFound("value " + s.elem().ToString() +
                                  " is not in set " + cur.ToString());
        }
        cur = s.elem();
        break;
      }
    }
  }
  return cur;
}

namespace {

struct EnumState {
  const Database* db;
  const EnumerateOptions* options;
  const PathVisitor* visit;
  size_t visited = 0;
  bool stopped = false;
  std::vector<PathStep> current;              // the path being built
  std::set<std::string> derefed_classes;      // restricted semantics
  std::set<uint64_t> derefed_oids;            // liberal semantics

  bool Emit(const Value& v) {
    ++visited;
    if (!(*visit)(Path(current), v)) {
      stopped = true;
      return false;
    }
    if (options->max_paths != 0 && visited >= options->max_paths) {
      stopped = true;
      return false;
    }
    return true;
  }

  void Walk(const Value& v) {
    if (stopped) return;
    if (!Emit(v)) return;
    if (options->max_length != 0 && current.size() >= options->max_length) {
      return;
    }
    switch (v.kind()) {
      case ValueKind::kTuple:
        for (size_t i = 0; i < v.size() && !stopped; ++i) {
          current.push_back(PathStep::Attr(v.FieldName(i)));
          Walk(v.FieldValue(i));
          current.pop_back();
        }
        break;
      case ValueKind::kList:
        for (size_t i = 0; i < v.size() && !stopped; ++i) {
          current.push_back(PathStep::Index(static_cast<int64_t>(i)));
          Walk(v.Element(i));
          current.pop_back();
        }
        break;
      case ValueKind::kSet:
        for (size_t i = 0; i < v.size() && !stopped; ++i) {
          current.push_back(PathStep::SetElem(v.Element(i)));
          Walk(v.Element(i));
          current.pop_back();
        }
        break;
      case ValueKind::kObject: {
        ObjectId oid = v.AsObject();
        const std::string* cls = db->ClassOf(oid);
        if (cls == nullptr) break;  // dangling oid: no deref edge
        if (options->semantics == PathSemantics::kRestricted) {
          if (derefed_classes.count(*cls) > 0) break;
          Result<Value> target = db->Deref(oid);
          if (!target.ok()) break;
          derefed_classes.insert(*cls);
          current.push_back(PathStep::Deref());
          Walk(target.value());
          current.pop_back();
          derefed_classes.erase(*cls);
        } else {
          if (derefed_oids.count(oid.id()) > 0) break;
          Result<Value> target = db->Deref(oid);
          if (!target.ok()) break;
          derefed_oids.insert(oid.id());
          current.push_back(PathStep::Deref());
          Walk(target.value());
          current.pop_back();
          derefed_oids.erase(oid.id());
        }
        break;
      }
      default:
        break;  // atomic: leaf
    }
  }
};

}  // namespace

size_t EnumeratePaths(const Database& db, const Value& start,
                      const EnumerateOptions& options,
                      const PathVisitor& visit) {
  EnumState state;
  state.db = &db;
  state.options = &options;
  state.visit = &visit;
  state.Walk(start);
  return state.visited;
}

std::vector<Path> AllPaths(const Database& db, const Value& start,
                           const EnumerateOptions& options) {
  std::vector<Path> out;
  EnumeratePaths(db, start, options, [&](const Path& p, const Value&) {
    out.push_back(p);
    return true;
  });
  return out;
}

std::vector<std::pair<Path, om::Value>> AllPathsWithValues(
    const Database& db, const Value& start, const EnumerateOptions& options) {
  std::vector<std::pair<Path, Value>> out;
  EnumeratePaths(db, start, options, [&](const Path& p, const Value& v) {
    out.emplace_back(p, v);
    return true;
  });
  return out;
}

}  // namespace sgmlqdb::path
