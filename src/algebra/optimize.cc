#include "algebra/optimize.h"

#include <optional>
#include <utility>
#include <vector>

#include "algebra/static_types.h"
#include "base/fault_injection.h"
#include "calculus/formula.h"
#include "calculus/terms.h"
#include "om/type.h"
#include "text/pattern.h"

namespace sgmlqdb::algebra {

namespace {

using calculus::DataTerm;
using calculus::Formula;
using om::Type;
using om::TypeKind;
using om::ValueKind;

// ---------------------------------------------------------------------
// Static analysis of text-predicate arguments against a branch's
// schema-derived column types (shared machinery in static_types.h).

/// True when a contains/near atom over `term` can never hold: the
/// term always soft-fails, or its value never carries text (numeric /
/// boolean atomics — TextOf type-errors, making the atom false).
bool TextAtomInfeasible(const DataTerm& term,
                        const std::map<std::string, Type>& types,
                        const om::Schema& schema) {
  StaticTerm st = AnalyzeTerm(term, types, schema);
  if (st.never) return true;
  return st.type.has_value() && st.type->is_atomic() &&
         st.type->kind() != TypeKind::kString;
}

/// True when `term` statically resolves to a class-typed value, so
/// every row's value is an object and the index candidate set alone
/// can short-circuit the branch.
bool TermIsObjectTyped(const DataTerm& term,
                       const std::map<std::string, Type>& types,
                       const om::Schema& schema) {
  StaticTerm st = AnalyzeTerm(term, types, schema);
  return !st.never && st.type.has_value() &&
         st.type->kind() == TypeKind::kClass;
}

// ---------------------------------------------------------------------
// Branch pruning.

/// The compiler's dead-alternative placeholder: Project over an empty
/// union.
bool IsDeadPlaceholder(const PlanPtr& branch) {
  return branch->kind() == NodeKind::kProject &&
         branch->children().size() == 1 &&
         branch->children()[0]->kind() == NodeKind::kUnionAll &&
         branch->children()[0]->children().empty();
}

/// Scans the branch for filters whose text atom is statically
/// infeasible under this branch's column types.
bool HasInfeasibleTextFilter(const PlanPtr& node,
                             const std::map<std::string, Type>& types,
                             const om::Schema& schema) {
  if (node->kind() == NodeKind::kFilter) {
    const Formula* f = node->filter_formula();
    if (f != nullptr && f->kind() == Formula::Kind::kInterpreted &&
        (f->predicate() == "contains" || f->predicate() == "near") &&
        !f->terms().empty() &&
        TextAtomInfeasible(*f->terms()[0], types, schema)) {
      return true;
    }
  }
  for (const PlanPtr& c : node->children()) {
    if (HasInfeasibleTextFilter(c, types, schema)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Text-index pushdown.

/// Converts one Filter into an index join when its formula is a
/// contains/near atom with constant arguments; null when not
/// applicable.
PlanPtr ConvertTextFilter(const Node& filter,
                          const std::map<std::string, Type>& types,
                          const om::Schema& schema, PlanPtr input) {
  const Formula* f = filter.filter_formula();
  const std::map<std::string, calculus::Sort>* sorts = filter.filter_sorts();
  if (f == nullptr || sorts == nullptr ||
      f->kind() != Formula::Kind::kInterpreted) {
    return nullptr;
  }
  if (f->predicate() == "contains") {
    if (f->terms().size() != 2 ||
        f->terms()[1]->kind() != DataTerm::Kind::kConstant ||
        f->terms()[1]->constant().kind() != ValueKind::kString) {
      return nullptr;
    }
    const std::string& pattern_text = f->terms()[1]->constant().AsString();
    Result<text::Pattern> pattern = text::Pattern::Parse(pattern_text);
    if (!pattern.ok()) return nullptr;  // keep runtime error behaviour
    bool object_only = TermIsObjectTyped(*f->terms()[0], types, schema);
    return IndexSemiJoin(std::move(input), f->terms()[0], pattern_text,
                         std::move(pattern).value(), *sorts, object_only);
  }
  if (f->predicate() == "near") {
    if (f->terms().size() != 4 ||
        f->terms()[1]->kind() != DataTerm::Kind::kConstant ||
        f->terms()[1]->constant().kind() != ValueKind::kString ||
        f->terms()[2]->kind() != DataTerm::Kind::kConstant ||
        f->terms()[2]->constant().kind() != ValueKind::kString ||
        f->terms()[3]->kind() != DataTerm::Kind::kConstant ||
        f->terms()[3]->constant().kind() != ValueKind::kInteger ||
        f->terms()[3]->constant().AsInteger() < 0) {
      return nullptr;
    }
    bool object_only = TermIsObjectTyped(*f->terms()[0], types, schema);
    return IndexNearJoin(
        std::move(input), f->terms()[0], f->terms()[1]->constant().AsString(),
        f->terms()[2]->constant().AsString(),
        static_cast<size_t>(f->terms()[3]->constant().AsInteger()), *sorts,
        object_only);
  }
  return nullptr;
}

PlanPtr RewriteIndexPushdown(const PlanPtr& node,
                             const std::map<std::string, Type>& types,
                             const om::Schema& schema, OptimizeStats* stats) {
  std::vector<PlanPtr> kids;
  kids.reserve(node->children().size());
  bool changed = false;
  for (const PlanPtr& c : node->children()) {
    PlanPtr r = RewriteIndexPushdown(c, types, schema, stats);
    changed = changed || r != c;
    kids.push_back(std::move(r));
  }
  if (node->kind() == NodeKind::kFilter) {
    PlanPtr converted = ConvertTextFilter(*node, types, schema, kids[0]);
    if (converted != nullptr) {
      ++stats->index_pushdowns;
      return converted;
    }
  }
  if (!changed) return node;
  return node->WithChildren(std::move(kids));
}

// ---------------------------------------------------------------------
// Filter pushdown.

bool IsPredicateNode(NodeKind k) {
  return k == NodeKind::kFilter || k == NodeKind::kIndexSemiJoin ||
         k == NodeKind::kIndexNearJoin;
}

/// Per-row operators a predicate commutes with (unless it reads a
/// column they introduce).
bool IsTransparentNode(NodeKind k) {
  switch (k) {
    case NodeKind::kAttrStep:
    case NodeKind::kDerefStep:
    case NodeKind::kClassFilter:
    case NodeKind::kUnnestList:
    case NodeKind::kIndexStep:
    case NodeKind::kUnnestSet:
    case NodeKind::kBuildPath:
    case NodeKind::kConstCol:
    case NodeKind::kBindOrCheck:
    case NodeKind::kCompute:
      return true;
    default:
      return false;
  }
}

struct PendingPredicate {
  PlanPtr pred;
  std::vector<std::string> required;
  size_t steps_passed = 0;
};

bool ReadsAny(const PendingPredicate& p,
              const std::vector<std::string>& introduced) {
  for (const std::string& col : introduced) {
    for (const std::string& req : p.required) {
      if (col == req) return true;
    }
  }
  return false;
}

/// Reattaches `preds` (original top-to-bottom order) above `node`.
PlanPtr Reattach(PlanPtr node, std::vector<PendingPredicate>& preds,
                 OptimizeStats* stats) {
  for (auto it = preds.rbegin(); it != preds.rend(); ++it) {
    if (it->steps_passed > 0) ++stats->filters_pushed;
    node = it->pred->WithChildren({std::move(node)});
  }
  preds.clear();
  return node;
}

PlanPtr SinkPredicates(const PlanPtr& node,
                       std::vector<PendingPredicate> pending,
                       OptimizeStats* stats) {
  NodeKind k = node->kind();
  if (IsPredicateNode(k)) {
    pending.push_back(
        PendingPredicate{node, node->RequiredColumns(), 0});
    return SinkPredicates(node->children()[0], std::move(pending), stats);
  }
  if (IsTransparentNode(k)) {
    std::vector<std::string> introduced = node->IntroducedColumns();
    std::vector<PendingPredicate> stop;
    std::vector<PendingPredicate> below;
    for (PendingPredicate& p : pending) {
      if (ReadsAny(p, introduced)) {
        stop.push_back(std::move(p));
      } else {
        ++p.steps_passed;
        below.push_back(std::move(p));
      }
    }
    PlanPtr child =
        SinkPredicates(node->children()[0], std::move(below), stats);
    PlanPtr rebuilt = child == node->children()[0]
                          ? node
                          : node->WithChildren({std::move(child)});
    return Reattach(std::move(rebuilt), stop, stats);
  }
  // Barrier (leaf, union, product, project, distinct): recurse into
  // children with fresh pending sets, reattach everything here.
  std::vector<PlanPtr> kids;
  kids.reserve(node->children().size());
  bool changed = false;
  for (const PlanPtr& c : node->children()) {
    PlanPtr r = SinkPredicates(c, {}, stats);
    changed = changed || r != c;
    kids.push_back(std::move(r));
  }
  PlanPtr rebuilt =
      changed ? node->WithChildren(std::move(kids)) : node;
  return Reattach(std::move(rebuilt), pending, stats);
}

// ---------------------------------------------------------------------
// Document prefilter.

/// A doc filter to splice directly above chain[introducer].
struct DocFilterSpec {
  size_t introducer;
  std::string doc_col;
  bool contains;
  std::string pattern_text;
  std::string word1, word2;
  size_t max_distance;
  /// The join term's static class ("" when unknown): lets the filter
  /// discard candidate units no term value could be.
  std::string term_class;
};

/// The static class of an index join's term under `types`, or "" when
/// it cannot be pinned to a class. Object-only joins always have
/// class-typed terms, so this usually succeeds.
std::string StaticTermClass(const Node& node,
                            const std::map<std::string, Type>& types,
                            const om::Schema& schema) {
  const DataTerm* term = node.index_term();
  if (term == nullptr) return "";
  StaticTerm st = AnalyzeTerm(*term, types, schema);
  if (st.never || !st.type.has_value() ||
      st.type->kind() != TypeKind::kClass) {
    return "";
  }
  return st.type->class_name();
}

/// True for terms whose value is derived from their variables by
/// intra-document navigation only (attribute selection, text): the
/// shapes through which a document anchor propagates.
bool NavShapedTerm(const DataTerm& t) {
  switch (t.kind()) {
    case DataTerm::Kind::kVariable:
      return true;
    case DataTerm::Kind::kFunction: {
      const std::string& fn = t.function_name();
      if (fn == "__select_attr") {
        return t.children().size() == 2 && NavShapedTerm(*t.children()[0]);
      }
      if (fn == "text") {
        return t.children().size() == 1 && NavShapedTerm(*t.children()[0]);
      }
      return false;
    }
    default:
      return false;
  }
}

/// A persistence-root type anchors its values directly (a document
/// root object) or via unnesting (a collection of root objects).
bool IsRootClass(const Type& t) { return t.kind() == TypeKind::kClass; }
bool IsRootCollection(const Type& t) {
  return (t.kind() == TypeKind::kSet || t.kind() == TypeKind::kList) &&
         t.element_type().kind() == TypeKind::kClass;
}

/// Splices IndexDocFilter nodes into a linear branch: each object-only
/// index join whose term traces back (through navigation steps only)
/// to a document anchor column gets a document-level prefilter right
/// above the anchor's introducer, so documents without candidate
/// units never run the navigation in between.
PlanPtr InsertDocFilters(const om::Schema& schema,
                         const std::map<std::string, Type>& types,
                         PlanPtr branch, OptimizeStats* stats) {
  // Collect the branch's spine, root first. Linear unary chains only,
  // except a CrossProduct with a Unit side (the compiler's seed),
  // which is traversed through its non-trivial child.
  std::vector<PlanPtr> chain;
  std::vector<size_t> descend;  // child index taken from chain[i]
  PlanPtr cur = branch;
  while (true) {
    if (cur->kind() == NodeKind::kIndexDocFilter) return branch;  // done
    chain.push_back(cur);
    const std::vector<PlanPtr>& kids = cur->children();
    if (kids.empty()) break;
    size_t idx = 0;
    if (kids.size() == 1) {
      idx = 0;
    } else if (cur->kind() == NodeKind::kCrossProduct && kids.size() == 2 &&
               (kids[0]->kind() == NodeKind::kUnit ||
                kids[1]->kind() == NodeKind::kUnit)) {
      idx = kids[0]->kind() == NodeKind::kUnit ? 1 : 0;
    } else {
      return branch;  // genuinely branching subplan: leave it alone
    }
    descend.push_back(idx);
    cur = kids[idx];
  }

  // Bottom-up anchor analysis. anchor[col] names the ancestor column
  // whose object pins the document every value of `col` is navigated
  // from; the marker value flags a column holding a collection whose
  // elements each anchor themselves once unnested.
  const std::string kRootCollection = "<collection-of-roots>";
  std::map<std::string, std::string> anchor;
  std::map<std::string, size_t> introducer;
  std::vector<DocFilterSpec> splices;
  for (size_t i = chain.size(); i-- > 0;) {
    const Node& node = *chain[i];
    NodeKind kind = node.kind();
    if (kind == NodeKind::kRootScan ||
        (kind == NodeKind::kCompute &&
         node.compute_term() != nullptr &&
         node.compute_term()->kind() == DataTerm::Kind::kName)) {
      const std::string& name = kind == NodeKind::kRootScan
                                    ? *node.root_name()
                                    : node.compute_term()->root_name();
      const std::string col = node.IntroducedColumns()[0];
      anchor.erase(col);
      const om::NameDef* def = schema.FindName(name);
      if (def == nullptr) continue;
      if (IsRootClass(def->type)) {
        anchor[col] = col;
        introducer[col] = i;
      } else if (IsRootCollection(def->type)) {
        anchor[col] = kRootCollection;
      }
      continue;
    }
    if (kind == NodeKind::kCompute) {
      // A nav-shaped term keeps its variables' shared anchor; any
      // other compute yields an unanchored column.
      const DataTerm* term = node.compute_term();
      const std::string out = node.IntroducedColumns()[0];
      std::optional<std::string> propagated;
      if (term != nullptr && NavShapedTerm(*term)) {
        std::set<calculus::Variable> vars;
        calculus::CollectVariables(*term, &vars);
        bool ok = !vars.empty();
        for (const calculus::Variable& v : vars) {
          auto it = anchor.find(v.name);
          if (it == anchor.end() || it->second == kRootCollection ||
              (propagated.has_value() && *propagated != it->second)) {
            ok = false;
            break;
          }
          propagated = it->second;
        }
        if (!ok) propagated.reset();
      }
      anchor.erase(out);
      if (propagated.has_value()) anchor[out] = *propagated;
      continue;
    }
    std::string in, out;
    if (node.NavColumns(&in, &out)) {
      auto it = anchor.find(in);
      std::optional<std::string> next;
      bool self = false;
      if (it != anchor.end()) {
        if (it->second == kRootCollection) {
          // Unnesting a collection of roots: each element is its own
          // document anchor.
          self = kind == NodeKind::kUnnestSet ||
                 kind == NodeKind::kUnnestList;
        } else {
          next = it->second;
        }
      }
      for (const std::string& c : node.IntroducedColumns()) anchor.erase(c);
      if (self) {
        anchor[out] = out;
        introducer[out] = i;
      } else if (next.has_value()) {
        anchor[out] = *next;
      }
      continue;
    }
    for (const std::string& c : node.IntroducedColumns()) anchor.erase(c);
    const std::string* pattern = node.index_contains_pattern();
    std::string w1, w2;
    size_t k = 0;
    bool is_near = node.index_near_words(&w1, &w2, &k);
    if (pattern == nullptr && !is_near) continue;
    // Every column the term reads must share one document anchor.
    std::vector<std::string> required = node.RequiredColumns();
    if (required.empty()) continue;
    std::string a;
    bool anchored = true;
    for (const std::string& r : required) {
      auto it = anchor.find(r);
      if (it == anchor.end() || it->second == kRootCollection) {
        anchored = false;
        break;
      }
      if (a.empty()) {
        a = it->second;
      } else if (a != it->second) {
        anchored = false;
        break;
      }
    }
    if (!anchored) continue;
    size_t j = introducer[a];
    if (j <= i + 1) continue;  // no navigation in between: not worth it
    splices.push_back(DocFilterSpec{j, a, pattern != nullptr,
                                    pattern != nullptr ? *pattern : "", w1,
                                    w2, k,
                                    StaticTermClass(node, types, schema)});
  }
  if (splices.empty()) return branch;

  // Rebuild the spine leaf-up, inserting filters at their gaps.
  PlanPtr rebuilt = chain.back();
  for (size_t i = chain.size() - 1; i-- > 0;) {
    for (const DocFilterSpec& s : splices) {
      if (s.introducer != i + 1) continue;
      if (s.contains) {
        Result<text::Pattern> p = text::Pattern::Parse(s.pattern_text);
        if (!p.ok()) continue;
        rebuilt = IndexDocFilterContains(std::move(rebuilt), s.doc_col,
                                         s.pattern_text,
                                         std::move(p).value(), s.term_class);
      } else {
        rebuilt = IndexDocFilterNear(std::move(rebuilt), s.doc_col, s.word1,
                                     s.word2, s.max_distance, s.term_class);
      }
      ++stats->doc_filters;
    }
    std::vector<PlanPtr> kids = chain[i]->children();
    kids[descend[i]] = std::move(rebuilt);
    rebuilt = chain[i]->WithChildren(std::move(kids));
  }
  return rebuilt;
}

}  // namespace

Status OptimizePlan(const om::Schema& schema, CompiledQuery* compiled,
                    const OptimizeOptions& options, OptimizeStats* stats) {
  // Fault site: an optimizer failure here must degrade (the caller
  // keeps the unoptimized plan), never fail the query.
  SGMLQDB_FAULT_POINT("optimizer.pushdown");
  OptimizeStats local;
  local.branches_before = compiled->branch_count;
  if (stats != nullptr) *stats = local;
  // Recognize the compiler's shape; anything else passes through.
  if (compiled->plan == nullptr ||
      compiled->plan->kind() != NodeKind::kDistinct ||
      compiled->plan->children().size() != 1) {
    return Status::OK();
  }
  const PlanPtr& union_all = compiled->plan->children()[0];
  if (union_all->kind() != NodeKind::kUnionAll) return Status::OK();
  const std::vector<PlanPtr>& branches = union_all->children();
  const bool have_types = compiled->branch_types.size() == branches.size();
  const std::map<std::string, Type> no_types;

  std::vector<PlanPtr> kept;
  std::vector<std::map<std::string, Type>> kept_types;
  kept.reserve(branches.size());
  for (size_t i = 0; i < branches.size(); ++i) {
    const std::map<std::string, Type>& types =
        have_types ? compiled->branch_types[i] : no_types;
    PlanPtr branch = branches[i];
    if (options.prune_branches &&
        (IsDeadPlaceholder(branch) ||
         HasInfeasibleTextFilter(branch, types, schema))) {
      ++local.branches_pruned;
      continue;
    }
    if (options.text_index_pushdown) {
      branch = RewriteIndexPushdown(branch, types, schema, &local);
    }
    if (options.filter_pushdown) {
      branch = SinkPredicates(branch, {}, &local);
    }
    if (options.text_index_pushdown) {
      branch = InsertDocFilters(schema, types, branch, &local);
    }
    kept.push_back(std::move(branch));
    if (have_types) kept_types.push_back(compiled->branch_types[i]);
  }
  compiled->plan = Distinct(UnionAll(std::move(kept)));
  compiled->branch_count = compiled->plan->children()[0]->children().size();
  if (have_types) compiled->branch_types = std::move(kept_types);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace sgmlqdb::algebra
