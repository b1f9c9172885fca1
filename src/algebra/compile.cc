#include "algebra/compile.h"

#include <set>

#include "algebra/static_types.h"
#include "path/schema_paths.h"

namespace sgmlqdb::algebra {

using calculus::AttrTerm;
using calculus::DataTerm;
using calculus::DataTermPtr;
using calculus::Formula;
using calculus::FormulaPtr;
using calculus::PathComponent;
using calculus::PathTerm;
using calculus::Query;
using calculus::Sort;
using calculus::Variable;
using om::Schema;
using om::Type;
using om::TypeKind;
using om::Value;
using path::SchemaPath;
using path::SchemaStep;

namespace {

/// A tracked path variable's schema path plus the columns holding its
/// [*] positions / {*} elements, waiting for its BuildPath.
struct PendingPath {
  std::string var;
  std::vector<SchemaStep> steps;
  std::vector<std::string> slots;
};

/// One alternative under construction: a plan plus the static types of
/// its columns.
struct Branch {
  PlanPtr plan;
  std::map<std::string, Type> types;
};

class Compiler {
 public:
  explicit Compiler(const Schema& schema) : schema_(schema) {}

  Result<CompiledQuery> Compile(const Query& query) {
    // Record head sorts.
    for (const Variable& v : query.head) sorts_[v.name] = v.sort;

    // Strip quantifiers, flatten conjunctions.
    std::vector<FormulaPtr> conjuncts;
    SGMLQDB_RETURN_IF_ERROR(Flatten(query.body, &conjuncts));

    // A path variable's concrete path is materialized (one BuildPath
    // per branch, a per-row cost) only when something actually
    // consumes it: the head, or any second conjunct mentioning it.
    {
      std::map<std::string, size_t> uses;
      for (const Variable& v : query.head) {
        if (v.sort == Sort::kPath) uses[v.name] += 2;  // always track
      }
      for (const FormulaPtr& c : conjuncts) {
        for (const Variable& v : c->FreeVariables()) {
          if (v.sort == Sort::kPath) uses[v.name] += 1;
        }
      }
      for (const auto& [name, count] : uses) {
        if (count > 1) tracked_path_vars_.insert(name);
      }
    }

    // Seed: one empty branch.
    std::vector<Branch> branches;
    branches.push_back(Branch{Unit(), {}});

    // Greedy ordering identical to the naive evaluator's.
    std::set<Variable> bound;
    std::vector<FormulaPtr> pending = conjuncts;
    while (!pending.empty()) {
      bool progressed = false;
      for (size_t i = 0; i < pending.size(); ++i) {
        const FormulaPtr& f = pending[i];
        if (!Ready(*f, bound)) continue;
        SGMLQDB_ASSIGN_OR_RETURN(
            branches, CompileConjunct(*f, bound, std::move(branches)));
        std::set<Variable> fv = f->FreeVariables();
        bound.insert(fv.begin(), fv.end());
        pending.erase(pending.begin() + static_cast<long>(i));
        progressed = true;
        break;
      }
      if (!progressed) {
        return Status::TypeError(
            "query is not range-restricted (algebra compiler stuck)");
      }
    }

    // Head projection per branch, then union + distinct.
    std::vector<std::string> head_cols;
    for (const Variable& v : query.head) head_cols.push_back(v.name);
    std::vector<PlanPtr> projected;
    projected.reserve(branches.size());
    CompiledQuery out;
    for (Branch& b : branches) {
      projected.push_back(Project(b.plan, head_cols));
      out.branch_types.push_back(std::move(b.types));
    }
    out.branch_count = branches.size();
    out.plan = Distinct(UnionAll(std::move(projected)));
    out.head = query.head;
    out.sorts = sorts_;
    return out;
  }

 private:
  Status Flatten(const FormulaPtr& f, std::vector<FormulaPtr>* out) {
    switch (f->kind()) {
      case Formula::Kind::kExists:
        for (const Variable& v : f->variables()) sorts_[v.name] = v.sort;
        return Flatten(f->children()[0], out);
      case Formula::Kind::kAnd:
        for (const FormulaPtr& c : f->children()) {
          SGMLQDB_RETURN_IF_ERROR(Flatten(c, out));
        }
        return Status::OK();
      default:
        // Also register variable sorts appearing free in atoms.
        for (const Variable& v : f->FreeVariables()) {
          sorts_.emplace(v.name, v.sort);
        }
        out->push_back(f);
        return Status::OK();
    }
  }

  /// Mirrors the naive evaluator's readiness test.
  bool Ready(const Formula& f, const std::set<Variable>& bound) {
    std::set<Variable> free = f.FreeVariables();
    bool all_bound = true;
    for (const Variable& v : free) {
      if (bound.count(v) == 0) all_bound = false;
    }
    if (all_bound) return true;
    switch (f.kind()) {
      case Formula::Kind::kPathPred: {
        std::set<Variable> base;
        calculus::CollectVariables(*f.terms()[0], &base);
        for (const Variable& v : base) {
          if (bound.count(v) == 0) return false;
        }
        return true;
      }
      case Formula::Kind::kIn: {
        std::set<Variable> coll;
        calculus::CollectVariables(*f.terms()[1], &coll);
        for (const Variable& v : coll) {
          if (bound.count(v) == 0) return false;
        }
        return f.terms()[0]->kind() == DataTerm::Kind::kVariable;
      }
      case Formula::Kind::kEq: {
        std::set<Variable> l, r;
        calculus::CollectVariables(*f.terms()[0], &l);
        calculus::CollectVariables(*f.terms()[1], &r);
        auto closed = [&bound](const std::set<Variable>& vs) {
          for (const Variable& v : vs) {
            if (bound.count(v) == 0) return false;
          }
          return true;
        };
        return (closed(l) &&
                f.terms()[1]->kind() == DataTerm::Kind::kVariable) ||
               (closed(r) &&
                f.terms()[0]->kind() == DataTerm::Kind::kVariable);
      }
      default:
        return false;
    }
  }

  Result<std::vector<Branch>> CompileConjunct(const Formula& f,
                                              const std::set<Variable>& bound,
                                              std::vector<Branch> branches) {
    // Fully bound atoms are filters regardless of their kind.
    bool all_bound = true;
    for (const Variable& v : f.FreeVariables()) {
      if (bound.count(v) == 0) all_bound = false;
    }
    if (all_bound && f.kind() != Formula::Kind::kPathPred) {
      auto self = std::make_shared<Formula>(f);
      for (Branch& b : branches) {
        b.plan = Filter(b.plan, self, sorts_);
      }
      return branches;
    }
    switch (f.kind()) {
      case Formula::Kind::kPathPred:
        return CompilePathPred(f, std::move(branches));
      case Formula::Kind::kIn:
        return CompileMembership(f, std::move(branches));
      case Formula::Kind::kEq:
        return CompileEquality(f, bound, std::move(branches));
      default: {
        // Pure filter: all variables already bound.
        auto self = std::make_shared<Formula>(f);
        for (Branch& b : branches) {
          b.plan = Filter(b.plan, self, sorts_);
        }
        return branches;
      }
    }
  }

  Result<std::vector<Branch>> CompileMembership(const Formula& f,
                                                std::vector<Branch> branches) {
    const std::string& var = f.terms()[0]->var_name();
    // Collection must be a root or bound variable term; evaluate per
    // row via Compute into a temp, then unnest.
    std::string coll_col = NewTmp();
    std::vector<Branch> out;
    for (Branch& b : branches) {
      PlanPtr p = Compute(b.plan, coll_col, f.terms()[1], sorts_);
      // Static typing: best effort from root names.
      Type coll_type = StaticTypeOfTerm(*f.terms()[1], b);
      Type elem = Type::Any();
      bool is_set = coll_type.kind() == TypeKind::kSet;
      if (coll_type.kind() == TypeKind::kList ||
          coll_type.kind() == TypeKind::kSet) {
        elem = coll_type.element_type();
      }
      p = is_set ? UnnestSet(p, coll_col, var)
                 : UnnestList(p, coll_col, var);
      Branch nb;
      nb.plan = std::move(p);
      nb.types = b.types;
      nb.types[var] = elem;
      out.push_back(std::move(nb));
    }
    sorts_[var] = Sort::kData;
    return out;
  }

  Result<std::vector<Branch>> CompileEquality(const Formula& f,
                                              const std::set<Variable>& bound,
                                              std::vector<Branch> branches) {
    // The generator side is the one whose variables are all bound; the
    // other side must be an (unbound) variable to bind.
    const DataTermPtr& a = f.terms()[0];
    const DataTermPtr& b = f.terms()[1];
    auto closed_under_bound = [&bound](const DataTerm& t) {
      std::set<Variable> vs;
      calculus::CollectVariables(t, &vs);
      for (const Variable& v : vs) {
        if (bound.count(v) == 0) return false;
      }
      return true;
    };
    DataTermPtr closed_term;
    std::string var;
    if (closed_under_bound(*a) && b->kind() == DataTerm::Kind::kVariable) {
      closed_term = a;
      var = b->var_name();
    } else if (closed_under_bound(*b) &&
               a->kind() == DataTerm::Kind::kVariable) {
      closed_term = b;
      var = a->var_name();
    } else {
      return Status::Unsupported("equality with no bindable variable side");
    }
    std::string tmp = NewTmp();
    for (Branch& br : branches) {
      br.plan = Compute(br.plan, tmp, closed_term, sorts_);
      br.plan = BindOrCheck(br.plan, tmp, var);
      br.types[var] = Type::Any();
    }
    sorts_.emplace(var, Sort::kData);
    return branches;
  }

  /// Compiles <base P...> over every branch.
  Result<std::vector<Branch>> CompilePathPred(const Formula& f,
                                              std::vector<Branch> branches) {
    const DataTerm& base = *f.terms()[0];
    std::vector<Branch> started;
    std::string start_col;
    Type start_type = Type::Any();
    if (base.kind() == DataTerm::Kind::kName) {
      const om::NameDef* def = schema_.FindName(base.root_name());
      if (def == nullptr) {
        return Status::NotFound("unknown persistence root '" +
                                base.root_name() + "'");
      }
      start_col = NewTmp();
      start_type = def->type;
      for (Branch& b : branches) {
        Branch nb;
        nb.plan = RootScan(base.root_name(), start_col);
        if (b.plan != nullptr) {
          nb.plan = CrossProduct(b.plan, nb.plan);
        }
        nb.types = b.types;
        nb.types[start_col] = start_type;
        started.push_back(std::move(nb));
      }
    } else if (base.kind() == DataTerm::Kind::kVariable) {
      start_col = base.var_name();
      for (Branch& b : branches) {
        auto it = b.types.find(start_col);
        Branch nb = std::move(b);
        // Type recorded when the variable was bound (Any if unknown).
        (void)it;
        started.push_back(std::move(nb));
      }
    } else {
      return Status::Unsupported(
          "path predicate base must be a root or a variable");
    }

    // Walk components across all branches, tracking per-branch
    // cursor column and static type.
    std::vector<Branch> current = std::move(started);
    struct Cur {
      Branch branch;
      std::string col;
      Type type;
      // True once `col` is a compiler-owned scratch column that later
      // steps may overwrite in place (column pruning: avoids one map
      // entry per navigation step).
      bool col_is_scratch = false;
      // Tracked path variables expanded on this cursor whose values
      // are built only once the predicate's last step has run.
      std::vector<PendingPath> pending_paths;
    };
    std::vector<Cur> curs;
    for (Branch& b : current) {
      Cur c;
      c.col = start_col;
      auto it = b.types.find(start_col);
      c.type = it != b.types.end() ? it->second : Type::Any();
      c.branch = std::move(b);
      curs.push_back(std::move(c));
    }
    for (const PathComponent& comp : f.path().components()) {
      std::vector<Cur> next;
      for (Cur& c : curs) {
        SGMLQDB_RETURN_IF_ERROR(ApplyComponent(comp, std::move(c), &next));
      }
      curs = std::move(next);
      if (curs.empty()) break;  // statically empty result
    }
    std::vector<Branch> out;
    for (Cur& c : curs) {
      BuildPendingPaths(&c);
      out.push_back(std::move(c.branch));
    }
    if (out.empty()) {
      // All branches died statically: an empty UnionAll branch set
      // would lose column info; keep an empty plan.
      Branch dead;
      dead.plan = UnionAll({});
      out.push_back(std::move(dead));
    }
    return out;
  }

  /// Applies one component to one cursor, appending result cursors.
  template <typename CurT>
  Status ApplyComponent(const PathComponent& comp, CurT cur,
                        std::vector<CurT>* out) {
    switch (comp.kind) {
      case PathComponent::Kind::kDeref:
        return ApplyDeref(std::move(cur), out);
      case PathComponent::Kind::kAttrSel: {
        if (!comp.attr.is_variable) {
          return ApplyAttr(std::move(cur), comp.attr.name, out);
        }
        sorts_.emplace(comp.attr.name, Sort::kAttr);
        // Expand: one branch per available attribute.
        if (cur.type.kind() != TypeKind::kTuple &&
            cur.type.kind() != TypeKind::kUnion) {
          return Status::OK();  // dead branch
        }
        for (size_t i = 0; i < cur.type.size(); ++i) {
          CurT c2 = cur;
          std::string attr = c2.type.FieldName(i);
          std::string tmp = NextCursorCol(c2);
          c2.branch.plan = AttrStep(c2.branch.plan, c2.col, attr, tmp);
          // Bind the attribute variable column (string) with check.
          c2.branch.plan = BindOrCheckConst(c2.branch.plan, comp.attr.name,
                                            Value::String(attr));
          c2.col = tmp;
          c2.type = cur.type.FieldType(i);
          c2.branch.types[tmp] = c2.type;
          out->push_back(std::move(c2));
        }
        return Status::OK();
      }
      case PathComponent::Kind::kIndexConst: {
        CurT c2 = std::move(cur);
        Type elem = ElementTypeForIndexing(c2.type);
        std::string tmp = NextCursorCol(c2);
        c2.branch.plan = IndexStep(c2.branch.plan, c2.col, comp.index, tmp);
        c2.col = tmp;
        c2.type = elem;
        c2.branch.types[tmp] = elem;
        out->push_back(std::move(c2));
        return Status::OK();
      }
      case PathComponent::Kind::kIndexVar: {
        sorts_.emplace(comp.var, Sort::kData);
        CurT c2 = std::move(cur);
        Type elem = ElementTypeForIndexing(c2.type);
        std::string tmp = NextCursorCol(c2);
        std::string pos = NewTmp();
        c2.branch.plan = UnnestList(c2.branch.plan, c2.col, tmp, pos);
        c2.branch.plan = BindOrCheck(c2.branch.plan, pos, comp.var);
        c2.col = tmp;
        c2.type = elem;
        c2.branch.types[tmp] = elem;
        out->push_back(std::move(c2));
        return Status::OK();
      }
      case PathComponent::Kind::kCapture: {
        sorts_.emplace(comp.var, Sort::kData);
        CurT c2 = std::move(cur);
        c2.branch.plan = BindOrCheck(c2.branch.plan, c2.col, comp.var);
        c2.branch.types[comp.var] = c2.type;
        out->push_back(std::move(c2));
        return Status::OK();
      }
      case PathComponent::Kind::kSetCapture: {
        sorts_.emplace(comp.var, Sort::kData);
        if (cur.type.kind() != TypeKind::kSet &&
            cur.type.kind() != TypeKind::kAny) {
          return Status::OK();  // dead
        }
        CurT c2 = std::move(cur);
        std::string tmp = NextCursorCol(c2);
        c2.branch.plan = UnnestSet(c2.branch.plan, c2.col, tmp);
        c2.branch.plan = BindOrCheck(c2.branch.plan, tmp, comp.var);
        c2.col = tmp;
        c2.type = c2.type.kind() == TypeKind::kSet ? c2.type.element_type()
                                                   : Type::Any();
        c2.branch.types[c2.col] = c2.type;
        out->push_back(std::move(c2));
        return Status::OK();
      }
      case PathComponent::Kind::kVar: {
        sorts_.emplace(comp.var, Sort::kPath);
        // Schema-guided expansion: one branch per schema path from the
        // cursor's static type (§5.4). A bound path variable instead
        // navigates along the stored path.
        if (bound_path_vars_.count(comp.var) > 0) {
          CurT c2 = std::move(cur);
          BuildPendingPaths(&c2);  // the stored path is read below
          std::string tmp = NextCursorCol(c2);
          c2.branch.plan =
              Compute(c2.branch.plan, tmp,
                      DataTerm::PathApply(DataTerm::Var(c2.col),
                                          PathTerm::Var(comp.var)),
                      sorts_);
          // NOTE: PathApply over a data variable requires c2.col to be
          // a data column; internal columns are data-sorted by
          // default.
          c2.col = tmp;
          c2.type = Type::Any();
          c2.branch.types[tmp] = c2.type;
          out->push_back(std::move(c2));
          return Status::OK();
        }
        bound_path_vars_.insert(comp.var);
        ExpandPathVar(comp.var, std::move(cur), out);
        return Status::OK();
      }
    }
    return Status::Internal("unhandled path component in compiler");
  }

  /// Replaces a fresh path variable by every schema path from the
  /// cursor's static type (§5.4), one output cursor per schema path in
  /// enumeration order. The schema paths form a trie: a step prefix
  /// common to several paths is planned once, and the branches below
  /// it share that plan node, so execution walks it once (Memo). A
  /// tracked variable's value is not accumulated step by step: each
  /// list unnest keeps its position and each set unnest its element
  /// in a column of their own, and one BuildPath per branch assembles
  /// the path from them after the predicate's remaining steps — so
  /// only rows that survive the whole predicate pay for it.
  template <typename CurT>
  void ExpandPathVar(const std::string& var, CurT cur,
                     std::vector<CurT>* out) {
    const bool tracked = tracked_path_vars_.count(var) > 0;
    struct TrieNode {
      CurT cur;
      // Columns holding the position / element of each [*] / {*}
      // step so far, in step order (tracked variables only).
      std::vector<std::string> slots;
      std::map<std::pair<SchemaStep::Kind, std::string>, size_t> kids;
    };
    std::vector<TrieNode> trie;
    trie.push_back(TrieNode{std::move(cur), {}, {}});
    for (const SchemaPath& sp : path::EnumerateSchemaPaths(
             schema_, trie[0].cur.type, path::SchemaPathOptions{})) {
      size_t node = 0;
      for (const SchemaStep& step : sp.steps) {
        auto key = std::make_pair(step.kind(), step.name());
        auto it = trie[node].kids.find(key);
        if (it != trie[node].kids.end()) {
          node = it->second;
          continue;
        }
        TrieNode child{trie[node].cur, trie[node].slots, {}};
        ApplySchemaStep(step, tracked, &child.cur, &child.slots);
        trie[node].kids.emplace(key, trie.size());
        node = trie.size();
        trie.push_back(std::move(child));
      }
      CurT c2 = trie[node].cur;
      if (tracked) {
        c2.pending_paths.push_back(
            PendingPath{var, sp.steps, trie[node].slots});
      }
      c2.type = sp.result_type;
      c2.branch.types[c2.col] = c2.type;
      out->push_back(std::move(c2));
    }
  }

  template <typename CurT>
  void BuildPendingPaths(CurT* c) {
    for (PendingPath& p : c->pending_paths) {
      c->branch.plan = BuildPath(c->branch.plan, std::move(p.var),
                                 std::move(p.steps), std::move(p.slots));
    }
    c->pending_paths.clear();
  }

  /// Plans one schema step on `c`. With `tracked`, a [*] step also
  /// binds its position and a {*} step leaves its element in a column
  /// no later step overwrites; either column is appended to `slots`.
  template <typename CurT>
  void ApplySchemaStep(const SchemaStep& step, bool tracked, CurT* c,
                       std::vector<std::string>* slots) {
    switch (step.kind()) {
      case SchemaStep::Kind::kAttr: {
        std::string tmp = NextCursorCol(*c);
        c->branch.plan = AttrStep(c->branch.plan, c->col, step.name(), tmp);
        c->col = tmp;
        return;
      }
      case SchemaStep::Kind::kIndexAny: {
        std::string tmp = NextCursorCol(*c);
        std::string pos = tracked ? NewTmp() : std::string();
        c->branch.plan = UnnestList(c->branch.plan, c->col, tmp, pos);
        c->col = tmp;
        if (tracked) slots->push_back(pos);
        return;
      }
      case SchemaStep::Kind::kSetAny: {
        std::string tmp = tracked ? NewTmp() : NextCursorCol(*c);
        c->branch.plan = UnnestSet(c->branch.plan, c->col, tmp);
        c->col = tmp;
        if (tracked) {
          // The element is the path's {v} step: the next navigation
          // step must write a fresh scratch column instead.
          c->col_is_scratch = false;
          slots->push_back(tmp);
        }
        return;
      }
      case SchemaStep::Kind::kDeref: {
        std::string tmp = NextCursorCol(*c);
        c->branch.plan = ClassFilter(c->branch.plan, c->col, step.name());
        c->branch.plan = DerefStep(c->branch.plan, c->col, tmp);
        c->col = tmp;
        return;
      }
    }
  }

  template <typename CurT>
  Status ApplyDeref(CurT cur, std::vector<CurT>* out) {
    std::vector<std::string> classes;
    if (cur.type.kind() == TypeKind::kClass) {
      classes = schema_.SubclassesOf(cur.type.class_name());
    } else if (cur.type.kind() == TypeKind::kAny) {
      for (const om::ClassDef& c : schema_.classes()) {
        classes.push_back(c.name);
      }
    } else {
      return Status::OK();  // dead branch
    }
    // Deduplicate identical effective types.
    std::vector<Type> seen;
    for (const std::string& cls : classes) {
      Result<Type> effective = schema_.EffectiveType(cls);
      if (!effective.ok()) continue;
      bool dup = false;
      for (const Type& t : seen) {
        if (Type::Equals(t, effective.value())) dup = true;
      }
      if (dup) continue;
      seen.push_back(effective.value());
      CurT c2 = cur;
      std::string tmp = NextCursorCol(c2);
      c2.branch.plan = ClassFilter(c2.branch.plan, c2.col, cls);
      c2.branch.plan = DerefStep(c2.branch.plan, c2.col, tmp);
      c2.col = tmp;
      c2.type = effective.value();
      c2.branch.types[tmp] = c2.type;
      out->push_back(std::move(c2));
    }
    return Status::OK();
  }

  template <typename CurT>
  Status ApplyAttr(CurT cur, const std::string& attr,
                   std::vector<CurT>* out) {
    if (cur.type.kind() == TypeKind::kTuple ||
        cur.type.kind() == TypeKind::kUnion) {
      std::optional<Type> ft = cur.type.FindField(attr);
      if (!ft.has_value()) return Status::OK();  // dead
      CurT c2 = std::move(cur);
      std::string tmp = NextCursorCol(c2);
      c2.branch.plan = AttrStep(c2.branch.plan, c2.col, attr, tmp);
      c2.col = tmp;
      c2.type = *ft;
      c2.branch.types[tmp] = c2.type;
      out->push_back(std::move(c2));
      return Status::OK();
    }
    if (cur.type.kind() == TypeKind::kAny) {
      // Unknown static type: attempt the step dynamically.
      CurT c2 = std::move(cur);
      std::string tmp = NextCursorCol(c2);
      c2.branch.plan = AttrStep(c2.branch.plan, c2.col, attr, tmp);
      c2.col = tmp;
      c2.type = Type::Any();
      c2.branch.types[tmp] = c2.type;
      out->push_back(std::move(c2));
      return Status::OK();
    }
    return Status::OK();  // dead branch
  }

  /// Element type when indexing: lists index normally; tuples index
  /// their heterogeneous-list view (element type = the marked union of
  /// the fields, §5.1).
  static Type ElementTypeForIndexing(const Type& t) {
    if (t.kind() == TypeKind::kList) return t.element_type();
    if (t.kind() == TypeKind::kTuple) {
      std::vector<std::pair<std::string, Type>> alts;
      for (size_t i = 0; i < t.size(); ++i) {
        alts.emplace_back(t.FieldName(i), t.FieldType(i));
      }
      return Type::Union(std::move(alts));
    }
    return Type::Any();
  }

  /// BindOrCheck against a constant: materialize the constant in a
  /// temp column first.
  PlanPtr BindOrCheckConst(PlanPtr plan, const std::string& var,
                           Value constant) {
    std::string tmp = NewTmp();
    plan = ConstCol(std::move(plan), tmp, std::move(constant));
    return BindOrCheck(std::move(plan), tmp, var);
  }

  Type StaticTypeOfTerm(const DataTerm& term, const Branch& b) {
    StaticTerm st = AnalyzeTerm(term, b.types, schema_);
    if (!st.never && st.type.has_value()) return *st.type;
    return Type::Any();
  }

  std::string NewTmp() { return "__c" + std::to_string(next_tmp_++); }

  /// Output column for the next navigation step: reuses the cursor's
  /// scratch column when possible (user-variable columns are never
  /// overwritten).
  template <typename CurT>
  std::string NextCursorCol(CurT& c) {
    if (c.col_is_scratch) return c.col;
    c.col_is_scratch = true;
    return NewTmp();
  }

  const Schema& schema_;
  std::map<std::string, Sort> sorts_;
  std::set<std::string> bound_path_vars_;
  std::set<std::string> tracked_path_vars_;
  size_t next_tmp_ = 0;
};

}  // namespace

Result<CompiledQuery> CompileQuery(const Schema& schema, const Query& query) {
  return Compiler(schema).Compile(query);
}

Result<om::Value> ExecuteCompiled(const calculus::EvalContext& ctx,
                                  const CompiledQuery& compiled,
                                  BranchExecutor* branch_executor) {
  ExecContext ec;
  ec.calculus = &ctx;
  ec.branch_executor = branch_executor;
  std::vector<Row> rows;
  SGMLQDB_RETURN_IF_ERROR(compiled.plan->Execute(ec, &rows));
  std::vector<Value> elems;
  for (const Row& row : rows) {
    if (compiled.head.size() == 1) {
      auto it = row.find(compiled.head[0].name);
      if (it == row.end()) continue;  // branch missing a head column
      elems.push_back(it->second);
      continue;
    }
    std::vector<std::pair<std::string, Value>> fields;
    bool complete = true;
    for (const Variable& v : compiled.head) {
      auto it = row.find(v.name);
      if (it == row.end()) {
        complete = false;
        break;
      }
      fields.emplace_back(v.name, it->second);
    }
    if (complete) elems.push_back(Value::Tuple(std::move(fields)));
  }
  return Value::Set(std::move(elems));
}

Result<om::Value> EvaluateAlgebraic(const calculus::EvalContext& ctx,
                                    const Schema& schema,
                                    const Query& query) {
  SGMLQDB_ASSIGN_OR_RETURN(CompiledQuery compiled,
                           CompileQuery(schema, query));
  return ExecuteCompiled(ctx, compiled);
}

}  // namespace sgmlqdb::algebra
