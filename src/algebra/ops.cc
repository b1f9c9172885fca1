#include "algebra/ops.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <unordered_set>

#include "algebra/exchange.h"
#include "base/exec_guard.h"
#include "text/index.h"
#include "text/query_cache.h"

namespace sgmlqdb::algebra {

using calculus::DataTerm;
using calculus::Sort;
using om::Value;
using om::ValueKind;
using path::Path;
using path::PathStep;

Result<std::shared_ptr<const std::vector<Row>>> Memo::GetOrCompute(
    const Node& node, const ExecContext& ctx) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Entry>& slot = entries_[&node];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    entry = slot;
  }
  // The entry lock is held across the compute so a concurrent reader
  // of the same prefix blocks instead of recomputing. Plans are DAGs,
  // so nested GetOrCompute calls only ever take locks of descendant
  // entries — no cycles, no deadlock.
  std::lock_guard<std::mutex> lock(entry->mu);
  if (!entry->done) {
    auto rows = std::make_shared<std::vector<Row>>();
    entry->status = node.Execute(ctx, rows.get());
    entry->rows = std::move(rows);
    entry->done = true;
  }
  if (!entry->status.ok()) return entry->status;
  return entry->rows;
}

size_t Memo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Status Node::ExecuteShared(const ExecContext& ctx,
                           std::vector<Row>* out) const {
  SGMLQDB_ASSIGN_OR_RETURN(auto rows, ExecuteSharedRows(ctx));
  out->reserve(out->size() + rows->size());
  out->insert(out->end(), rows->begin(), rows->end());
  return Status::OK();
}

Result<std::shared_ptr<const std::vector<Row>>> Node::ExecuteSharedRows(
    const ExecContext& ctx) const {
  return ctx.memo->GetOrCompute(*this, ctx);
}

namespace {

/// Runs `child`, memoizing when it is a shared union-branch prefix.
Status ExecuteChild(const PlanPtr& child, const ExecContext& ctx,
                    std::vector<Row>* out) {
  if (child.use_count() > 1) return child->ExecuteShared(ctx, out);
  return child->Execute(ctx, out);
}

/// Cooperative limit probe at operator iteration boundaries. The same
/// guard is shared by every branch of a parallel union (via the shared
/// EvalContext), so one tripped branch stops its siblings.
Status GuardProbe(const ExecContext& ctx) {
  ExecGuard* guard = ctx.calculus->guard;
  if (guard == nullptr) return Status::OK();
  return guard->Probe();
}

/// Charges `n` materialized rows against the statement's row budget.
Status GuardCountRows(const ExecContext& ctx, size_t n) {
  ExecGuard* guard = ctx.calculus->guard;
  if (guard == nullptr) return Status::OK();
  return guard->CountRows(n);
}

class RootScanNode : public Node {
 public:
  RootScanNode(std::string root, std::string col)
      : root_(std::move(root)), col_(std::move(col)) {}

  Status Execute(const ExecContext& ctx, std::vector<Row>* out) const override {
    SGMLQDB_ASSIGN_OR_RETURN(Value v, ctx.db()->LookupName(root_));
    Row row;
    row[col_] = std::move(v);
    out->push_back(std::move(row));
    return Status::OK();
  }

  std::string Describe() const override {
    return "RootScan " + root_ + " -> " + col_;
  }

  NodeKind kind() const override { return NodeKind::kRootScan; }

  PlanPtr WithChildren(std::vector<PlanPtr>) const override {
    return std::make_shared<RootScanNode>(root_, col_);
  }

  std::vector<std::string> IntroducedColumns() const override {
    return {col_};
  }

  const std::string* root_name() const override { return &root_; }

 private:
  std::string root_;
  std::string col_;
};

class UnitNode : public Node {
 public:
  Status Execute(const ExecContext&, std::vector<Row>* out) const override {
    out->push_back(Row{});
    return Status::OK();
  }
  std::string Describe() const override { return "Unit"; }
  NodeKind kind() const override { return NodeKind::kUnit; }
  PlanPtr WithChildren(std::vector<PlanPtr>) const override {
    return std::make_shared<UnitNode>();
  }
};

/// Shared base for per-row transforms.
class UnaryNode : public Node {
 public:
  explicit UnaryNode(PlanPtr input) { children_ = {std::move(input)}; }

  Status Execute(const ExecContext& ctx, std::vector<Row>* out) const override {
    const size_t before = out->size();
    if (children_[0].use_count() > 1) {
      // Shared prefix: iterate the memoized rows in place — no
      // per-parent copy of the cached vector.
      SGMLQDB_ASSIGN_OR_RETURN(auto rows,
                               children_[0]->ExecuteSharedRows(ctx));
      out->reserve(out->size() + rows->size());
      for (const Row& row : *rows) {
        SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
        SGMLQDB_RETURN_IF_ERROR(Transform(ctx, row, out));
      }
      return GuardCountRows(ctx, out->size() - before);
    }
    std::vector<Row> in;
    SGMLQDB_RETURN_IF_ERROR(children_[0]->Execute(ctx, &in));
    out->reserve(out->size() + in.size());
    for (Row& row : in) {
      SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
      SGMLQDB_RETURN_IF_ERROR(Transform(ctx, std::move(row), out));
    }
    return GuardCountRows(ctx, out->size() - before);
  }

  virtual Status Transform(const ExecContext& ctx, Row row,
                           std::vector<Row>* out) const = 0;
};

class AttrStepNode : public UnaryNode {
 public:
  AttrStepNode(PlanPtr input, std::string col, std::string attr,
               std::string out)
      : UnaryNode(std::move(input)),
        col_(std::move(col)),
        attr_(std::move(attr)),
        out_(std::move(out)) {}

  Status Transform(const ExecContext&, Row row,
                   std::vector<Row>* out) const override {
    auto it = row.find(col_);
    if (it == row.end() || it->second.kind() != ValueKind::kTuple) {
      return Status::OK();  // implicit selector: drop
    }
    std::optional<Value> f = it->second.FindField(attr_);
    if (!f.has_value()) return Status::OK();  // drop (variant select)
    row[out_] = *f;
    out->push_back(std::move(row));
    return Status::OK();
  }

  std::string Describe() const override {
    return "AttrStep " + col_ + " ." + attr_ + " -> " + out_;
  }

  NodeKind kind() const override { return NodeKind::kAttrStep; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<AttrStepNode>(std::move(children[0]), col_,
                                          attr_, out_);
  }

  std::vector<std::string> IntroducedColumns() const override {
    return {out_};
  }

  bool NavColumns(std::string* in, std::string* out) const override {
    *in = col_;
    *out = out_;
    return true;
  }

 private:
  std::string col_, attr_, out_;
};

class DerefStepNode : public UnaryNode {
 public:
  DerefStepNode(PlanPtr input, std::string col, std::string out)
      : UnaryNode(std::move(input)),
        col_(std::move(col)),
        out_(std::move(out)) {}

  Status Transform(const ExecContext& ctx, Row row,
                   std::vector<Row>* out) const override {
    auto it = row.find(col_);
    if (it == row.end() || it->second.kind() != ValueKind::kObject) {
      return Status::OK();
    }
    Result<Value> v = ctx.db()->Deref(it->second.AsObject());
    if (!v.ok()) return Status::OK();  // dangling: drop
    row[out_] = std::move(v).value();
    out->push_back(std::move(row));
    return Status::OK();
  }

  std::string Describe() const override {
    return "DerefStep " + col_ + " -> " + out_;
  }

  NodeKind kind() const override { return NodeKind::kDerefStep; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<DerefStepNode>(std::move(children[0]), col_,
                                           out_);
  }

  std::vector<std::string> IntroducedColumns() const override {
    return {out_};
  }

  bool NavColumns(std::string* in, std::string* out) const override {
    *in = col_;
    *out = out_;
    return true;
  }

 private:
  std::string col_, out_;
};

class ClassFilterNode : public UnaryNode {
 public:
  ClassFilterNode(PlanPtr input, std::string col, std::string class_name)
      : UnaryNode(std::move(input)),
        col_(std::move(col)),
        class_(std::move(class_name)) {}

  Status Transform(const ExecContext& ctx, Row row,
                   std::vector<Row>* out) const override {
    auto it = row.find(col_);
    if (it == row.end() || it->second.kind() != ValueKind::kObject) {
      return Status::OK();
    }
    const std::string* cls = ctx.db()->ClassOf(it->second.AsObject());
    if (cls == nullptr || !ctx.db()->schema().IsSubclassOf(*cls, class_)) {
      return Status::OK();
    }
    out->push_back(std::move(row));
    return Status::OK();
  }

  std::string Describe() const override {
    return "ClassFilter " + col_ + " : " + class_;
  }

  NodeKind kind() const override { return NodeKind::kClassFilter; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<ClassFilterNode>(std::move(children[0]), col_,
                                             class_);
  }

 private:
  std::string col_, class_;
};

class UnnestListNode : public UnaryNode {
 public:
  UnnestListNode(PlanPtr input, std::string col, std::string out,
                 std::string pos_col)
      : UnaryNode(std::move(input)),
        col_(std::move(col)),
        out_(std::move(out)),
        pos_col_(std::move(pos_col)) {}

  Status Transform(const ExecContext&, Row row,
                   std::vector<Row>* out) const override {
    auto it = row.find(col_);
    if (it == row.end()) return Status::OK();
    // Ordered tuples are also heterogeneous lists (§4.4).
    Value list = it->second.kind() == ValueKind::kTuple
                     ? it->second.AsHeterogeneousList()
                     : it->second;
    if (list.kind() != ValueKind::kList) return Status::OK();
    out->reserve(out->size() + list.size());
    for (size_t i = 0; i < list.size(); ++i) {
      Row r = row;
      r[out_] = list.Element(i);
      if (!pos_col_.empty()) {
        r[pos_col_] = Value::Integer(static_cast<int64_t>(i));
      }
      out->push_back(std::move(r));
    }
    return Status::OK();
  }

  std::string Describe() const override {
    return "UnnestList " + col_ + " -> " + out_;
  }

  NodeKind kind() const override { return NodeKind::kUnnestList; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<UnnestListNode>(std::move(children[0]), col_,
                                            out_, pos_col_);
  }

  std::vector<std::string> IntroducedColumns() const override {
    std::vector<std::string> out = {out_};
    if (!pos_col_.empty()) out.push_back(pos_col_);
    return out;
  }

  bool NavColumns(std::string* in, std::string* out) const override {
    *in = col_;
    *out = out_;
    return true;
  }

 private:
  std::string col_, out_, pos_col_;
};

class IndexStepNode : public UnaryNode {
 public:
  IndexStepNode(PlanPtr input, std::string col, int64_t index,
                std::string out)
      : UnaryNode(std::move(input)),
        col_(std::move(col)),
        index_(index),
        out_(std::move(out)) {}

  Status Transform(const ExecContext&, Row row,
                   std::vector<Row>* out) const override {
    auto it = row.find(col_);
    if (it == row.end()) return Status::OK();
    Value list = it->second.kind() == ValueKind::kTuple
                     ? it->second.AsHeterogeneousList()
                     : it->second;
    if (list.kind() != ValueKind::kList || index_ < 0 ||
        static_cast<size_t>(index_) >= list.size()) {
      return Status::OK();
    }
    row[out_] = list.Element(static_cast<size_t>(index_));
    out->push_back(std::move(row));
    return Status::OK();
  }

  std::string Describe() const override {
    return "IndexStep " + col_ + "[" + std::to_string(index_) + "] -> " +
           out_;
  }

  NodeKind kind() const override { return NodeKind::kIndexStep; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<IndexStepNode>(std::move(children[0]), col_,
                                           index_, out_);
  }

  std::vector<std::string> IntroducedColumns() const override {
    return {out_};
  }

  bool NavColumns(std::string* in, std::string* out) const override {
    *in = col_;
    *out = out_;
    return true;
  }

 private:
  std::string col_;
  int64_t index_;
  std::string out_;
};

class UnnestSetNode : public UnaryNode {
 public:
  UnnestSetNode(PlanPtr input, std::string col, std::string out)
      : UnaryNode(std::move(input)),
        col_(std::move(col)),
        out_(std::move(out)) {}

  Status Transform(const ExecContext&, Row row,
                   std::vector<Row>* out) const override {
    auto it = row.find(col_);
    if (it == row.end() || it->second.kind() != ValueKind::kSet) {
      return Status::OK();
    }
    Value set = it->second;
    out->reserve(out->size() + set.size());
    for (size_t i = 0; i < set.size(); ++i) {
      Row r = row;
      r[out_] = set.Element(i);
      out->push_back(std::move(r));
    }
    return Status::OK();
  }

  std::string Describe() const override {
    return "UnnestSet " + col_ + " -> " + out_;
  }

  NodeKind kind() const override { return NodeKind::kUnnestSet; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<UnnestSetNode>(std::move(children[0]), col_,
                                           out_);
  }

  std::vector<std::string> IntroducedColumns() const override {
    return {out_};
  }

  bool NavColumns(std::string* in, std::string* out) const override {
    *in = col_;
    *out = out_;
    return true;
  }

 private:
  std::string col_, out_;
};

/// The one place a tracked path variable's value is built: after the
/// last step of its schema path, from the static template plus the
/// slot columns the unnests filled. Steps that drop a row upstream
/// never pay for its path.
class BuildPathNode : public UnaryNode {
 public:
  BuildPathNode(PlanPtr input, std::string out,
                std::vector<path::SchemaStep> steps,
                std::vector<std::string> slot_cols)
      : UnaryNode(std::move(input)),
        out_(std::move(out)),
        steps_(std::move(steps)),
        slot_cols_(std::move(slot_cols)) {
    // Static steps are encoded once; slots are filled per row. The
    // description names each slot's column: ".sections[__c4]->Section".
    for (const path::SchemaStep& step : steps_) {
      using Kind = path::SchemaStep::Kind;
      if (step.kind() == Kind::kIndexAny || step.kind() == Kind::kSetAny) {
        const bool set = step.kind() == Kind::kSetAny;
        const std::string& col = slot_cols_[slot_at_.size()];
        slot_at_.push_back(template_.size());
        template_.push_back(Value::Nil());
        description_ += set ? "{" + col + "}" : "[" + col + "]";
      } else if (step.kind() == Kind::kDeref) {
        template_.push_back(PathStep::Deref().ToValue());
        description_ += "->" + step.name();
      } else {
        template_.push_back(PathStep::Attr(step.name()).ToValue());
        description_ += step.ToString();
      }
    }
    if (description_.empty()) description_ = "<empty>";
  }

  Status Transform(const ExecContext&, Row row,
                   std::vector<Row>* out) const override {
    std::vector<Value> elems = template_;
    for (size_t i = 0; i < slot_at_.size(); ++i) {
      auto it = row.find(slot_cols_[i]);
      if (it == row.end()) return Status::OK();
      const size_t at = slot_at_[i];
      elems[at] = steps_[at].kind() == path::SchemaStep::Kind::kSetAny
                      ? PathStep::SetElem(it->second).ToValue()
                      : PathStep::Index(it->second.AsInteger()).ToValue();
    }
    row[out_] = Value::List(std::move(elems));
    out->push_back(std::move(row));
    return Status::OK();
  }

  std::string Describe() const override {
    return "BuildPath " + description_ + " -> " + out_;
  }

  NodeKind kind() const override { return NodeKind::kBuildPath; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<BuildPathNode>(std::move(children[0]), out_,
                                           steps_, slot_cols_);
  }

  std::vector<std::string> IntroducedColumns() const override {
    return {out_};
  }

 private:
  std::string out_;
  std::vector<path::SchemaStep> steps_;
  std::vector<std::string> slot_cols_;
  std::vector<Value> template_;  // one encoded step per schema step
  std::vector<size_t> slot_at_;  // template_ index of each slot column
  std::string description_;
};

class ConstColNode : public UnaryNode {
 public:
  ConstColNode(PlanPtr input, std::string out, Value value)
      : UnaryNode(std::move(input)),
        out_(std::move(out)),
        value_(std::move(value)) {}

  Status Transform(const ExecContext&, Row row,
                   std::vector<Row>* out) const override {
    row[out_] = value_;
    out->push_back(std::move(row));
    return Status::OK();
  }

  std::string Describe() const override {
    return "ConstCol " + out_ + " = " + value_.ToString();
  }

  NodeKind kind() const override { return NodeKind::kConstCol; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<ConstColNode>(std::move(children[0]), out_,
                                          value_);
  }

  std::vector<std::string> IntroducedColumns() const override {
    return {out_};
  }

 private:
  std::string out_;
  Value value_;
};

class BindOrCheckNode : public UnaryNode {
 public:
  BindOrCheckNode(PlanPtr input, std::string src, std::string dst)
      : UnaryNode(std::move(input)), src_(std::move(src)),
        dst_(std::move(dst)) {}

  Status Transform(const ExecContext&, Row row,
                   std::vector<Row>* out) const override {
    auto it = row.find(src_);
    if (it == row.end()) return Status::OK();
    auto existing = row.find(dst_);
    if (existing != row.end()) {
      if (existing->second != it->second) return Status::OK();
    } else {
      row[dst_] = it->second;
    }
    out->push_back(std::move(row));
    return Status::OK();
  }

  std::string Describe() const override {
    return "BindOrCheck " + src_ + " -> " + dst_;
  }

  NodeKind kind() const override { return NodeKind::kBindOrCheck; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<BindOrCheckNode>(std::move(children[0]), src_,
                                             dst_);
  }

  std::vector<std::string> IntroducedColumns() const override {
    return {dst_};
  }

  bool NavColumns(std::string* in, std::string* out) const override {
    *in = src_;
    *out = dst_;
    return true;
  }

 private:
  std::string src_, dst_;
};

class ComputeNode : public UnaryNode {
 public:
  ComputeNode(PlanPtr input, std::string out, calculus::DataTermPtr term,
              std::map<std::string, Sort> sorts)
      : UnaryNode(std::move(input)),
        out_(std::move(out)),
        term_(std::move(term)),
        sorts_(std::move(sorts)) {}

  Status Transform(const ExecContext& ctx, Row row,
                   std::vector<Row>* out) const override {
    calculus::Env env = RowToEnv(row, sorts_);
    Result<Value> v =
        calculus::EvaluateClosedTermInEnv(*ctx.calculus, *term_, env);
    if (!v.ok()) {
      if (v.status().code() == StatusCode::kNotFound ||
          v.status().code() == StatusCode::kTypeError) {
        return Status::OK();  // soft failure: drop row
      }
      return v.status();
    }
    row[out_] = std::move(v).value();
    out->push_back(std::move(row));
    return Status::OK();
  }

  std::string Describe() const override {
    return "Compute " + out_ + " = " + term_->ToString();
  }

  NodeKind kind() const override { return NodeKind::kCompute; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<ComputeNode>(std::move(children[0]), out_,
                                         term_, sorts_);
  }

  std::vector<std::string> IntroducedColumns() const override {
    return {out_};
  }

  const DataTerm* compute_term() const override { return term_.get(); }

 private:
  std::string out_;
  calculus::DataTermPtr term_;
  std::map<std::string, Sort> sorts_;
};

/// Column names a formula's predicate reads (all three sorts live in
/// row columns).
std::vector<std::string> FormulaColumns(const calculus::Formula& f) {
  std::vector<std::string> out;
  for (const calculus::Variable& v : f.FreeVariables()) {
    out.push_back(v.name);
  }
  return out;
}

std::vector<std::string> TermColumns(const DataTerm& term) {
  std::set<calculus::Variable> vars;
  calculus::CollectVariables(term, &vars);
  std::vector<std::string> out;
  for (const calculus::Variable& v : vars) out.push_back(v.name);
  return out;
}

class FilterNode : public UnaryNode {
 public:
  FilterNode(PlanPtr input, calculus::FormulaPtr formula,
             std::map<std::string, Sort> sorts)
      : UnaryNode(std::move(input)),
        formula_(std::move(formula)),
        sorts_(std::move(sorts)) {}

  Status Transform(const ExecContext& ctx, Row row,
                   std::vector<Row>* out) const override {
    calculus::Env env = RowToEnv(row, sorts_);
    SGMLQDB_ASSIGN_OR_RETURN(
        bool ok, calculus::CheckFormulaInEnv(*ctx.calculus, *formula_, env));
    if (ok) out->push_back(std::move(row));
    return Status::OK();
  }

  std::string Describe() const override {
    return "Filter " + formula_->ToString();
  }

  NodeKind kind() const override { return NodeKind::kFilter; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<FilterNode>(std::move(children[0]), formula_,
                                        sorts_);
  }

  std::vector<std::string> RequiredColumns() const override {
    return FormulaColumns(*formula_);
  }

  const calculus::Formula* filter_formula() const override {
    return formula_.get();
  }
  const std::map<std::string, Sort>* filter_sorts() const override {
    return &sorts_;
  }

 private:
  calculus::FormulaPtr formula_;
  std::map<std::string, Sort> sorts_;
};

// ---------------------------------------------------------------------
// Index-assisted text predicates.

/// True when `term` is a shape the index joins can evaluate without
/// building a calculus environment: a data variable, a constant, or
/// `__select_attr` / `text` chains over such.
bool FastEvalSupported(const DataTerm& term,
                       const std::map<std::string, Sort>& sorts) {
  switch (term.kind()) {
    case DataTerm::Kind::kVariable: {
      auto it = sorts.find(term.var_name());
      return it == sorts.end() || it->second == Sort::kData;
    }
    case DataTerm::Kind::kConstant:
      return true;
    case DataTerm::Kind::kFunction: {
      const std::string& fn = term.function_name();
      if (fn == "__select_attr") {
        return term.children().size() == 2 &&
               term.children()[1]->kind() == DataTerm::Kind::kConstant &&
               term.children()[1]->constant().kind() == ValueKind::kString &&
               FastEvalSupported(*term.children()[0], sorts);
      }
      if (fn == "text") {
        return term.children().size() == 1 &&
               FastEvalSupported(*term.children()[0], sorts);
      }
      return false;
    }
    default:
      return false;
  }
}

/// Evaluates a FastEvalSupported term against a row, mirroring the
/// calculus evaluator exactly (soft failures included).
Result<Value> FastEval(const DataTerm& term, const calculus::EvalContext& cc,
                       const Row& row) {
  switch (term.kind()) {
    case DataTerm::Kind::kVariable: {
      auto it = row.find(term.var_name());
      if (it == row.end()) {
        return Status::Internal("unbound data variable " + term.var_name());
      }
      return it->second;
    }
    case DataTerm::Kind::kConstant:
      return term.constant();
    default: {
      SGMLQDB_ASSIGN_OR_RETURN(Value base,
                               FastEval(*term.children()[0], cc, row));
      if (term.function_name() == "__select_attr") {
        return calculus::SelectAttrValue(
            cc, base, term.children()[1]->constant().AsString());
      }
      return calculus::TextOfValue(cc, base);
    }
  }
}

class IndexSemiJoinNode : public UnaryNode {
 public:
  IndexSemiJoinNode(PlanPtr input, calculus::DataTermPtr term,
                    std::string pattern_text, text::Pattern pattern,
                    std::map<std::string, Sort> sorts, bool object_only)
      : UnaryNode(std::move(input)),
        term_(std::move(term)),
        pattern_text_(std::move(pattern_text)),
        pattern_(std::move(pattern)),
        sorts_(std::move(sorts)),
        object_only_(object_only),
        fast_eval_(FastEvalSupported(*term_, sorts_)) {}

  Status Execute(const ExecContext& ctx, std::vector<Row>* out) const override {
    const calculus::EvalContext& cc = *ctx.calculus;
    // Resolve the pattern + candidate set once per execution (the
    // whole point: the naive filter re-parses per row).
    const text::Pattern* pattern = &pattern_;
    std::shared_ptr<const text::TextQueryCache::ContainsEntry> entry;
    std::shared_ptr<const std::unordered_set<text::UnitId>> local;
    const std::unordered_set<text::UnitId>* candidates = nullptr;
    bool exact = false;
    if (cc.text_cache != nullptr) {
      SGMLQDB_ASSIGN_OR_RETURN(
          entry, cc.text_cache->Contains(cc.text_index, pattern_text_,
                                         cc.text_epoch));
      pattern = &entry->pattern;
      candidates = entry->candidates.get();
      exact = entry->exact;
    } else if (cc.text_index != nullptr) {
      bool ex = false;
      std::vector<text::UnitId> units =
          cc.text_index->Candidates(pattern_, &ex);
      local = std::make_shared<const std::unordered_set<text::UnitId>>(
          units.begin(), units.end());
      candidates = local.get();
      exact = ex;
    }
    if (object_only_ && candidates != nullptr && candidates->empty()) {
      // Every row's text value is an indexed element and none can
      // match: skip the input subplan entirely.
      return Status::OK();
    }
    const size_t before = out->size();
    if (children_[0].use_count() > 1) {
      SGMLQDB_ASSIGN_OR_RETURN(auto rows,
                               children_[0]->ExecuteSharedRows(ctx));
      for (const Row& row : *rows) {
        SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
        SGMLQDB_ASSIGN_OR_RETURN(
            bool keep, KeepRow(cc, row, *pattern, candidates, exact));
        if (keep) out->push_back(row);
      }
      return GuardCountRows(ctx, out->size() - before);
    }
    std::vector<Row> in;
    SGMLQDB_RETURN_IF_ERROR(children_[0]->Execute(ctx, &in));
    for (Row& row : in) {
      SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
      SGMLQDB_ASSIGN_OR_RETURN(
          bool keep, KeepRow(cc, row, *pattern, candidates, exact));
      if (keep) out->push_back(std::move(row));
    }
    return GuardCountRows(ctx, out->size() - before);
  }

  Status Transform(const ExecContext&, Row, std::vector<Row>*) const override {
    return Status::Internal("IndexSemiJoin executes whole inputs");
  }

  std::string Describe() const override {
    return "IndexSemiJoin " + term_->ToString() + " contains \"" +
           pattern_text_ + "\"" + (object_only_ ? " [object]" : "");
  }

  NodeKind kind() const override { return NodeKind::kIndexSemiJoin; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<IndexSemiJoinNode>(std::move(children[0]), term_,
                                               pattern_text_, pattern_,
                                               sorts_, object_only_);
  }

  std::vector<std::string> RequiredColumns() const override {
    return TermColumns(*term_);
  }

  const std::string* index_contains_pattern() const override {
    return object_only_ ? &pattern_text_ : nullptr;
  }

  const calculus::DataTerm* index_term() const override {
    return term_.get();
  }

 private:
  Result<bool> KeepRow(const calculus::EvalContext& cc, const Row& row,
                       const text::Pattern& pattern,
                       const std::unordered_set<text::UnitId>* candidates,
                       bool exact) const {
    Result<Value> v =
        fast_eval_
            ? FastEval(*term_, cc, row)
            : calculus::EvaluateClosedTermInEnv(cc, *term_,
                                                RowToEnv(row, sorts_));
    if (!v.ok()) {
      if (v.status().code() == StatusCode::kNotFound ||
          v.status().code() == StatusCode::kTypeError) {
        return false;  // soft failure: the atom is false (§5.3)
      }
      return v.status();
    }
    if (v->kind() == ValueKind::kObject && candidates != nullptr) {
      if (candidates->count(v->AsObject().id()) == 0) return false;
      if (exact) return true;
    }
    Result<Value> text = calculus::TextOfValue(cc, *v);
    if (!text.ok()) {
      if (text.status().code() == StatusCode::kNotFound ||
          text.status().code() == StatusCode::kTypeError) {
        return false;
      }
      return text.status();
    }
    return pattern.Matches(text->AsString());
  }

  calculus::DataTermPtr term_;
  std::string pattern_text_;
  text::Pattern pattern_;
  std::map<std::string, Sort> sorts_;
  bool object_only_;
  bool fast_eval_;
};

class IndexNearJoinNode : public UnaryNode {
 public:
  IndexNearJoinNode(PlanPtr input, calculus::DataTermPtr term,
                    std::string word1, std::string word2,
                    size_t max_distance, std::map<std::string, Sort> sorts,
                    bool object_only)
      : UnaryNode(std::move(input)),
        term_(std::move(term)),
        word1_(std::move(word1)),
        word2_(std::move(word2)),
        max_distance_(max_distance),
        sorts_(std::move(sorts)),
        object_only_(object_only),
        fast_eval_(FastEvalSupported(*term_, sorts_)),
        plain_words_(text::IsPlainSingleWord(word1_) &&
                     text::IsPlainSingleWord(word2_)) {}

  Status Execute(const ExecContext& ctx, std::vector<Row>* out) const override {
    const calculus::EvalContext& cc = *ctx.calculus;
    // For plain words the positional index answers objects exactly.
    std::shared_ptr<const std::unordered_set<text::UnitId>> units;
    if (plain_words_ && cc.text_index != nullptr) {
      if (cc.text_cache != nullptr) {
        units = cc.text_cache->NearUnits(*cc.text_index, word1_, word2_,
                                         max_distance_, cc.text_epoch);
      } else {
        std::vector<text::UnitId> u =
            cc.text_index->NearLookup(word1_, word2_, max_distance_);
        units = std::make_shared<const std::unordered_set<text::UnitId>>(
            u.begin(), u.end());
      }
    }
    if (object_only_ && units != nullptr && units->empty()) {
      return Status::OK();
    }
    const size_t before = out->size();
    if (children_[0].use_count() > 1) {
      SGMLQDB_ASSIGN_OR_RETURN(auto rows,
                               children_[0]->ExecuteSharedRows(ctx));
      for (const Row& row : *rows) {
        SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
        SGMLQDB_ASSIGN_OR_RETURN(bool keep, KeepRow(cc, row, units.get()));
        if (keep) out->push_back(row);
      }
      return GuardCountRows(ctx, out->size() - before);
    }
    std::vector<Row> in;
    SGMLQDB_RETURN_IF_ERROR(children_[0]->Execute(ctx, &in));
    for (Row& row : in) {
      SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
      SGMLQDB_ASSIGN_OR_RETURN(bool keep, KeepRow(cc, row, units.get()));
      if (keep) out->push_back(std::move(row));
    }
    return GuardCountRows(ctx, out->size() - before);
  }

  Status Transform(const ExecContext&, Row, std::vector<Row>*) const override {
    return Status::Internal("IndexNearJoin executes whole inputs");
  }

  std::string Describe() const override {
    return "IndexNearJoin " + term_->ToString() + " near(\"" + word1_ +
           "\", \"" + word2_ + "\", " + std::to_string(max_distance_) + ")" +
           (object_only_ ? " [object]" : "");
  }

  NodeKind kind() const override { return NodeKind::kIndexNearJoin; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<IndexNearJoinNode>(std::move(children[0]), term_,
                                               word1_, word2_, max_distance_,
                                               sorts_, object_only_);
  }

  std::vector<std::string> RequiredColumns() const override {
    return TermColumns(*term_);
  }

  bool index_near_words(std::string* w1, std::string* w2,
                        size_t* k) const override {
    if (!object_only_ || !plain_words_) return false;
    *w1 = word1_;
    *w2 = word2_;
    *k = max_distance_;
    return true;
  }

  const calculus::DataTerm* index_term() const override {
    return term_.get();
  }

 private:
  Result<bool> KeepRow(const calculus::EvalContext& cc, const Row& row,
                       const std::unordered_set<text::UnitId>* units) const {
    Result<Value> v =
        fast_eval_
            ? FastEval(*term_, cc, row)
            : calculus::EvaluateClosedTermInEnv(cc, *term_,
                                                RowToEnv(row, sorts_));
    if (!v.ok()) {
      if (v.status().code() == StatusCode::kNotFound ||
          v.status().code() == StatusCode::kTypeError) {
        return false;
      }
      return v.status();
    }
    if (v->kind() == ValueKind::kObject && units != nullptr) {
      return units->count(v->AsObject().id()) > 0;
    }
    Result<Value> text = calculus::TextOfValue(cc, *v);
    if (!text.ok()) {
      if (text.status().code() == StatusCode::kNotFound ||
          text.status().code() == StatusCode::kTypeError) {
        return false;
      }
      return text.status();
    }
    return text::Near(text->AsString(), word1_, word2_, max_distance_);
  }

  calculus::DataTermPtr term_;
  std::string word1_, word2_;
  size_t max_distance_;
  std::map<std::string, Sort> sorts_;
  bool object_only_;
  bool fast_eval_;
  bool plain_words_;
};

/// Document-level index prefilter (see ops.h). Keeps rows whose
/// `doc_col` object was loaded in a document containing at least one
/// candidate unit; conservative pass-through for rows whose column is
/// missing / not an object / not a loaded unit, and for contexts
/// without an index or unit->doc map.
class IndexDocFilterNode : public UnaryNode {
 public:
  IndexDocFilterNode(PlanPtr input, std::string doc_col,
                     std::string pattern_text,
                     std::optional<text::Pattern> pattern,
                     std::string word1, std::string word2,
                     size_t max_distance, std::string term_class)
      : UnaryNode(std::move(input)),
        doc_col_(std::move(doc_col)),
        pattern_text_(std::move(pattern_text)),
        pattern_(std::move(pattern)),
        word1_(std::move(word1)),
        word2_(std::move(word2)),
        max_distance_(max_distance),
        term_class_(std::move(term_class)) {}

  Status Execute(const ExecContext& ctx, std::vector<Row>* out) const override {
    const calculus::EvalContext& cc = *ctx.calculus;
    std::shared_ptr<const std::unordered_set<uint64_t>> docs;
    if (cc.unit_docs != nullptr && cc.text_index != nullptr) {
      if (cc.text_cache != nullptr) {
        std::string key;
        if (pattern_.has_value()) {
          key = "c:" + term_class_ + ":" + pattern_text_;
        } else {
          key = "n:" + term_class_ + ":" + word1_ + "," + word2_ + "," +
                std::to_string(max_distance_);
        }
        docs = cc.text_cache->Docs(key, [&] { return BuildDocs(cc); },
                                   cc.text_epoch);
      } else {
        docs = std::make_shared<const std::unordered_set<uint64_t>>(
            BuildDocs(cc));
      }
    }
    const size_t before = out->size();
    if (children_[0].use_count() > 1) {
      SGMLQDB_ASSIGN_OR_RETURN(auto rows,
                               children_[0]->ExecuteSharedRows(ctx));
      for (const Row& row : *rows) {
        SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
        if (docs == nullptr || KeepRow(cc, row, *docs)) out->push_back(row);
      }
      return GuardCountRows(ctx, out->size() - before);
    }
    std::vector<Row> in;
    SGMLQDB_RETURN_IF_ERROR(children_[0]->Execute(ctx, &in));
    for (Row& row : in) {
      SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
      if (docs == nullptr || KeepRow(cc, row, *docs)) {
        out->push_back(std::move(row));
      }
    }
    return GuardCountRows(ctx, out->size() - before);
  }

  Status Transform(const ExecContext&, Row, std::vector<Row>*) const override {
    return Status::Internal("IndexDocFilter executes whole inputs");
  }

  std::string Describe() const override {
    std::string cls =
        term_class_.empty() ? std::string() : " [" + term_class_ + "]";
    if (pattern_.has_value()) {
      return "IndexDocFilter " + doc_col_ + " ~ contains \"" +
             pattern_text_ + "\"" + cls;
    }
    return "IndexDocFilter " + doc_col_ + " ~ near(\"" + word1_ + "\", \"" +
           word2_ + "\", " + std::to_string(max_distance_) + ")" + cls;
  }

  NodeKind kind() const override { return NodeKind::kIndexDocFilter; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<IndexDocFilterNode>(
        std::move(children[0]), doc_col_, pattern_text_, pattern_, word1_,
        word2_, max_distance_, term_class_);
  }

  std::vector<std::string> RequiredColumns() const override {
    return {doc_col_};
  }

 private:
  /// The document-id set for this predicate: candidate units from the
  /// index, class-restricted when the downstream join's term is
  /// statically classed (only such units can be the term's value),
  /// mapped to their loading documents. Runs once per (predicate,
  /// class, store snapshot) thanks to TextQueryCache::Docs.
  std::unordered_set<uint64_t> BuildDocs(
      const calculus::EvalContext& cc) const {
    std::vector<text::UnitId> units;
    if (pattern_.has_value()) {
      bool exact = false;
      units = cc.text_index->Candidates(*pattern_, &exact);
    } else {
      units = cc.text_index->NearLookup(word1_, word2_, max_distance_);
    }
    std::unordered_set<uint64_t> docs;
    for (text::UnitId u : units) AddDoc(cc, u, &docs);
    return docs;
  }

  void AddDoc(const calculus::EvalContext& cc, text::UnitId unit,
              std::unordered_set<uint64_t>* docs) const {
    if (!term_class_.empty() && cc.db != nullptr) {
      const std::string* cls = cc.db->ClassOf(om::ObjectId(unit));
      if (cls == nullptr ||
          !cc.db->schema().IsSubclassOf(*cls, term_class_)) {
        return;
      }
    }
    auto it = cc.unit_docs->find(unit);
    if (it != cc.unit_docs->end()) docs->insert(it->second);
  }

  bool KeepRow(const calculus::EvalContext& cc, const Row& row,
               const std::unordered_set<uint64_t>& docs) const {
    auto it = row.find(doc_col_);
    if (it == row.end() || it->second.kind() != ValueKind::kObject) {
      return true;
    }
    auto doc = cc.unit_docs->find(it->second.AsObject().id());
    if (doc == cc.unit_docs->end()) return true;
    return docs.count(doc->second) > 0;
  }

  std::string doc_col_;
  // Contains form when pattern_ is set; near form otherwise.
  std::string pattern_text_;
  std::optional<text::Pattern> pattern_;
  std::string word1_, word2_;
  size_t max_distance_;
  // Non-empty: only candidate units of this class (or a subclass)
  // contribute documents.
  std::string term_class_;
};

class UnionAllNode : public Node {
 public:
  explicit UnionAllNode(std::vector<PlanPtr> inputs) {
    children_ = std::move(inputs);
  }

  Status Execute(const ExecContext& ctx, std::vector<Row>* out) const override {
    // The union is an exchange over its branches: serial execution
    // appends child rows straight to `out`; with a branch executor a
    // multi-branch union scatters, gathers, and concatenates in
    // branch order. One fan-out level: the scattered branches share
    // the memo (thread-safe) but do not re-fan nested unions.
    ExchangeOperator exchange(ctx.branch_executor);
    if (!exchange.parallel_for(children_.size())) {
      for (const PlanPtr& c : children_) {
        SGMLQDB_RETURN_IF_ERROR(ExecuteChild(c, ctx, out));
      }
      return Status::OK();
    }
    ExecContext branch_ctx = ctx;
    branch_ctx.branch_executor = nullptr;
    return exchange.GatherRows(
        children_.size(),
        [&](size_t i, std::vector<Row>* part) {
          return ExecuteChild(children_[i], branch_ctx, part);
        },
        out);
  }

  std::string Describe() const override {
    return "UnionAll (" + std::to_string(children_.size()) + " branches)";
  }

  NodeKind kind() const override { return NodeKind::kUnionAll; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<UnionAllNode>(std::move(children));
  }
};

/// Projects a row onto columns (missing columns are skipped).
Row ProjectRow(const Row& row, const std::vector<std::string>& cols) {
  Row out;
  for (const std::string& c : cols) {
    auto it = row.find(c);
    if (it != row.end()) out[c] = it->second;
  }
  return out;
}

class AntiSemiJoinNode : public Node {
 public:
  AntiSemiJoinNode(PlanPtr left, PlanPtr right,
                   std::vector<std::string> cols)
      : cols_(std::move(cols)) {
    children_ = {std::move(left), std::move(right)};
  }

  Status Execute(const ExecContext& ctx, std::vector<Row>* out) const override {
    std::vector<Row> left, right;
    SGMLQDB_RETURN_IF_ERROR(ExecuteChild(children_[0], ctx, &left));
    SGMLQDB_RETURN_IF_ERROR(ExecuteChild(children_[1], ctx, &right));
    std::set<Value> keys;
    for (const Row& r : right) {
      SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
      keys.insert(RowKey(ProjectRow(r, cols_)));
    }
    const size_t before = out->size();
    for (Row& r : left) {
      SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
      if (keys.count(RowKey(ProjectRow(r, cols_))) == 0) {
        out->push_back(std::move(r));
      }
    }
    return GuardCountRows(ctx, out->size() - before);
  }

  std::string Describe() const override {
    std::string out = "AntiSemiJoin on (";
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (i > 0) out += ", ";
      out += cols_[i];
    }
    return out + ")";
  }

  NodeKind kind() const override { return NodeKind::kAntiSemiJoin; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<AntiSemiJoinNode>(std::move(children[0]),
                                              std::move(children[1]), cols_);
  }

 private:
  static Value RowKey(const Row& row) {
    std::vector<std::pair<std::string, Value>> fields;
    for (const auto& [k, v] : row) fields.emplace_back(k, v);
    return Value::Tuple(std::move(fields));
  }

  std::vector<std::string> cols_;
};

class CrossProductNode : public Node {
 public:
  CrossProductNode(PlanPtr left, PlanPtr right) {
    children_ = {std::move(left), std::move(right)};
  }

  Status Execute(const ExecContext& ctx, std::vector<Row>* out) const override {
    std::vector<Row> left, right;
    SGMLQDB_RETURN_IF_ERROR(ExecuteChild(children_[0], ctx, &left));
    SGMLQDB_RETURN_IF_ERROR(ExecuteChild(children_[1], ctx, &right));
    out->reserve(out->size() + left.size() * right.size());
    // The classic runaway shape (a bad plan's nested loop): probe and
    // charge the row budget per produced row, not per input row.
    for (const Row& l : left) {
      for (const Row& r : right) {
        SGMLQDB_RETURN_IF_ERROR(GuardProbe(ctx));
        Row merged = l;
        for (const auto& [k, v] : r) merged[k] = v;
        out->push_back(std::move(merged));
      }
    }
    return GuardCountRows(ctx, left.size() * right.size());
  }

  std::string Describe() const override { return "CrossProduct"; }

  NodeKind kind() const override { return NodeKind::kCrossProduct; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<CrossProductNode>(std::move(children[0]),
                                              std::move(children[1]));
  }
};

class ProjectNode : public UnaryNode {
 public:
  ProjectNode(PlanPtr input, std::vector<std::string> cols)
      : UnaryNode(std::move(input)), cols_(std::move(cols)) {}

  Status Transform(const ExecContext&, Row row,
                   std::vector<Row>* out) const override {
    out->push_back(ProjectRow(row, cols_));
    return Status::OK();
  }

  std::string Describe() const override {
    std::string out = "Project (";
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (i > 0) out += ", ";
      out += cols_[i];
    }
    return out + ")";
  }

  NodeKind kind() const override { return NodeKind::kProject; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<ProjectNode>(std::move(children[0]), cols_);
  }

 private:
  std::vector<std::string> cols_;
};

class DistinctNode : public Node {
 public:
  explicit DistinctNode(PlanPtr input) { children_ = {std::move(input)}; }

  Status Execute(const ExecContext& ctx, std::vector<Row>* out) const override {
    std::vector<Row> in;
    SGMLQDB_RETURN_IF_ERROR(ExecuteChild(children_[0], ctx, &in));
    std::set<Value> seen;
    for (Row& row : in) {
      std::vector<std::pair<std::string, Value>> fields;
      for (const auto& [k, v] : row) fields.emplace_back(k, v);
      Value key = Value::Tuple(std::move(fields));
      if (seen.insert(std::move(key)).second) {
        out->push_back(std::move(row));
      }
    }
    return Status::OK();
  }

  std::string Describe() const override { return "Distinct"; }

  NodeKind kind() const override { return NodeKind::kDistinct; }

  PlanPtr WithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<DistinctNode>(std::move(children[0]));
  }
};

}  // namespace

std::string PlanToString(const PlanPtr& plan) {
  std::string out;
  std::function<void(const PlanPtr&, int)> walk = [&](const PlanPtr& node,
                                                      int depth) {
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += node->Describe();
    out += '\n';
    for (const PlanPtr& c : node->children()) walk(c, depth + 1);
  };
  walk(plan, 0);
  return out;
}

calculus::Env RowToEnv(const Row& row,
                       const std::map<std::string, calculus::Sort>& sorts) {
  calculus::Env env;
  for (const auto& [col, value] : row) {
    auto it = sorts.find(col);
    Sort sort = it == sorts.end() ? Sort::kData : it->second;
    switch (sort) {
      case Sort::kData:
        env.data[col] = value;
        break;
      case Sort::kPath: {
        Result<Path> p = Path::FromValue(value);
        if (p.ok()) env.paths[col] = std::move(p).value();
        break;
      }
      case Sort::kAttr:
        if (value.kind() == ValueKind::kString) {
          env.attrs[col] = value.AsString();
        }
        break;
    }
  }
  return env;
}

PlanPtr RootScan(std::string root_name, std::string col) {
  return std::make_shared<RootScanNode>(std::move(root_name),
                                        std::move(col));
}
PlanPtr Unit() { return std::make_shared<UnitNode>(); }
PlanPtr AttrStep(PlanPtr input, std::string col, std::string attr,
                 std::string out) {
  return std::make_shared<AttrStepNode>(std::move(input), std::move(col),
                                        std::move(attr), std::move(out));
}
PlanPtr DerefStep(PlanPtr input, std::string col, std::string out) {
  return std::make_shared<DerefStepNode>(std::move(input), std::move(col),
                                         std::move(out));
}
PlanPtr ClassFilter(PlanPtr input, std::string col, std::string class_name) {
  return std::make_shared<ClassFilterNode>(std::move(input), std::move(col),
                                           std::move(class_name));
}
PlanPtr UnnestList(PlanPtr input, std::string col, std::string out,
                   std::string pos_col) {
  return std::make_shared<UnnestListNode>(std::move(input), std::move(col),
                                          std::move(out), std::move(pos_col));
}
PlanPtr IndexStep(PlanPtr input, std::string col, int64_t index,
                  std::string out) {
  return std::make_shared<IndexStepNode>(std::move(input), std::move(col),
                                         index, std::move(out));
}
PlanPtr UnnestSet(PlanPtr input, std::string col, std::string out) {
  return std::make_shared<UnnestSetNode>(std::move(input), std::move(col),
                                         std::move(out));
}
PlanPtr BuildPath(PlanPtr input, std::string out,
                  std::vector<path::SchemaStep> steps,
                  std::vector<std::string> slot_cols) {
  return std::make_shared<BuildPathNode>(std::move(input), std::move(out),
                                         std::move(steps),
                                         std::move(slot_cols));
}
PlanPtr ConstCol(PlanPtr input, std::string out, om::Value value) {
  return std::make_shared<ConstColNode>(std::move(input), std::move(out),
                                        std::move(value));
}
PlanPtr BindOrCheck(PlanPtr input, std::string src, std::string dst) {
  return std::make_shared<BindOrCheckNode>(std::move(input), std::move(src),
                                           std::move(dst));
}
PlanPtr Compute(PlanPtr input, std::string out, calculus::DataTermPtr term,
                const std::map<std::string, calculus::Sort>& sorts) {
  return std::make_shared<ComputeNode>(std::move(input), std::move(out),
                                       std::move(term), sorts);
}
PlanPtr Filter(PlanPtr input, calculus::FormulaPtr formula,
               const std::map<std::string, calculus::Sort>& sorts) {
  return std::make_shared<FilterNode>(std::move(input), std::move(formula),
                                      sorts);
}
PlanPtr IndexSemiJoin(PlanPtr input, calculus::DataTermPtr term,
                      std::string pattern_text, text::Pattern pattern,
                      const std::map<std::string, calculus::Sort>& sorts,
                      bool object_only) {
  return std::make_shared<IndexSemiJoinNode>(
      std::move(input), std::move(term), std::move(pattern_text),
      std::move(pattern), sorts, object_only);
}
PlanPtr IndexNearJoin(PlanPtr input, calculus::DataTermPtr term,
                      std::string word1, std::string word2,
                      size_t max_distance,
                      const std::map<std::string, calculus::Sort>& sorts,
                      bool object_only) {
  return std::make_shared<IndexNearJoinNode>(
      std::move(input), std::move(term), std::move(word1), std::move(word2),
      max_distance, sorts, object_only);
}
PlanPtr IndexDocFilterContains(PlanPtr input, std::string doc_col,
                               std::string pattern_text,
                               text::Pattern pattern,
                               std::string term_class) {
  return std::make_shared<IndexDocFilterNode>(
      std::move(input), std::move(doc_col), std::move(pattern_text),
      std::move(pattern), "", "", 0, std::move(term_class));
}
PlanPtr IndexDocFilterNear(PlanPtr input, std::string doc_col,
                           std::string word1, std::string word2,
                           size_t max_distance, std::string term_class) {
  return std::make_shared<IndexDocFilterNode>(
      std::move(input), std::move(doc_col), "", std::nullopt,
      std::move(word1), std::move(word2), max_distance,
      std::move(term_class));
}
PlanPtr UnionAll(std::vector<PlanPtr> inputs) {
  return std::make_shared<UnionAllNode>(std::move(inputs));
}
PlanPtr AntiSemiJoin(PlanPtr left, PlanPtr right,
                     std::vector<std::string> cols) {
  return std::make_shared<AntiSemiJoinNode>(std::move(left), std::move(right),
                                            std::move(cols));
}
PlanPtr CrossProduct(PlanPtr left, PlanPtr right) {
  return std::make_shared<CrossProductNode>(std::move(left),
                                            std::move(right));
}
PlanPtr Project(PlanPtr input, std::vector<std::string> cols) {
  return std::make_shared<ProjectNode>(std::move(input), std::move(cols));
}
PlanPtr Distinct(PlanPtr input) {
  return std::make_shared<DistinctNode>(std::move(input));
}

}  // namespace sgmlqdb::algebra
