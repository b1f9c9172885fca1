// The algebra of §5.4: operators over relations of variable bindings.
//
// A row maps column names (calculus variable names, plus internal
// "__k" columns) to values. The operator set is the complex-object
// algebra of [3,12] extended with the paper's requirements:
//  * VariantSelect / AttrStep drop rows whose tuple lacks the selected
//    attribute — this is the "variant-based selection (using implicit
//    selectors) over heterogeneous sets" the paper calls for;
//  * BuildPath assembles the concrete path a §5.4 branch took from its
//    schema-path template and the positions / set elements its unnests
//    left in their own columns, making paths first-class in the algebra
//    too — built once per surviving row, never per step;
//  * IndexSemiJoin / IndexNearJoin answer `contains` / `near` filters
//    through the inverted index's candidate sets (§4.1/§6) instead of
//    matching every row's text.
//
// Execution is materialized (each node produces its full row vector):
// simple, deterministic, and sufficient for the experiments. UnionAll
// optionally fans its branches onto a BranchExecutor; the shared-
// prefix memo is thread-safe so branches can race through common
// subplans.

#ifndef SGMLQDB_ALGEBRA_OPS_H_
#define SGMLQDB_ALGEBRA_OPS_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"
#include "calculus/eval.h"
#include "calculus/formula.h"
#include "om/database.h"
#include "path/path.h"
#include "path/schema_paths.h"
#include "text/pattern.h"

namespace sgmlqdb::algebra {

/// A binding row. Path-sorted columns store the path's value encoding;
/// attribute-sorted columns store strings.
using Row = std::map<std::string, om::Value>;

class Node;
using PlanPtr = std::shared_ptr<const Node>;

/// Discriminates plan nodes for the optimizer's tree rewrites (plans
/// are shared immutable trees, so rewrites inspect and rebuild rather
/// than mutate).
enum class NodeKind {
  kRootScan,
  kUnit,
  kAttrStep,
  kDerefStep,
  kClassFilter,
  kUnnestList,
  kIndexStep,
  kUnnestSet,
  kBuildPath,
  kConstCol,
  kBindOrCheck,
  kCompute,
  kFilter,
  kIndexSemiJoin,
  kIndexNearJoin,
  kIndexDocFilter,
  kUnionAll,
  kAntiSemiJoin,
  kCrossProduct,
  kProject,
  kDistinct,
  kTopKScore,
  kGroupAggregate,
  kOrderBy,
};

/// Runs the branches of a parallel UnionAll. Implementations must
/// invoke fn(0) .. fn(n-1) exactly once each (any order, any thread)
/// and return after all have finished. The service layer provides a
/// thread-pool-backed implementation; execution is serial without one.
class BranchExecutor {
 public:
  virtual ~BranchExecutor() = default;
  virtual void Run(size_t n, const std::function<void(size_t)>& fn) = 0;
};

struct ExecContext;

/// Per-execution memo for plan nodes shared between union branches
/// (common prefixes of the §5.4 expansion): each node's rows are
/// computed once and shared. Thread-safe — per-entry locking lets
/// parallel branches compute disjoint prefixes concurrently while a
/// shared prefix blocks its second reader instead of recomputing.
class Memo {
 public:
  /// The rows of `node`, computing them on first call.
  Result<std::shared_ptr<const std::vector<Row>>> GetOrCompute(
      const Node& node, const ExecContext& ctx);

  size_t size() const;

 private:
  struct Entry {
    std::mutex mu;
    bool done = false;
    Status status = Status::OK();
    std::shared_ptr<const std::vector<Row>> rows;
  };

  mutable std::mutex mu_;
  std::map<const Node*, std::shared_ptr<Entry>> entries_;
};

/// Execution context: the database plus the calculus context used for
/// embedded filter formulas, the shared-prefix memo, and (optionally)
/// a branch executor for parallel UnionAll.
struct ExecContext {
  const calculus::EvalContext* calculus = nullptr;
  /// When set, a multi-branch UnionAll fans its branches out through
  /// this executor (cleared for nested unions — one fan-out level).
  BranchExecutor* branch_executor = nullptr;
  std::shared_ptr<Memo> memo = std::make_shared<Memo>();
  const om::Database* db() const { return calculus->db; }
};

/// Base of all plan nodes.
class Node {
 public:
  virtual ~Node() = default;

  /// Appends this node's output rows to `out`.
  virtual Status Execute(const ExecContext& ctx,
                         std::vector<Row>* out) const = 0;

  /// Execute with memoization: a node referenced by several parents
  /// (a shared union-branch prefix) computes once per execution and
  /// appends the shared rows.
  Status ExecuteShared(const ExecContext& ctx, std::vector<Row>* out) const;

  /// This node's rows as an immutable shared vector — memoized, no
  /// per-parent copy of the vector itself.
  Result<std::shared_ptr<const std::vector<Row>>> ExecuteSharedRows(
      const ExecContext& ctx) const;

  /// One-line description ("AttrStep s -> .title t"); children are
  /// rendered by PlanToString.
  virtual std::string Describe() const = 0;

  virtual NodeKind kind() const = 0;

  /// A structurally identical node over different inputs (the
  /// optimizer's rebuild primitive). `children.size()` must match.
  virtual PlanPtr WithChildren(std::vector<PlanPtr> children) const = 0;

  /// Columns this node adds to (or overwrites in) its input rows.
  /// A predicate may be pushed below this node only if it reads none
  /// of them.
  virtual std::vector<std::string> IntroducedColumns() const { return {}; }

  /// For predicate nodes (Filter / IndexSemiJoin / IndexNearJoin):
  /// the columns the predicate reads. Empty otherwise.
  virtual std::vector<std::string> RequiredColumns() const { return {}; }

  /// FilterNode only: the wrapped formula and its sorts (null
  /// otherwise). Lets the optimizer inspect filters for index
  /// pushdown without downcasting.
  virtual const calculus::Formula* filter_formula() const { return nullptr; }
  virtual const std::map<std::string, calculus::Sort>* filter_sorts() const {
    return nullptr;
  }

  /// IndexSemiJoin with the object-only guarantee: the contains
  /// pattern text (null otherwise). Non-null means every matching
  /// row's term value is an indexed element — the premise under which
  /// a document-level prefilter (IndexDocFilter) is sound.
  virtual const std::string* index_contains_pattern() const {
    return nullptr;
  }
  /// IndexNearJoin, object-only with both words plain: fills the words
  /// and distance and returns true. False otherwise.
  virtual bool index_near_words(std::string*, std::string*,
                                size_t*) const {
    return false;
  }
  /// IndexSemiJoin / IndexNearJoin: the filtered data term (null
  /// otherwise).
  virtual const calculus::DataTerm* index_term() const { return nullptr; }
  /// RootScanNode: the persistence name scanned (null otherwise).
  virtual const std::string* root_name() const { return nullptr; }
  /// ComputeNode: the computed data term (null otherwise).
  virtual const calculus::DataTerm* compute_term() const { return nullptr; }
  /// Steps that bind one output column by navigating from (or copying)
  /// one input column — AttrStep, DerefStep, UnnestList, IndexStep,
  /// UnnestSet, BindOrCheck. Fills the column names and returns true.
  /// Navigation never leaves the input object's document, which is
  /// what lets the optimizer trace columns back to a document anchor.
  virtual bool NavColumns(std::string*, std::string*) const {
    return false;
  }

  const std::vector<PlanPtr>& children() const { return children_; }

 protected:
  std::vector<PlanPtr> children_;
};

/// Pretty-prints a plan tree.
std::string PlanToString(const PlanPtr& plan);

// ---------------------------------------------------------------------
// Factories (each returns a new plan node).

/// One row binding `col` to the persistence root's value.
PlanPtr RootScan(std::string root_name, std::string col);

/// One row with no columns (unit input for constant plans).
PlanPtr Unit();

/// For each input row: bind `out` to field `attr` of tuple `col`;
/// rows without the attribute are dropped (implicit selector).
PlanPtr AttrStep(PlanPtr input, std::string col, std::string attr,
                 std::string out);

/// Dereference the object in `col` into `out` (drops nil / dangling).
PlanPtr DerefStep(PlanPtr input, std::string col, std::string out);

/// Keep rows whose `col` is an object of class `class_name` (or a
/// subclass).
PlanPtr ClassFilter(PlanPtr input, std::string col, std::string class_name);

/// Unnest the list in `col`: one output row per element, bound to
/// `out`; `pos_col` (optional) receives the integer index.
PlanPtr UnnestList(PlanPtr input, std::string col, std::string out,
                   std::string pos_col = "");

/// Select list element at a constant index.
PlanPtr IndexStep(PlanPtr input, std::string col, int64_t index,
                  std::string out);

/// Unnest the set in `col` into `out`.
PlanPtr UnnestSet(PlanPtr input, std::string col, std::string out);

/// Bind `out` to the path value (Path::ToValue encoding) of one
/// instance of the schema path `steps`: attribute and dereference
/// steps come from the template; each [*] / {*} step takes its list
/// position / set element from the next of `slot_cols`, in order.
/// Rows missing a slot column are dropped.
PlanPtr BuildPath(PlanPtr input, std::string out,
                  std::vector<path::SchemaStep> steps,
                  std::vector<std::string> slot_cols);

/// Bind `out` to a constant in every row.
PlanPtr ConstCol(PlanPtr input, std::string out, om::Value value);

/// Copy `src` to `dst`; if `dst` already exists, keep only rows where
/// the values are equal (capture-variable semantics).
PlanPtr BindOrCheck(PlanPtr input, std::string src, std::string dst);

/// Bind `out` to the result of evaluating a calculus data term whose
/// variables are taken from the row. Rows where evaluation soft-fails
/// are dropped.
PlanPtr Compute(PlanPtr input, std::string out, calculus::DataTermPtr term,
                const std::map<std::string, calculus::Sort>& sorts);

/// Keep rows satisfying the (fully bound) calculus formula.
PlanPtr Filter(PlanPtr input, calculus::FormulaPtr formula,
               const std::map<std::string, calculus::Sort>& sorts);

/// Index-assisted `contains` filter (§4.1/§6): keep rows where the
/// text of `term` matches `pattern`. When the execution context
/// carries an inverted index, rows whose term value is an element
/// object are decided (or pre-filtered) through the index's candidate
/// set instead of matching their text. `object_only` asserts the
/// term's static type is an element class on every branch row — then
/// an empty candidate set short-circuits the whole subplan.
PlanPtr IndexSemiJoin(PlanPtr input, calculus::DataTermPtr term,
                      std::string pattern_text, text::Pattern pattern,
                      const std::map<std::string, calculus::Sort>& sorts,
                      bool object_only);

/// Index-assisted `near` filter: keep rows where `word1` and `word2`
/// occur within `max_distance` words of the text of `term`. Element
/// objects are answered exactly from the positional index when both
/// words are plain.
PlanPtr IndexNearJoin(PlanPtr input, calculus::DataTermPtr term,
                      std::string word1, std::string word2,
                      size_t max_distance,
                      const std::map<std::string, calculus::Sort>& sorts,
                      bool object_only);

/// Document-level index prefilter: keep rows whose document — the one
/// the element object in `doc_col` was loaded under — contains at
/// least one candidate unit for the contains pattern. When
/// `term_class` is non-empty, only candidate units of that class (or
/// a subclass) count: the downstream join's term is statically of
/// that class, so no other unit can be its value. Sound only above
/// subplans feeding an object-only IndexSemiJoin on a term navigated
/// from `doc_col` (navigation stays inside a document). Pass-through
/// when the context lacks an index or unit->doc map.
PlanPtr IndexDocFilterContains(PlanPtr input, std::string doc_col,
                               std::string pattern_text,
                               text::Pattern pattern,
                               std::string term_class);

/// The near-predicate form of IndexDocFilterContains (both words
/// plain, so the positional index's unit set is exact).
PlanPtr IndexDocFilterNear(PlanPtr input, std::string doc_col,
                           std::string word1, std::string word2,
                           size_t max_distance, std::string term_class);

/// Concatenation of the children's outputs (the union of §5.4). With
/// a BranchExecutor in the context, branches execute in parallel;
/// output order is the branch order either way.
PlanPtr UnionAll(std::vector<PlanPtr> inputs);

/// Rows of `left` whose projection on `cols` does not appear in
/// `right`'s projection on `cols` (anti-semi-join; used for negated
/// path predicates such as Q4's difference).
PlanPtr AntiSemiJoin(PlanPtr left, PlanPtr right,
                     std::vector<std::string> cols);

/// Cross product (for independent generators).
PlanPtr CrossProduct(PlanPtr left, PlanPtr right);

/// Keep only the named columns.
PlanPtr Project(PlanPtr input, std::vector<std::string> cols);

/// Remove duplicate rows.
PlanPtr Distinct(PlanPtr input);

/// Builds a calculus environment from a row (needs variable sorts).
calculus::Env RowToEnv(const Row& row,
                       const std::map<std::string, calculus::Sort>& sorts);

}  // namespace sgmlqdb::algebra

#endif  // SGMLQDB_ALGEBRA_OPS_H_
