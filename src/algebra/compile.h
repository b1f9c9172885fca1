// Calculus -> algebra compilation (paper §5.4).
//
// A query of the (*) fragment
//
//     exists P1..Pn, A1..Am ( phi )
//
// where phi is a conjunction of path predicates and filters, is
// compiled by *schema analysis*: every path variable is replaced by
// the (finitely many, under the restricted semantics) schema paths
// that can instantiate it, and every attribute variable by the
// attributes available at its position. The result is a UnionAll of
// plans with no path/attribute variables — each a chain of navigation
// operators — exactly the paper's "union of queries with no attribute
// or path variables". Branches that expand a path variable along a
// common schema-path prefix share that prefix's plan nodes (a trie),
// so execution navigates it once.
//
// Atoms the expander cannot turn into navigation (negations,
// interpreted predicates, comparisons) become Filter operators,
// evaluated per-row by the calculus checker — the variant-based
// selection over heterogeneous collections the paper mentions is the
// AttrStep/UnnestList drop-on-mismatch behaviour.

#ifndef SGMLQDB_ALGEBRA_COMPILE_H_
#define SGMLQDB_ALGEBRA_COMPILE_H_

#include <map>
#include <string>
#include <vector>

#include "algebra/ops.h"
#include "calculus/eval.h"
#include "calculus/formula.h"
#include "om/schema.h"
#include "om/type.h"

namespace sgmlqdb::algebra {

struct CompiledQuery {
  PlanPtr plan;
  std::vector<calculus::Variable> head;
  /// Sorts of every column (for env reconstruction in filters).
  std::map<std::string, calculus::Sort> sorts;
  /// Number of union branches the expansion produced (E3 reports it).
  size_t branch_count = 0;
  /// Per-branch static column types from the schema expansion, aligned
  /// with the UnionAll's branch order. The optimizer's pruning and
  /// index pushdown consult these; empty for pre-optimizer plans.
  std::vector<std::map<std::string, om::Type>> branch_types;
};

/// Compiles a calculus query against a schema. Fails with Unsupported
/// for shapes outside the compilable fragment (the naive evaluator
/// covers those).
Result<CompiledQuery> CompileQuery(const om::Schema& schema,
                                   const calculus::Query& query);

/// Runs a compiled query; result has the same shape as
/// calculus::EvaluateQuery (set of values / head tuples). A non-null
/// `branch_executor` lets the top-level UnionAll run its branches in
/// parallel (the result is identical and deterministically ordered).
Result<om::Value> ExecuteCompiled(const calculus::EvalContext& ctx,
                                  const CompiledQuery& compiled,
                                  BranchExecutor* branch_executor = nullptr);

/// Compile + execute.
Result<om::Value> EvaluateAlgebraic(const calculus::EvalContext& ctx,
                                    const om::Schema& schema,
                                    const calculus::Query& query);

}  // namespace sgmlqdb::algebra

#endif  // SGMLQDB_ALGEBRA_COMPILE_H_
