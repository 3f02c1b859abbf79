#ifndef NLQ_ENGINE_EXEC_PLANNER_H_
#define NLQ_ENGINE_EXEC_PLANNER_H_

#include <memory>

#include "common/query_context.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "engine/ast.h"
#include "engine/exec/morsel.h"
#include "engine/exec/plan.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "udf/udf.h"

namespace nlq::engine::exec {

class ViewRegistry;

/// A planned SELECT: the physical operator tree plus the result
/// schema its root produces.
struct PhysicalPlan {
  PlanNodePtr root;
  storage::Schema output_schema;
};

/// Builds a physical plan from a parsed SELECT statement:
///
///   [Limit] <- [Sort] <- Gather|HashAggregate <- [Filter]
///       <- [CrossJoin...] <- ParallelScan|ConstantInput
///
/// Planning performs all binding (scope resolution, aggregate
/// extraction, WHERE-conjunct pushdown into the materialized small
/// tables, ORDER BY binding over the result schema) so that
/// execution is pure data flow. Planning a statement does not scan
/// the driver table; only the small cross-join sides are
/// materialized, exactly as the previous monolithic executor did.
///
/// SELECTs over one table — or over one table plus small tables that
/// each hold exactly one row after pushdown, whose columns then bind as
/// constants — run on the columnar pipeline instead when their
/// expressions all compile to bytecode (scalar UDFs included):
///
///   [Limit] <- [Sort] <- VectorHashAggregate <- [VectorFilter]
///       <- ColumnarScan                                          or
///   [Limit] <- [Sort] <- Gather <- VectorProject <- [VectorFilter]
///       <- ColumnarScan
///
/// Simple `column <op> literal` WHERE conjuncts are pushed into the
/// scan and evaluated on column spans; the remaining conjuncts are
/// ANDed into one compiled VectorFilter program. VectorHashAggregate
/// is the one columnar aggregate operator: grouped or global (the
/// paper's n,L,Q summary queries, whose span-capable UDFs take whole
/// batches), and — with view maintenance on — resuming eligible global
/// aggregates from the maintained-view registry. The interpreted row
/// path serves cross joins against tables of 0 or >= 2 rows, VARCHAR
/// expressions, `SELECT *` and scalar UDF calls in lazily evaluated
/// operands (DESIGN.md §11), and is the correctness oracle for all of
/// it; one-row tables stay broadcast there too, so a broadcast
/// statement never plans a CrossJoin.
class Planner {
 public:
  /// `morsel_rows` is the scan-morsel size handed to the leaf nodes
  /// (0 = partition-granular streams, the pre-morsel behavior).
  /// `ctx` — when non-null — is the statement's QueryContext; every
  /// planned node that loops over batches or claims morsels polls it,
  /// and memory-hungry operators charge its MemoryTracker. The context
  /// must outlive the plan's execution.
  /// `enable_expr_compile` gates every vectorized choice (the columnar
  /// pipeline and broadcasting one-row tables): off plans the pure
  /// interpreted row path, the differential oracle.
  /// `views` — optional — is the maintained-view registry: when set,
  /// an eligible global n,L,Q aggregate takes its stored per-morsel
  /// partials at plan time, and its scan reads only the rows past them;
  /// it must outlive the plan.
  Planner(storage::Catalog* catalog, const udf::UdfRegistry* registry,
          ThreadPool* pool,
          size_t batch_capacity = RowBatch::kDefaultCapacity,
          uint64_t morsel_rows = kDefaultMorselRows,
          const QueryContext* ctx = nullptr,
          bool enable_expr_compile = true,
          ViewRegistry* views = nullptr);

  StatusOr<PhysicalPlan> Plan(const SelectStatement& select) const;

 private:
  storage::Catalog* catalog_;
  const udf::UdfRegistry* registry_;
  ThreadPool* pool_;
  size_t batch_capacity_;
  uint64_t morsel_rows_;
  const QueryContext* ctx_;
  bool enable_expr_compile_;
  ViewRegistry* views_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_PLANNER_H_
