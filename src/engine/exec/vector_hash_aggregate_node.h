#ifndef NLQ_ENGINE_EXEC_VECTOR_HASH_AGGREGATE_NODE_H_
#define NLQ_ENGINE_EXEC_VECTOR_HASH_AGGREGATE_NODE_H_

#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/threadpool.h"
#include "engine/exec/aggregate_state.h"
#include "engine/exec/bytecode.h"
#include "engine/exec/plan.h"
#include "engine/exec/view_registry.h"
#include "engine/expr.h"

namespace nlq::engine::exec {

/// The columnar aggregate operator: the INIT / ROW / MERGE / FINALIZE
/// protocol of HashAggregateNode (aggregate_state.h), with the ROW
/// phase running over span batches — GROUP BY keys and aggregate
/// arguments through compiled bytecode, bare column arguments read in
/// place — instead of interpreted Datum trees.
///
/// Without GROUP BY keys (the paper's global n,L,Q aggregate) each
/// morsel stream keeps one partial state and aggregate UDFs that
/// support spans take whole batches through AccumulateSpans (bare
/// DOUBLE columns zero-copy, expression arguments from VM registers).
/// With keys, such a UDF takes one AccumulateSpans call per group of
/// each batch, its rows gathered in row order (the per-segment models
/// of the paper's Table 5 and the K-means step).
/// A planner-attached maintained view (UseView) serves a global
/// statement from the ViewRegistry instead; when serving fails the
/// node degrades to its own scan.
///
/// Bit-exactness with the row path holds because (a) group-key Datums
/// are boxed from the same arithmetic the interpreter performs, (b)
/// groups are inserted per row in batch order (identical hash-table
/// iteration order), (c) per (group, aggregate) accumulation visits
/// rows in the same order, and AccumulateSpans is contractually
/// byte-identical to per-row Accumulate calls.
class VectorHashAggregateNode : public PlanNode {
 public:
  /// `child` is the columnar chain (ColumnarScan, possibly under a
  /// VectorFilter).
  VectorHashAggregateNode(PlanNodePtr child, BoundAggregation agg,
                          std::vector<CompiledExprPtr> key_progs,
                          std::vector<VectorAggSpec> spec_args,
                          std::vector<int> slot_to_col, bool has_having,
                          std::string having_text, size_t num_output,
                          ThreadPool* pool, const QueryContext* ctx = nullptr);

  const char* name() const override { return "VectorHashAggregate"; }
  std::string annotation() const override;
  size_t output_width() const override { return num_output_; }
  size_t num_streams() const override { return 1; }
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

  /// Runs the four phases to completion and returns the result rows.
  StatusOr<std::vector<storage::Row>> Compute() const;

  /// Serves this global aggregate from the maintained view `d` keys in
  /// `views` (the node fills in d's aggregation). Probes the registry
  /// for the EXPLAIN note; a probe that finds a stale entry (dropped
  /// now) leaves this statement on the node's own scan, annotated
  /// `view=stale`, and the next statement reseeds.
  void UseView(ViewRegistry* views, ViewDescriptor d);

  /// EXPLAIN view annotation (e.g. "view=ineligible (group-by)") set
  /// only when the planner runs with view maintenance enabled; empty
  /// keeps the default EXPLAIN output unchanged.
  void set_view_note(std::string note) { view_note_ = std::move(note); }

 private:
  /// ROW + MERGE + FINALIZE over the node's own scan.
  StatusOr<std::vector<storage::Row>> Scan() const;

  BoundAggregation agg_;
  std::vector<CompiledExprPtr> key_progs_;
  std::vector<VectorAggSpec> spec_args_;
  std::vector<int> slot_to_col_;
  bool has_having_;
  std::string having_text_;
  size_t num_output_;
  ThreadPool* pool_;
  const QueryContext* ctx_;
  ViewRegistry* views_ = nullptr;  // non-null: serve from view_
  ViewDescriptor view_;
  std::string view_note_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_VECTOR_HASH_AGGREGATE_NODE_H_
