#ifndef NLQ_ENGINE_EXEC_VECTOR_HASH_AGGREGATE_NODE_H_
#define NLQ_ENGINE_EXEC_VECTOR_HASH_AGGREGATE_NODE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/threadpool.h"
#include "engine/exec/aggregate_state.h"
#include "engine/exec/bytecode.h"
#include "engine/exec/columnar_scan_node.h"
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
/// A planner-attached maintained view (UseView) resumes this same scan:
/// the registry holds the node's per-morsel partials from earlier
/// statements, each morsel's stream opens at the row its partial
/// reaches (a covered morsel is not opened), the ROW phase continues
/// the partial, MERGE + FINALIZE read every partial in place in grid
/// order, and the extended partials are stored back. The answer always
/// comes from this scan; storing is best effort.
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

  /// A plan that never ran (EXPLAIN) gives back the partials its view
  /// took to extend.
  ~VectorHashAggregateNode() override;

  const char* name() const override { return "VectorHashAggregate"; }
  std::string annotation() const override;
  size_t output_width() const override { return num_output_; }
  size_t num_streams() const override { return 1; }
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

  /// Runs the four phases to completion and returns the result rows;
  /// with a view, stores the extended partials.
  StatusOr<std::vector<storage::Row>> Compute() const;

  /// Maintains this global aggregate as the view `d` in `views`: takes
  /// the entry (the statement's one registry lookup), sets the EXPLAIN
  /// note, and resumes `scan` — this node's ColumnarScan child — at the
  /// rows the stored partials reach. A stale entry (dropped now) leaves
  /// this statement unmaintained, annotated `view=stale`, and the next
  /// statement reseeds.
  void UseView(ViewRegistry* views, ViewDescriptor d, ColumnarScanNode* scan);

  /// EXPLAIN view annotation (e.g. "view=ineligible (group-by)") set
  /// only when the planner runs with view maintenance enabled; empty
  /// keeps the default EXPLAIN output unchanged.
  void set_view_note(std::string note) { view_note_ = std::move(note); }

 private:
  /// MERGE + FINALIZE of a maintained view: folds every morsel's
  /// partial in place and stores the ones this statement scanned.
  StatusOr<std::vector<storage::Row>> MergeAndStore(
      ViewLease lease, std::vector<GroupMap>* partials) const;

  BoundAggregation agg_;
  std::vector<CompiledExprPtr> key_progs_;
  std::vector<VectorAggSpec> spec_args_;
  std::vector<int> slot_to_col_;
  bool has_having_;
  std::string having_text_;
  size_t num_output_;
  ThreadPool* pool_;
  const QueryContext* ctx_;
  ViewRegistry* views_ = nullptr;  // non-null: maintain view_
  ViewDescriptor view_;
  /// The view's partials, consumed by the one Compute: the ones the
  /// statement extends leave the plan with it.
  mutable std::optional<ViewLease> lease_;
  std::string view_note_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_VECTOR_HASH_AGGREGATE_NODE_H_
