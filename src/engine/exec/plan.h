#ifndef NLQ_ENGINE_EXEC_PLAN_H_
#define NLQ_ENGINE_EXEC_PLAN_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/metrics.h"
#include "common/status.h"
#include "engine/exec/column_stream.h"
#include "storage/row_batch.h"

namespace nlq::engine::exec {

using storage::RowBatch;

/// Rows a row-path operator (Filter, Project, HashAggregate), or one
/// bytecode UDF call, evaluates between two QueryContext polls, so a
/// batch of expensive rows — a slow scalar UDF — stays cancellable
/// mid-batch.
inline constexpr size_t kCancelPollRows = 256;

/// A pull cursor over one parallel stream of a plan node. Streams of
/// the same node are independent (one per driver partition below the
/// pipeline breaker) and may be driven from different worker threads.
class ExecStream {
 public:
  virtual ~ExecStream() = default;

  /// Clears `out` and fills it with the next batch of rows. Returns
  /// true while rows were produced, false once the stream is
  /// exhausted; errors surface as a non-OK status.
  virtual StatusOr<bool> Next(RowBatch* out) = 0;
};

using ExecStreamPtr = std::unique_ptr<ExecStream>;

/// A node of the physical plan tree. Nodes are immutable after
/// planning and hold no execution state — all mutable state lives in
/// the ExecStream cursors they open, so one plan can be executed by
/// several worker threads (one stream each) at once.
///
/// The tree is a chain: every node has at most one input child.
/// Operators with a second, bounded input (the materialized small
/// side of CrossJoinNode) own it as node data rather than as a child
/// subtree, mirroring the engine's driver-table/small-table split.
class PlanNode {
 public:
  explicit PlanNode(std::unique_ptr<PlanNode> child)
      : child_(std::move(child)) {}
  virtual ~PlanNode() = default;

  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  /// Operator name as printed by EXPLAIN ("ParallelScan", "Filter"...).
  virtual const char* name() const = 0;

  /// One-line EXPLAIN annotation, printed as `Name (annotation)`.
  virtual std::string annotation() const = 0;

  /// Number of slots in the rows this node produces.
  virtual size_t output_width() const = 0;

  /// Number of independent parallel streams this node exposes.
  /// Streaming operators inherit their child's fan-out; pipeline
  /// breakers (gather/aggregate/sort) expose exactly one.
  virtual size_t num_streams() const {
    return child_ == nullptr ? 1 : child_->num_streams();
  }

  /// Opens the pull cursor for stream `s` in [0, num_streams()).
  /// When an OperatorStats sink is attached (AttachQueryStats), the
  /// returned cursor is wrapped so every batch it yields is counted —
  /// the wrapping happens here, in the non-virtual shell, so no node
  /// implementation can forget to instrument itself.
  StatusOr<ExecStreamPtr> OpenStream(size_t s) const;

  /// Opens the span-batch cursor for stream `s` — the columnar
  /// pipeline's counterpart of OpenStream, implemented only by nodes
  /// that produce column spans (ColumnarScan, VectorFilter); the
  /// default reports the node as row-only. Instrumented exactly like
  /// OpenStream: rows_out counts span-batch rows.
  StatusOr<ColumnStreamPtr> OpenColumnStream(size_t s) const;

  const PlanNode* child() const { return child_.get(); }

  /// The per-operator stats sink, or nullptr when the query runs
  /// without stats collection.
  OperatorStats* stats() const { return stats_; }

 protected:
  /// The actual cursor factory each operator implements.
  virtual StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const = 0;

  /// Span-cursor factory for columnar-pipeline nodes.
  virtual StatusOr<ColumnStreamPtr> OpenColumnStreamImpl(size_t s) const;

  std::unique_ptr<PlanNode> child_;

 private:
  friend void AttachQueryStats(PlanNode* root, QueryStats* stats);

  OperatorStats* stats_ = nullptr;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

/// Registers every node of the chain with `stats` (root first, so the
/// snapshot's operator order matches EXPLAIN's line order) and points
/// each node at its OperatorStats sink. Pass stats == nullptr to
/// detach. Must be called before any stream is opened.
void AttachQueryStats(PlanNode* root, QueryStats* stats);

/// Renders the plan tree top-down with `└─` connectors:
///   Sort (1 key(s))
///   └─ Gather (4 streams)
///      └─ ParallelScan (X: 50 rows, 4 partitions, batch 1024)
std::string ExplainPlan(const PlanNode& root);

/// Renders the EXPLAIN ANALYZE view of an executed statement: the same
/// tree shape as ExplainPlan, each operator line suffixed with its
/// actuals, then a statement-level totals footer:
///   Sort (1 key(s)) [rows=50 batches=1 time=0.412ms self=0.101ms]
///   └─ ...
///   Totals: rows=50 pages_decoded=4 time=1.002ms
/// `time` is cumulative over the operator and everything below it,
/// summed across parallel streams (it can exceed wall clock); `self`
/// subtracts the child's cumulative time, clamped at zero.
std::string RenderAnalyzedPlan(const QueryStatsSnapshot& snapshot);

/// Replaces every `time=<number>ms` / `self=<number>ms` value with
/// `<T>` so EXPLAIN ANALYZE output can be golden-tested byte-for-byte
/// (timings are the only nondeterminism in the rendering).
std::string RedactTimings(std::string_view rendered);

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_PLAN_H_
