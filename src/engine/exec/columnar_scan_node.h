#ifndef NLQ_ENGINE_EXEC_COLUMNAR_SCAN_NODE_H_
#define NLQ_ENGINE_EXEC_COLUMNAR_SCAN_NODE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "engine/ast.h"
#include "engine/exec/morsel.h"
#include "engine/exec/plan.h"
#include "storage/partitioned_table.h"

namespace nlq::engine::exec {

/// One pushed-down simple comparison (`column <op> literal`) evaluated
/// directly on column spans. The literal is widened to double exactly
/// like Datum::AsDouble, which is also how the row-path interpreter
/// compares numeric operands — both paths keep or drop the same rows.
/// A NULL column value makes the comparison UNKNOWN and drops the row,
/// matching FilterNode.
struct ColumnFilter {
  size_t col = 0;               // index into the scan's projected columns
  BinaryOp op = BinaryOp::kEq;  // comparison op only (kEq..kGe)
  double value = 0.0;           // the literal operand
  std::string text;             // display form for EXPLAIN
};

/// Leaf of the columnar pipeline: scans a partitioned table's column
/// chunks as typed spans (no Datum boxing) and applies pushed-down
/// simple comparisons by span compaction. With no projected column
/// (COUNT(*), constants) its batches carry only row counts. Driven through
/// OpenColumnStream by the columnar consumers (VectorFilter,
/// VectorProject, VectorHashAggregate); the row-oriented OpenStream is
/// deliberately unimplemented.
///
/// Streams are morsels from the same grid ParallelScanNode uses (same
/// `morsel_rows`), so the row and columnar paths have identical stream
/// structure and their stream-order merges stay mutually
/// byte-identical (see tests/columnar_equivalence_test.cc). Opening a
/// stream touches no shared state, so streams drain in parallel. Batch
/// spans alias the chunk columns (resident chunks in place, spilled
/// ones in the cursor's decoded image); filters compact them in order.
/// A maintained view resumes the scan (ResumeAt), so a view-served
/// statement reads only the appended rows, through these same streams.
class ColumnarScanNode : public PlanNode {
 public:
  ColumnarScanNode(const storage::PartitionedTable* table,
                   std::string table_name, std::vector<size_t> slots,
                   std::vector<ColumnFilter> filters, size_t batch_capacity,
                   uint64_t morsel_rows = kDefaultMorselRows,
                   const QueryContext* ctx = nullptr);

  const char* name() const override { return "ColumnarScan"; }
  std::string annotation() const override;
  size_t output_width() const override { return slots_.size(); }
  size_t num_streams() const override { return grid_.size(); }

  /// The columnar scan feeds its consumers spans, not rows.
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

  StatusOr<ColumnStreamPtr> OpenColumnStreamImpl(size_t s) const override;

  /// The morsel grid: stream s reads rows [grid()[s].begin,
  /// grid()[s].end) of partition grid()[s].partition.
  const std::vector<Morsel>& grid() const { return grid_; }

  /// Replaces the grid by `grid`: the same morsels, each starting at the
  /// first row a maintained view has not folded yet (ViewRegistry::Take).
  void ResumeAt(std::vector<Morsel> grid) { grid_ = std::move(grid); }

  /// Schema slot indices of the projected columns, in span order.
  const std::vector<size_t>& slots() const { return slots_; }
  const storage::Schema& schema() const { return table_->schema(); }

  /// EXPLAIN text naming the one-row tables whose columns the
  /// pipeline above binds as constants; empty when there are none.
  void set_broadcast_note(std::string note) {
    broadcast_note_ = std::move(note);
  }

 private:
  const storage::PartitionedTable* table_;
  std::string table_name_;
  std::vector<size_t> slots_;
  std::vector<ColumnFilter> filters_;
  size_t batch_capacity_;
  uint64_t morsel_rows_;
  const QueryContext* ctx_;
  std::vector<Morsel> grid_;
  std::string broadcast_note_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_COLUMNAR_SCAN_NODE_H_
