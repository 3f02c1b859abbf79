#ifndef NLQ_ENGINE_EXEC_VECTOR_FILTER_NODE_H_
#define NLQ_ENGINE_EXEC_VECTOR_FILTER_NODE_H_

#include <string>
#include <vector>

#include "common/query_context.h"
#include "engine/exec/bytecode.h"
#include "engine/exec/plan.h"

namespace nlq::engine::exec {

/// WHERE filter inside the columnar pipeline: runs a compiled
/// predicate program over each span batch and compacts survivors in
/// place (ColumnarScan → VectorFilter → VectorProject /
/// VectorHashAggregate). A row passes when the program's verdict is
/// non-NULL and non-zero — the row-path FilterNode's rule, so both
/// paths keep identical rows.
///
/// The planner ANDs every WHERE conjunct it could compile into one
/// program; conjuncts expressible as simple `column op literal`
/// comparisons are pushed into the scan instead and never reach here.
class VectorFilterNode : public PlanNode {
 public:
  /// `slot_to_col[slot]` maps each input slot the program references
  /// to its column index in the child's span batches.
  VectorFilterNode(PlanNodePtr child, CompiledExprPtr compiled,
                   std::vector<int> slot_to_col,
                   std::vector<std::string> conjunct_text,
                   const QueryContext* ctx = nullptr);

  const char* name() const override { return "VectorFilter"; }
  std::string annotation() const override;
  size_t output_width() const override { return child_->output_width(); }

  /// Column-only operator: the row-oriented cursor is unimplemented.
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;
  StatusOr<ColumnStreamPtr> OpenColumnStreamImpl(size_t s) const override;

 private:
  CompiledExprPtr compiled_;
  std::vector<int> slot_to_col_;
  std::vector<std::string> conjunct_text_;
  const QueryContext* ctx_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_VECTOR_FILTER_NODE_H_
