#ifndef NLQ_ENGINE_EXEC_VECTOR_PROJECT_NODE_H_
#define NLQ_ENGINE_EXEC_VECTOR_PROJECT_NODE_H_

#include <string>
#include <vector>

#include "common/query_context.h"
#include "engine/exec/bytecode.h"
#include "engine/exec/plan.h"

namespace nlq::engine::exec {

/// SELECT-list projection at the top of the columnar pipeline: every
/// output column is a compiled program evaluated over the child's span
/// batches. Its column streams serve the programs' results as a span
/// batch — what a statement that writes a table (CREATE TABLE … AS,
/// INSERT … SELECT) drains, lanes copied with no boxing. Its row
/// streams box that same batch into Datum rows, so this node is where
/// a SELECT crosses back into the row world (its consumer is a Gather
/// or the executor itself).
///
/// A span batch can be larger than the consumer's row batch (the scan
/// and the executor size their batches independently), so one
/// evaluated batch is boxed across several row Next() calls.
class VectorProjectNode : public PlanNode {
 public:
  VectorProjectNode(PlanNodePtr child, std::vector<CompiledExprPtr> programs,
                    std::vector<int> slot_to_col,
                    const QueryContext* ctx = nullptr);

  const char* name() const override { return "VectorProject"; }
  std::string annotation() const override;
  size_t output_width() const override { return programs_.size(); }
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

 protected:
  StatusOr<ColumnStreamPtr> OpenColumnStreamImpl(size_t s) const override;

 private:
  std::vector<CompiledExprPtr> programs_;
  std::vector<int> slot_to_col_;
  const QueryContext* ctx_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_VECTOR_PROJECT_NODE_H_
