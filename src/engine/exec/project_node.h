#ifndef NLQ_ENGINE_EXEC_PROJECT_NODE_H_
#define NLQ_ENGINE_EXEC_PROJECT_NODE_H_

#include <string>
#include <vector>

#include "common/query_context.h"
#include "engine/exec/plan.h"
#include "engine/expr.h"

namespace nlq::engine::exec {

/// SELECT-list projection of the row path. Each output column's
/// expression is evaluated column-at-a-time over the batch
/// (EvalBatch), hoisting the expression-tree dispatch out of the
/// per-row loop.
///
/// `SELECT *` uses pass-through mode: input rows are forwarded
/// unchanged (star mixed with expressions is not supported, matching
/// the previous executor).
class ProjectNode : public PlanNode {
 public:
  /// Projection form.
  ProjectNode(PlanNodePtr child, std::vector<BoundExprPtr> projections,
              const QueryContext* ctx = nullptr);

  /// Pass-through (`SELECT *`) form.
  explicit ProjectNode(PlanNodePtr child);

  const char* name() const override { return "Project"; }
  std::string annotation() const override;
  size_t output_width() const override;
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

 private:
  std::vector<BoundExprPtr> projections_;
  bool pass_through_;
  const QueryContext* ctx_ = nullptr;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_PROJECT_NODE_H_
