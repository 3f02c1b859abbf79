#ifndef NLQ_ENGINE_EXEC_FILTER_NODE_H_
#define NLQ_ENGINE_EXEC_FILTER_NODE_H_

#include <string>
#include <vector>

#include "common/query_context.h"
#include "engine/exec/plan.h"
#include "engine/expr.h"

namespace nlq::engine::exec {

/// Residual WHERE filter of the row path: evaluates the bound
/// predicate over each batch (batch expression evaluation) and
/// compacts survivors in place. SQL semantics: a row passes when the
/// predicate is non-NULL and non-zero.
class FilterNode : public PlanNode {
 public:
  FilterNode(PlanNodePtr child, BoundExprPtr predicate,
             std::vector<std::string> conjunct_text,
             const QueryContext* ctx = nullptr);

  const char* name() const override { return "Filter"; }
  std::string annotation() const override;
  size_t output_width() const override { return child_->output_width(); }
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

 private:
  BoundExprPtr predicate_;
  std::vector<std::string> conjunct_text_;
  const QueryContext* ctx_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_FILTER_NODE_H_
