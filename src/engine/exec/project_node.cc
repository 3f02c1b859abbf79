#include "engine/exec/project_node.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace nlq::engine::exec {
namespace {

using storage::Datum;

class ProjectStream : public ExecStream {
 public:
  ProjectStream(ExecStreamPtr input,
                const std::vector<BoundExprPtr>* projections,
                const QueryContext* ctx)
      : input_(std::move(input)), projections_(projections), ctx_(ctx) {}

  StatusOr<bool> Next(RowBatch* out) override {
    out->Clear();
    if (in_batch_.capacity() == 0 && out->capacity() > 0) {
      in_batch_ = RowBatch(out->capacity());
    }
    NLQ_ASSIGN_OR_RETURN(const bool more, input_->Next(&in_batch_));
    if (!more) return false;
    const size_t n = in_batch_.size();
    const size_t width = projections_->size();
    for (size_t i = 0; i < n; ++i) out->AppendRow().resize(width);
    // Column-at-a-time per chunk, polling the context between chunks.
    for (size_t begin = 0; begin < n; begin += kCancelPollRows) {
      if (begin > 0 && ctx_ != nullptr) {
        NLQ_RETURN_IF_ERROR(ctx_->CheckAlive());
      }
      const size_t m = std::min(kCancelPollRows, n - begin);
      const storage::Row* rows = in_batch_.rows() + begin;
      Status error;
      column_.resize(m);
      for (size_t c = 0; c < width; ++c) {
        (*projections_)[c]->EvalBatch(rows, m, &error, column_.data());
        for (size_t i = 0; i < m; ++i) {
          out->row(begin + i)[c] = std::move(column_[i]);
        }
      }
      NLQ_RETURN_IF_ERROR(error);
    }
    return true;
  }

 private:
  ExecStreamPtr input_;
  const std::vector<BoundExprPtr>* projections_;
  const QueryContext* ctx_;
  RowBatch in_batch_{0};
  std::vector<Datum> column_;
};

}  // namespace

ProjectNode::ProjectNode(PlanNodePtr child,
                         std::vector<BoundExprPtr> projections,
                         const QueryContext* ctx)
    : PlanNode(std::move(child)),
      projections_(std::move(projections)),
      pass_through_(false),
      ctx_(ctx) {}

ProjectNode::ProjectNode(PlanNodePtr child)
    : PlanNode(std::move(child)), pass_through_(true) {}

std::string ProjectNode::annotation() const {
  if (pass_through_) return "*";
  return StringPrintf("%zu column(s)", projections_.size());
}

size_t ProjectNode::output_width() const {
  return pass_through_ ? child_->output_width() : projections_.size();
}

StatusOr<ExecStreamPtr> ProjectNode::OpenStreamImpl(size_t s) const {
  NLQ_ASSIGN_OR_RETURN(ExecStreamPtr input, child_->OpenStream(s));
  if (pass_through_) return input;  // forward child batches unchanged
  return ExecStreamPtr(
      new ProjectStream(std::move(input), &projections_, ctx_));
}

}  // namespace nlq::engine::exec
