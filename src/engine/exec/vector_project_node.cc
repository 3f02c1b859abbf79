#include "engine/exec/vector_project_node.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"

namespace nlq::engine::exec {
namespace {

using storage::Datum;

class VectorProjectStream : public ExecStream {
 public:
  VectorProjectStream(ColumnStreamPtr input,
                      const std::vector<CompiledExprPtr>* programs,
                      const std::vector<int>* slot_to_col,
                      const QueryContext* ctx)
      : input_(std::move(input)),
        programs_(programs),
        slot_to_col_(slot_to_col),
        ctx_(ctx),
        cols_(programs->size()),
        vm_(ctx) {}

  StatusOr<bool> Next(RowBatch* out) override {
    out->Clear();
    if (pos_ >= buffered_) {
      NLQ_ASSIGN_OR_RETURN(const bool more, input_->Next(&batch_));
      if (!more) return false;
      const size_t n = batch_.rows;
      // Box each program's result right after evaluating it: programs
      // number their registers independently, so the next evaluation
      // reuses the VM's register file.
      for (size_t c = 0; c < programs_->size(); ++c) {
        const CompiledExpr& prog = *(*programs_)[c];
        NLQ_RETURN_IF_ERROR(vm_.EvalSpans(prog, batch_, *slot_to_col_, n));
        cols_[c].resize(n);
        vm_.BoxResult(prog, n, cols_[c].data());
      }
      if (ctx_ != nullptr && ctx_->stats() != nullptr) {
        ctx_->stats()->rows_vectorized.fetch_add(n,
                                                 std::memory_order_relaxed);
      }
      buffered_ = n;
      pos_ = 0;
    }
    const size_t take = std::min(buffered_ - pos_, out->capacity());
    const size_t width = programs_->size();
    for (size_t i = 0; i < take; ++i) {
      storage::Row& row = out->AppendRow();
      row.resize(width);
      for (size_t c = 0; c < width; ++c) row[c] = cols_[c][pos_ + i];
    }
    pos_ += take;
    return true;
  }

 private:
  ColumnStreamPtr input_;
  const std::vector<CompiledExprPtr>* programs_;
  const std::vector<int>* slot_to_col_;
  const QueryContext* ctx_;
  ColumnSpanBatch batch_;
  std::vector<std::vector<Datum>> cols_;
  size_t buffered_ = 0;
  size_t pos_ = 0;
  ExprVM vm_;
};

}  // namespace

VectorProjectNode::VectorProjectNode(PlanNodePtr child,
                                     std::vector<CompiledExprPtr> programs,
                                     std::vector<int> slot_to_col,
                                     const QueryContext* ctx)
    : PlanNode(std::move(child)),
      programs_(std::move(programs)),
      slot_to_col_(std::move(slot_to_col)),
      ctx_(ctx) {}

std::string VectorProjectNode::annotation() const {
  size_t ops = 0;
  for (const CompiledExprPtr& prog : programs_) ops += prog->num_instructions();
  return StringPrintf("%zu column(s); compiled, %zu op(s)", programs_.size(),
                      ops);
}

StatusOr<ExecStreamPtr> VectorProjectNode::OpenStreamImpl(size_t s) const {
  NLQ_ASSIGN_OR_RETURN(ColumnStreamPtr input, child_->OpenColumnStream(s));
  return ExecStreamPtr(new VectorProjectStream(std::move(input), &programs_,
                                               &slot_to_col_, ctx_));
}

}  // namespace nlq::engine::exec
