#include "engine/exec/vector_filter_node.h"

#include <utility>

#include "common/metrics.h"
#include "common/strings.h"

namespace nlq::engine::exec {
namespace {

class VectorFilterStream : public ColumnStream {
 public:
  VectorFilterStream(ColumnStreamPtr input, const CompiledExpr* compiled,
                     const std::vector<int>* slot_to_col,
                     const QueryContext* ctx)
      : input_(std::move(input)),
        compiled_(compiled),
        slot_to_col_(slot_to_col),
        ctx_(ctx),
        vm_(ctx) {}

  StatusOr<bool> Next(ColumnSpanBatch* out) override {
    // Keep pulling until a batch has survivors — downstream consumers
    // rely on span batches never being empty.
    for (;;) {
      NLQ_ASSIGN_OR_RETURN(const bool more, input_->Next(out));
      if (!more) return false;
      const size_t n = out->rows;
      NLQ_RETURN_IF_ERROR(vm_.EvalSpans(*compiled_, *out, *slot_to_col_, n));
      keep_.assign(n, 1);
      vm_.AndResultIntoKeep(*compiled_, n, keep_.data());
      if (ctx_ != nullptr && ctx_->stats() != nullptr) {
        ctx_->stats()->rows_vectorized.fetch_add(n,
                                                 std::memory_order_relaxed);
      }
      if (CompactColumnSpans(out, keep_.data(), &scratch_) > 0) return true;
    }
  }

 private:
  ColumnStreamPtr input_;
  const CompiledExpr* compiled_;
  const std::vector<int>* slot_to_col_;
  const QueryContext* ctx_;
  ExprVM vm_;
  std::vector<uint8_t> keep_;
  std::vector<ScratchColumn> scratch_;
};

}  // namespace

VectorFilterNode::VectorFilterNode(PlanNodePtr child, CompiledExprPtr compiled,
                                   std::vector<int> slot_to_col,
                                   std::vector<std::string> conjunct_text,
                                   const QueryContext* ctx)
    : PlanNode(std::move(child)),
      compiled_(std::move(compiled)),
      slot_to_col_(std::move(slot_to_col)),
      conjunct_text_(std::move(conjunct_text)),
      ctx_(ctx) {}

std::string VectorFilterNode::annotation() const {
  std::string out;
  for (size_t i = 0; i < conjunct_text_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conjunct_text_[i];
  }
  out += StringPrintf("; compiled, %zu op(s)", compiled_->num_instructions());
  return out;
}

StatusOr<ExecStreamPtr> VectorFilterNode::OpenStreamImpl(size_t) const {
  return Status::Internal("VectorFilter produces column spans, not rows");
}

StatusOr<ColumnStreamPtr> VectorFilterNode::OpenColumnStreamImpl(
    size_t s) const {
  NLQ_ASSIGN_OR_RETURN(ColumnStreamPtr input, child_->OpenColumnStream(s));
  return ColumnStreamPtr(new VectorFilterStream(std::move(input),
                                                compiled_.get(), &slot_to_col_,
                                                ctx_));
}

}  // namespace nlq::engine::exec
