#include "engine/exec/filter_node.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"

namespace nlq::engine::exec {
namespace {

using storage::Datum;

class FilterStream : public ExecStream {
 public:
  FilterStream(ExecStreamPtr input, const BoundExpr* predicate,
               const CompiledExpr* compiled, const QueryContext* ctx)
      : input_(std::move(input)),
        predicate_(predicate),
        compiled_(compiled),
        ctx_(ctx) {}

  StatusOr<bool> Next(RowBatch* out) override {
    // Pull child batches directly into `out` and compact survivors in
    // place until at least one row passes (or the input is drained).
    for (;;) {
      NLQ_ASSIGN_OR_RETURN(const bool more, input_->Next(out));
      if (!more) return false;
      const size_t n = out->size();
      keep_.assign(n, 1);
      // Chunked evaluation, polling the context between chunks.
      for (size_t begin = 0; begin < n; begin += kCancelPollRows) {
        if (begin > 0 && ctx_ != nullptr) {
          NLQ_RETURN_IF_ERROR(ctx_->CheckAlive());
        }
        const size_t m = std::min(kCancelPollRows, n - begin);
        const storage::Row* rows = out->rows() + begin;
        uint8_t* keep = keep_.data() + begin;
        if (compiled_ != nullptr) {
          vm_.EvalRows(*compiled_, rows, m);
          vm_.AndResultIntoKeep(*compiled_, m, keep);
          continue;
        }
        verdicts_.resize(m);
        Status error;
        predicate_->EvalBatch(rows, m, &error, verdicts_.data());
        NLQ_RETURN_IF_ERROR(error);
        for (size_t i = 0; i < m; ++i) {
          const Datum& v = verdicts_[i];
          if (v.is_null() || v.AsDouble() == 0.0) keep[i] = 0;
        }
      }
      if (compiled_ != nullptr && ctx_ != nullptr && ctx_->stats() != nullptr) {
        ctx_->stats()->rows_vectorized.fetch_add(n, std::memory_order_relaxed);
      }
      size_t kept = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!keep_[i]) continue;
        if (kept != i) std::swap(out->row(kept), out->row(i));
        ++kept;
      }
      out->Truncate(kept);
      if (kept > 0) return true;
    }
  }

 private:
  ExecStreamPtr input_;
  const BoundExpr* predicate_;
  const CompiledExpr* compiled_;
  const QueryContext* ctx_;
  std::vector<Datum> verdicts_;
  std::vector<uint8_t> keep_;
  ExprVM vm_;
};

}  // namespace

FilterNode::FilterNode(PlanNodePtr child, BoundExprPtr predicate,
                       std::vector<std::string> conjunct_text,
                       CompiledExprPtr compiled, const QueryContext* ctx)
    : PlanNode(std::move(child)),
      predicate_(std::move(predicate)),
      conjunct_text_(std::move(conjunct_text)),
      compiled_(std::move(compiled)),
      ctx_(ctx) {}

std::string FilterNode::annotation() const {
  std::string out;
  for (size_t i = 0; i < conjunct_text_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conjunct_text_[i];
  }
  if (compiled_ != nullptr) {
    out += StringPrintf("; compiled, %zu op(s)", compiled_->num_instructions());
  }
  return out;
}

StatusOr<ExecStreamPtr> FilterNode::OpenStreamImpl(size_t s) const {
  NLQ_ASSIGN_OR_RETURN(ExecStreamPtr input, child_->OpenStream(s));
  return ExecStreamPtr(new FilterStream(std::move(input), predicate_.get(),
                                        compiled_.get(), ctx_));
}

}  // namespace nlq::engine::exec
