#include "engine/exec/filter_node.h"

#include <algorithm>
#include <utility>

namespace nlq::engine::exec {
namespace {

using storage::Datum;

class FilterStream : public ExecStream {
 public:
  FilterStream(ExecStreamPtr input, const BoundExpr* predicate,
               const QueryContext* ctx)
      : input_(std::move(input)), predicate_(predicate), ctx_(ctx) {}

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
        verdicts_.resize(m);
        Status error;
        predicate_->EvalBatch(out->rows() + begin, m, &error,
                              verdicts_.data());
        NLQ_RETURN_IF_ERROR(error);
        for (size_t i = 0; i < m; ++i) {
          const Datum& v = verdicts_[i];
          if (v.is_null() || v.AsDouble() == 0.0) keep_[begin + i] = 0;
        }
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
  const QueryContext* ctx_;
  std::vector<Datum> verdicts_;
  std::vector<uint8_t> keep_;
};

}  // namespace

FilterNode::FilterNode(PlanNodePtr child, BoundExprPtr predicate,
                       std::vector<std::string> conjunct_text,
                       const QueryContext* ctx)
    : PlanNode(std::move(child)),
      predicate_(std::move(predicate)),
      conjunct_text_(std::move(conjunct_text)),
      ctx_(ctx) {}

std::string FilterNode::annotation() const {
  std::string out;
  for (size_t i = 0; i < conjunct_text_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conjunct_text_[i];
  }
  return out;
}

StatusOr<ExecStreamPtr> FilterNode::OpenStreamImpl(size_t s) const {
  NLQ_ASSIGN_OR_RETURN(ExecStreamPtr input, child_->OpenStream(s));
  return ExecStreamPtr(
      new FilterStream(std::move(input), predicate_.get(), ctx_));
}

}  // namespace nlq::engine::exec
