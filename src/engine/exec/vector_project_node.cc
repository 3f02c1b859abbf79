#include "engine/exec/vector_project_node.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"
#include "storage/column_vector.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;

/// Evaluates every program over one input span batch and serves the
/// results as a span batch. Programs number their registers
/// independently, so each result is copied out of the shared register
/// file before the next program runs.
class VectorProjectColumnStream : public ColumnStream {
 public:
  VectorProjectColumnStream(ColumnStreamPtr input,
                            const std::vector<CompiledExprPtr>* programs,
                            const std::vector<int>* slot_to_col,
                            const QueryContext* ctx)
      : input_(std::move(input)),
        programs_(programs),
        slot_to_col_(slot_to_col),
        ctx_(ctx),
        results_(programs->size()),
        vm_(ctx) {}

  StatusOr<bool> Next(ColumnSpanBatch* out) override {
    NLQ_ASSIGN_OR_RETURN(const bool more, input_->Next(&batch_));
    if (!more) return false;
    const size_t n = batch_.rows;
    const size_t width = programs_->size();
    out->rows = n;
    out->doubles.assign(width, nullptr);
    out->ints.assign(width, nullptr);
    out->null_bits.assign(width, nullptr);
    for (size_t c = 0; c < width; ++c) {
      const CompiledExpr& prog = *(*programs_)[c];
      NLQ_RETURN_IF_ERROR(vm_.EvalSpans(prog, batch_, *slot_to_col_, n));
      ExprVM::Reg& reg = results_[c];
      vm_.CopyResult(prog, n, &reg);
      if (prog.result_type() == DataType::kDouble) {
        out->doubles[c] = reg.d.data();
      } else {
        out->ints[c] = reg.i.data();
      }
      if (reg.has_nulls) out->null_bits[c] = reg.nulls.data();
    }
    if (ctx_ != nullptr && ctx_->stats() != nullptr) {
      ctx_->stats()->rows_vectorized.fetch_add(n, std::memory_order_relaxed);
    }
    return true;
  }

 private:
  ColumnStreamPtr input_;
  const std::vector<CompiledExprPtr>* programs_;
  const std::vector<int>* slot_to_col_;
  const QueryContext* ctx_;
  ColumnSpanBatch batch_;
  std::vector<ExprVM::Reg> results_;  // one per program
  ExprVM vm_;
};

/// Boxes the column stream's batches into rows (NULL bits become typed
/// SQL NULLs), one evaluated batch across as many row batches as it
/// takes.
class VectorProjectStream : public ExecStream {
 public:
  explicit VectorProjectStream(ColumnStreamPtr columns)
      : columns_(std::move(columns)) {}

  StatusOr<bool> Next(RowBatch* out) override {
    out->Clear();
    if (pos_ >= batch_.rows) {
      NLQ_ASSIGN_OR_RETURN(const bool more, columns_->Next(&batch_));
      if (!more) return false;
      pos_ = 0;
    }
    const size_t take = std::min(batch_.rows - pos_, out->capacity());
    const size_t width = batch_.doubles.size();
    for (size_t i = pos_; i < pos_ + take; ++i) {
      storage::Row& row = out->AppendRow();
      row.resize(width);
      for (size_t c = 0; c < width; ++c) {
        const double* d = batch_.doubles[c];
        const uint64_t* nulls = batch_.null_bits[c];
        if (nulls != nullptr && storage::NullBitGet(nulls, i)) {
          row[c] = Datum::Null(d != nullptr ? DataType::kDouble
                                            : DataType::kInt64);
        } else if (d != nullptr) {
          row[c] = Datum::Double(d[i]);
        } else {
          row[c] = Datum::Int64(batch_.ints[c][i]);
        }
      }
    }
    pos_ += take;
    return true;
  }

 private:
  ColumnStreamPtr columns_;
  ColumnSpanBatch batch_;
  size_t pos_ = 0;
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

StatusOr<ColumnStreamPtr> VectorProjectNode::OpenColumnStreamImpl(
    size_t s) const {
  NLQ_ASSIGN_OR_RETURN(ColumnStreamPtr input, child_->OpenColumnStream(s));
  return ColumnStreamPtr(new VectorProjectColumnStream(
      std::move(input), &programs_, &slot_to_col_, ctx_));
}

StatusOr<ExecStreamPtr> VectorProjectNode::OpenStreamImpl(size_t s) const {
  // The uninstrumented column stream: the row stream is what the stats
  // sink counts.
  NLQ_ASSIGN_OR_RETURN(ColumnStreamPtr columns, OpenColumnStreamImpl(s));
  return ExecStreamPtr(new VectorProjectStream(std::move(columns)));
}

}  // namespace nlq::engine::exec
