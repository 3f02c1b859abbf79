#include "engine/exec/hash_aggregate_node.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "engine/exec/aggregate_state.h"
#include "engine/exec/gather_node.h"
#include "storage/value.h"
#include "udf/heap_segment.h"

namespace nlq::engine::exec {
namespace {

using storage::Datum;
using storage::Row;

/// ROW phase over one child stream: drains it batch-by-batch into
/// `groups`. GROUP BY keys are evaluated column-at-a-time per chunk of
/// kCancelPollRows rows; aggregate arguments stay row-at-a-time. Wide
/// statistics queries carry hundreds of argument expressions over
/// multi-KB rows, so a column-major pass per argument would re-walk the
/// whole batch once per expression with a row-sized stride —
/// evaluating every argument while its row is cache-hot is measurably
/// faster. The context is polled between chunks, so a batch of
/// expensive rows (a slow scalar UDF) stays cancellable.
Status AccumulateStream(const PlanNode& child, size_t stream,
                        const BoundAggregation& agg, size_t batch_capacity,
                        const QueryContext* query_ctx, GroupMap* groups) {
  NLQ_ASSIGN_OR_RETURN(ExecStreamPtr source, child.OpenStream(stream));
  const std::vector<AggregateSpec>& specs = agg.specs;
  const size_t num_keys = agg.key_exprs.size();
  MemoryTracker* memory =
      query_ctx != nullptr ? query_ctx->memory() : nullptr;

  RowBatch batch(batch_capacity);
  std::vector<std::vector<Datum>> key_cols(num_keys);
  Row key(num_keys);
  std::vector<Datum> scratch;

  for (;;) {
    if (query_ctx != nullptr) NLQ_RETURN_IF_ERROR(query_ctx->CheckAlive());
    NLQ_ASSIGN_OR_RETURN(const bool more, source->Next(&batch));
    if (!more) break;
    const size_t n = batch.size();
    for (size_t begin = 0; begin < n; begin += kCancelPollRows) {
      if (begin > 0 && query_ctx != nullptr) {
        NLQ_RETURN_IF_ERROR(query_ctx->CheckAlive());
      }
      const size_t end = std::min(n, begin + kCancelPollRows);
      Status error;
      for (size_t k = 0; k < num_keys; ++k) {
        key_cols[k].resize(end - begin);
        agg.key_exprs[k]->EvalBatch(batch.rows() + begin, end - begin, &error,
                                    key_cols[k].data());
      }
      NLQ_RETURN_IF_ERROR(error);

      for (size_t r = begin; r < end; ++r) {
        for (size_t k = 0; k < num_keys; ++k) key[k] = key_cols[k][r - begin];
        NLQ_ASSIGN_OR_RETURN(AggState * state,
                             FindOrInitGroup(specs, key, memory, groups));
        EvalContext ctx;
        ctx.input = &batch.row(r);
        ctx.error = &error;
        for (size_t i = 0; i < specs.size(); ++i) {
          const AggregateSpec& spec = specs[i];
          if (spec.kind == AggregateSpec::Kind::kCountStar) {
            ++state->builtin[i].count;
            continue;
          }
          scratch.resize(spec.args.size());
          for (size_t a = 0; a < spec.args.size(); ++a) {
            scratch[a] = spec.args[a]->Eval(ctx);
          }
          NLQ_RETURN_IF_ERROR(error);
          if (spec.kind == AggregateSpec::Kind::kUdf) {
            NLQ_FAILPOINT("udf_accumulate");
            NLQ_RETURN_IF_ERROR(
                spec.udaf->Accumulate(state->udf_states[i], scratch));
            continue;
          }
          // SQL aggregates skip NULLs.
          if (!scratch[0].is_null()) {
            UpdateBuiltin(spec.kind, scratch[0].AsDouble(),
                          &state->builtin[i]);
          }
        }
      }
    }
  }
  return Status::OK();
}

class AggregateStream : public ExecStream {
 public:
  explicit AggregateStream(const HashAggregateNode* node) : node_(node) {}

  StatusOr<bool> Next(RowBatch* out) override {
    if (!materialized_) {
      NLQ_ASSIGN_OR_RETURN(std::vector<Row> rows, node_->Compute());
      replay_ = std::make_unique<VectorStream>(std::move(rows));
      materialized_ = true;
    }
    return replay_->Next(out);
  }

 private:
  const HashAggregateNode* node_;
  bool materialized_ = false;
  std::unique_ptr<VectorStream> replay_;
};

}  // namespace

HashAggregateNode::HashAggregateNode(PlanNodePtr child, BoundAggregation agg,
                                     bool has_having, std::string having_text,
                                     size_t num_output, ThreadPool* pool,
                                     size_t batch_capacity,
                                     const QueryContext* ctx)
    : PlanNode(std::move(child)),
      agg_(std::move(agg)),
      has_having_(has_having),
      having_text_(std::move(having_text)),
      num_output_(num_output),
      pool_(pool),
      batch_capacity_(batch_capacity),
      ctx_(ctx) {}

std::string HashAggregateNode::annotation() const {
  std::string out =
      StringPrintf("%zu group key(s), %zu aggregate(s)",
                   agg_.key_exprs.size(), agg_.specs.size());
  size_t udfs = 0;
  for (const auto& spec : agg_.specs) {
    if (spec.kind == AggregateSpec::Kind::kUdf) ++udfs;
  }
  if (udfs > 0) out += StringPrintf(", %zu aggregate UDF call(s)", udfs);
  if (has_having_) out += ", having: " + having_text_;
  out += StringPrintf("; merge: %zu partial state(s) per group, %zu worker(s)",
                      child_->num_streams(),
                      pool_ != nullptr ? pool_->num_workers() : 1);
  return out;
}

StatusOr<ExecStreamPtr> HashAggregateNode::OpenStreamImpl(size_t) const {
  return ExecStreamPtr(new AggregateStream(this));
}

StatusOr<std::vector<Row>> HashAggregateNode::Compute() const {
  // ROW phase: one hash table per child stream, drained in parallel.
  // On failure `partials` is destroyed whole — every partial group
  // state (and its UDF heap segments) is torn down with it.
  const size_t streams = child_->num_streams();
  std::vector<GroupMap> partials(streams);
  auto drain_one = [&](size_t s) -> Status {
    return AccumulateStream(*child_, s, agg_, batch_capacity_, ctx_,
                            &partials[s]);
  };
  if (streams == 1 || pool_ == nullptr) {
    for (size_t s = 0; s < streams; ++s) NLQ_RETURN_IF_ERROR(drain_one(s));
  } else {
    NLQ_RETURN_IF_ERROR(pool_->ParallelFor(streams, drain_one, ctx_));
  }

  return MergeAndFinalize(agg_, has_having_, num_output_, &partials,
                          ctx_ != nullptr ? ctx_->memory() : nullptr);
}

}  // namespace nlq::engine::exec
