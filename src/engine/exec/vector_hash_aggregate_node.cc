#include "engine/exec/vector_hash_aggregate_node.h"

#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"
#include "engine/exec/gather_node.h"

namespace nlq::engine::exec {
namespace {

using storage::Datum;
using storage::Row;

class VectorAggregateStream : public ExecStream {
 public:
  explicit VectorAggregateStream(const VectorHashAggregateNode* node)
      : node_(node) {}

  StatusOr<bool> Next(RowBatch* out) override {
    if (!materialized_) {
      NLQ_ASSIGN_OR_RETURN(std::vector<Row> rows, node_->Compute());
      replay_ = std::make_unique<VectorStream>(std::move(rows));
      materialized_ = true;
    }
    return replay_->Next(out);
  }

 private:
  const VectorHashAggregateNode* node_;
  bool materialized_ = false;
  std::unique_ptr<VectorStream> replay_;
};

/// ROW phase over one columnar stream. Grouped: keys run through the
/// VM per batch, groups resolve per row in batch order, and each row
/// gets its group's dense per-stream index (the order of first sight)
/// for the span ROW phase. Global: the stream's one state is created
/// on its first batch (like the row path's group) and takes every
/// batch whole.
Status AccumulateColumnStream(const PlanNode& child, size_t stream,
                              const BoundAggregation& agg,
                              const std::vector<CompiledExprPtr>& key_progs,
                              const std::vector<VectorAggSpec>& spec_args,
                              const std::vector<int>& slot_to_col,
                              const QueryContext* query_ctx,
                              GroupMap* groups) {
  NLQ_ASSIGN_OR_RETURN(ColumnStreamPtr source, child.OpenColumnStream(stream));
  const std::vector<AggregateSpec>& specs = agg.specs;
  const size_t num_keys = key_progs.size();
  MemoryTracker* memory =
      query_ctx != nullptr ? query_ctx->memory() : nullptr;

  ColumnSpanBatch batch;
  SpanScratch scratch(query_ctx);
  std::vector<std::vector<Datum>> key_cols(num_keys);
  Row key(num_keys);
  std::vector<AggState*> stream_groups;  // by dense per-stream index
  std::vector<uint32_t> group_of;        // per row: dense index

  for (;;) {
    if (query_ctx != nullptr) NLQ_RETURN_IF_ERROR(query_ctx->CheckAlive());
    NLQ_ASSIGN_OR_RETURN(const bool more, source->Next(&batch));
    if (!more) break;
    const size_t n = batch.rows;

    if (num_keys == 0) {
      NLQ_ASSIGN_OR_RETURN(AggState * state,
                           FindOrInitGroup(specs, key, memory, groups));
      NLQ_RETURN_IF_ERROR(AccumulateSpanBatch(specs, spec_args, slot_to_col,
                                              batch, state, &scratch));
    } else {
      for (size_t k = 0; k < num_keys; ++k) {
        NLQ_RETURN_IF_ERROR(
            scratch.vm.EvalSpans(*key_progs[k], batch, slot_to_col, n));
        key_cols[k].resize(n);
        scratch.vm.BoxResult(*key_progs[k], n, key_cols[k].data());
      }
      // Resolve groups per row, in batch order — the insertion
      // sequence (and therefore the hash table's iteration order at
      // FINALIZE) matches the row path's exactly.
      group_of.resize(n);
      for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < num_keys; ++k) key[k] = key_cols[k][r];
        const size_t known = groups->size();
        NLQ_ASSIGN_OR_RETURN(AggState * state,
                             FindOrInitGroup(specs, key, memory, groups));
        if (groups->size() != known) {
          state->stream_index = static_cast<uint32_t>(stream_groups.size());
          stream_groups.push_back(state);
        }
        group_of[r] = state->stream_index;
      }
      NLQ_RETURN_IF_ERROR(AccumulateGroupedSpanBatch(
          specs, spec_args, slot_to_col, batch, stream_groups,
          group_of.data(), &scratch));
    }

    if (query_ctx != nullptr && query_ctx->stats() != nullptr) {
      query_ctx->stats()->rows_vectorized.fetch_add(
          n, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

}  // namespace

VectorHashAggregateNode::VectorHashAggregateNode(
    PlanNodePtr child, BoundAggregation agg,
    std::vector<CompiledExprPtr> key_progs,
    std::vector<VectorAggSpec> spec_args, std::vector<int> slot_to_col,
    bool has_having, std::string having_text, size_t num_output,
    ThreadPool* pool, const QueryContext* ctx)
    : PlanNode(std::move(child)),
      agg_(std::move(agg)),
      key_progs_(std::move(key_progs)),
      spec_args_(std::move(spec_args)),
      slot_to_col_(std::move(slot_to_col)),
      has_having_(has_having),
      having_text_(std::move(having_text)),
      num_output_(num_output),
      pool_(pool),
      ctx_(ctx) {}

std::string VectorHashAggregateNode::annotation() const {
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
  size_t ops = 0;
  for (const CompiledExprPtr& prog : key_progs_) {
    ops += prog->num_instructions();
  }
  for (const VectorAggSpec& spec : spec_args_) {
    for (const CompiledExprPtr& prog : spec.progs) {
      ops += prog->num_instructions();
    }
  }
  out += StringPrintf("; compiled, %zu op(s)", ops);
  if (!view_note_.empty()) out += ", " + view_note_;
  return out;
}

StatusOr<ExecStreamPtr> VectorHashAggregateNode::OpenStreamImpl(size_t) const {
  return ExecStreamPtr(new VectorAggregateStream(this));
}

void VectorHashAggregateNode::UseView(ViewRegistry* views, ViewDescriptor d) {
  d.specs = &agg_.specs;
  d.args = &spec_args_;
  d.slot_to_col = &slot_to_col_;
  const ViewProbe probe = views->Probe(d);
  if (probe.invalidated) {
    view_note_ = "view=stale";
    return;
  }
  view_note_ =
      probe.registered
          ? StringPrintf("view=fresh delta=%llu of %llu row(s)",
                         static_cast<unsigned long long>(probe.delta_rows),
                         static_cast<unsigned long long>(probe.total_rows))
          : StringPrintf("view=stale (seeding %llu row(s))",
                         static_cast<unsigned long long>(probe.total_rows));
  views_ = views;
  view_ = std::move(d);
}

StatusOr<std::vector<Row>> VectorHashAggregateNode::Compute() const {
  if (views_ == nullptr) return Scan();
  StatusOr<Row> aggs = views_->Serve(view_, pool_, ctx_);
  if (aggs.ok()) {
    std::vector<Row> rows;
    NLQ_RETURN_IF_ERROR(
        EmitGroup(agg_, has_having_, num_output_, Row{}, *aggs, &rows));
    return rows;
  }
  const StatusCode code = aggs.status().code();
  if (code == StatusCode::kCancelled || code == StatusCode::kDeadlineExceeded) {
    return aggs.status();
  }
  // Degrade, never lie: the registry dropped the entry; this statement
  // runs the node's own scan (counted as a rebuild) and the next one
  // reseeds.
  if (ctx_ != nullptr && ctx_->stats() != nullptr) {
    ctx_->stats()->view_misses.fetch_add(1, std::memory_order_relaxed);
    ctx_->stats()->view_rebuilds.fetch_add(1, std::memory_order_relaxed);
  }
  return Scan();
}

StatusOr<std::vector<Row>> VectorHashAggregateNode::Scan() const {
  // ROW phase: one hash table per columnar stream, drained in
  // parallel. On failure `partials` is destroyed whole — every partial
  // group state (and its UDF heap segments) is torn down with it.
  const size_t streams = child_->num_streams();
  std::vector<GroupMap> partials(streams);
  auto drain_one = [&](size_t s) -> Status {
    return AccumulateColumnStream(*child_, s, agg_, key_progs_, spec_args_,
                                  slot_to_col_, ctx_, &partials[s]);
  };
  if (streams == 1 || pool_ == nullptr) {
    for (size_t s = 0; s < streams; ++s) NLQ_RETURN_IF_ERROR(drain_one(s));
  } else {
    NLQ_RETURN_IF_ERROR(pool_->ParallelFor(streams, drain_one, ctx_));
  }

  // MERGE + FINALIZE: stream partials fold in morsel-index order — the
  // grid depends only on the partition layout, so results are
  // bit-identical across thread counts (and match the row path, which
  // folds the same grid the same way).
  return MergeAndFinalize(agg_, has_having_, num_output_, &partials,
                          ctx_ != nullptr ? ctx_->memory() : nullptr);
}

}  // namespace nlq::engine::exec
