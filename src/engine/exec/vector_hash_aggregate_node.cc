#include "engine/exec/vector_hash_aggregate_node.h"

#include <algorithm>
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

VectorHashAggregateNode::~VectorHashAggregateNode() {
  if (!lease_.has_value()) return;
  const auto& taken = lease_->taken;
  if (std::any_of(taken.begin(), taken.end(),
                  [](const auto& state) { return state != nullptr; })) {
    views_->Store(view_, std::move(*lease_));
  }
}

std::string VectorHashAggregateNode::annotation() const {
  std::string out =
      StringPrintf("%zu group key(s), %zu aggregate(s)",
                   agg_.key_exprs.size(), agg_.specs.size());
  size_t udfs = 0;
  size_t lanes = 0;
  for (size_t i = 0; i < agg_.specs.size(); ++i) {
    const AggregateSpec& spec = agg_.specs[i];
    if (spec.kind == AggregateSpec::Kind::kUdf) ++udfs;
    if (agg_.key_exprs.empty() && TakesColumnLanes(spec, spec_args_[i])) {
      ++lanes;
    }
  }
  if (udfs > 0) out += StringPrintf(", %zu aggregate UDF call(s)", udfs);
  if (lanes > 0) out += StringPrintf(", %zu on column lanes", lanes);
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

void VectorHashAggregateNode::UseView(ViewRegistry* views, ViewDescriptor d,
                                      ColumnarScanNode* scan) {
  ViewLease lease = views->Take(d, scan->grid());
  if (lease.invalidated) {
    view_note_ = "view=stale";
    return;
  }
  view_note_ =
      lease.registered
          ? StringPrintf("view=fresh delta=%llu of %llu row(s)",
                         static_cast<unsigned long long>(lease.delta_rows),
                         static_cast<unsigned long long>(lease.total_rows))
          : StringPrintf("view=stale (seeding %llu row(s))",
                         static_cast<unsigned long long>(lease.total_rows));
  scan->ResumeAt(lease.grid);
  views_ = views;
  view_ = std::move(d);
  lease_ = std::move(lease);
}

StatusOr<std::vector<Row>> VectorHashAggregateNode::Compute() const {
  std::optional<ViewLease> lease = std::move(lease_);
  lease_.reset();
  // ROW phase: one hash table per columnar stream, drained in
  // parallel. On failure `partials` is destroyed whole — every partial
  // group state (and its UDF heap segments) is torn down with it. With
  // a view, a morsel its stored partial covers is not opened, and one
  // it covers in part continues that partial.
  const size_t streams = child_->num_streams();
  std::vector<GroupMap> partials(streams);
  auto drain_one = [&](size_t s) -> Status {
    if (lease.has_value()) {
      if (lease->grid[s].rows() == 0) return Status::OK();
      if (lease->taken[s] != nullptr) {
        partials[s].emplace(Row{}, std::move(*lease->taken[s]));
      }
    }
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
  if (lease.has_value()) return MergeAndStore(std::move(*lease), &partials);
  return MergeAndFinalize(agg_, has_having_, num_output_, &partials,
                          ctx_ != nullptr ? ctx_->memory() : nullptr);
}

StatusOr<std::vector<Row>> VectorHashAggregateNode::MergeAndStore(
    ViewLease lease, std::vector<GroupMap>* partials) const {
  // Every morsel's partial after the ROW phase: what its stream
  // accumulated (null when no row reached it), or the stored one for a
  // morsel that was not opened. A scanned morsel's partial now reaches
  // the morsel's end.
  const size_t streams = partials->size();
  std::vector<const AggState*> merged(streams);
  for (size_t s = 0; s < streams; ++s) {
    Morsel& morsel = lease.grid[s];
    if (morsel.rows() == 0) {
      merged[s] = lease.stored[s].get();
      continue;
    }
    GroupMap& groups = (*partials)[s];
    lease.taken[s] =
        groups.empty()
            ? nullptr
            : std::make_shared<AggState>(std::move(groups.begin()->second));
    merged[s] = lease.taken[s].get();
    morsel.begin = morsel.end;
  }
  NLQ_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      MergeAndFinalize(agg_, has_having_, num_output_, merged,
                       ctx_ != nullptr ? ctx_->memory() : nullptr));
  // Only a statement that succeeded stores.
  if (ctx_ != nullptr) NLQ_RETURN_IF_ERROR(ctx_->CheckAlive());
  if (ctx_ != nullptr && ctx_->stats() != nullptr) {
    QueryStats* stats = ctx_->stats();
    if (lease.registered) {
      stats->view_hits.fetch_add(1, std::memory_order_relaxed);
      stats->view_delta_rows.fetch_add(lease.delta_rows,
                                       std::memory_order_relaxed);
    } else {
      stats->view_misses.fetch_add(1, std::memory_order_relaxed);
      stats->view_rebuilds.fetch_add(1, std::memory_order_relaxed);
    }
  }
  views_->Store(view_, std::move(lease));
  return rows;
}

}  // namespace nlq::engine::exec
