#include "engine/exec/view_registry.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;
using storage::Row;

void AppendDoubleBits(double v, std::string* out) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  *out += StringPrintf("%llx", static_cast<unsigned long long>(bits));
}

void AppendDatumKey(const Datum& v, std::string* out) {
  if (v.is_null()) {
    *out += "null";
    return;
  }
  switch (v.type()) {
    case DataType::kDouble:
      AppendDoubleBits(v.double_value(), out);
      break;
    case DataType::kInt64:
      *out += StringPrintf("%lld", static_cast<long long>(v.int_value()));
      break;
    case DataType::kVarchar:
      *out += v.string_value();
      break;
  }
}

/// Accumulates rows [begin, end) of `part` into `state` by draining the
/// very span stream a ColumnarScan morsel uses (same batches, same
/// filter compaction, fully-filtered batches skipped), feeding each
/// batch to the aggregate node's own ROW phase. Identical batches ⇒
/// identical FP operation sequence ⇒ identical bits.
Status AccumulateRange(const storage::Table& part, const ViewDescriptor& d,
                       AggState* state, uint64_t begin, uint64_t end,
                       const QueryContext* ctx, SpanScratch* scratch) {
  NLQ_FAILPOINT("view_maintenance");
  ColumnStreamPtr stream = OpenColumnarScanStream(
      &part, begin, end, d.slots, d.filters, d.batch_capacity, ctx);
  ColumnSpanBatch span;
  for (;;) {
    NLQ_ASSIGN_OR_RETURN(const bool more, stream->Next(&span));
    if (!more) return Status::OK();
    NLQ_RETURN_IF_ERROR(AccumulateSpanBatch(*d.specs, *d.args, *d.slot_to_col,
                                            span, state, scratch));
  }
}

}  // namespace

ViewRegistry::ViewRegistry(size_t max_views, uint64_t memory_limit_bytes)
    : max_views_(max_views), memory_(memory_limit_bytes) {}

std::string ViewRegistry::KeyOf(const ViewDescriptor& d) {
  std::string key = d.table_name;
  key += "|s:";
  for (const size_t slot : d.slots) key += StringPrintf("%zu,", slot);
  key += "|f:";
  for (const ColumnFilter& f : d.filters) {
    key += StringPrintf("%zu~%d~", f.col, static_cast<int>(f.op));
    AppendDoubleBits(f.value, &key);
    key += ";";
  }
  key += "|a:";
  for (size_t i = 0; i < d.specs->size(); ++i) {
    const AggregateSpec& spec = (*d.specs)[i];
    const VectorAggSpec& args = (*d.args)[i];
    key += StringPrintf("%d:", static_cast<int>(spec.kind));
    if (spec.udaf != nullptr) key += spec.udaf->name();
    key += "(";
    for (const Datum& c : args.const_args) {
      AppendDatumKey(c, &key);
      key += ",";
    }
    key += ")";
    for (const CompiledExprPtr& prog : args.progs) {
      // Length-prefixed: the serialized program is binary.
      key += StringPrintf("%zu:", prog->cache_key().size());
      key += prog->cache_key();
    }
    key += StringPrintf("%d;", static_cast<int>(spec.result_type));
  }
  key += StringPrintf("|m:%llu", static_cast<unsigned long long>(d.morsel_rows));
  return key;
}

bool ViewRegistry::EntryCurrent(const Entry& e, const ViewDescriptor& d) {
  if (e.table != d.table) return false;  // DROP + CREATE reused the name
  const size_t parts = d.table->num_partitions();
  if (e.epochs.size() != parts) return false;
  for (size_t p = 0; p < parts; ++p) {
    const storage::Table& part = d.table->partition(p);
    if (part.mutation_epoch() != e.epochs[p]) return false;
    if (part.num_rows() < e.watermarks[p]) return false;
  }
  return true;
}

ViewProbe ViewRegistry::Probe(const ViewDescriptor& d) {
  std::lock_guard<std::mutex> lock(mu_);
  ViewProbe probe;
  probe.total_rows = d.table->num_rows();
  auto it = views_.find(KeyOf(d));
  if (it == views_.end()) return probe;
  if (!EntryCurrent(*it->second, d)) {
    // Stale state can never be reused; drop it now so the next
    // statement re-seeds instead of re-probing a corpse.
    views_.erase(it);
    probe.invalidated = true;
    return probe;
  }
  probe.registered = true;
  for (size_t p = 0; p < d.table->num_partitions(); ++p) {
    probe.delta_rows +=
        d.table->partition(p).num_rows() - it->second->watermarks[p];
  }
  return probe;
}

Status ViewRegistry::AccumulateDeltas(Entry* e, const ViewDescriptor& d,
                                      ThreadPool* pool,
                                      const QueryContext* ctx,
                                      uint64_t* delta_rows) {
  const size_t parts = d.table->num_partitions();
  uint64_t delta = 0;
  for (size_t p = 0; p < parts; ++p) {
    delta += d.table->partition(p).num_rows() - e->watermarks[p];
  }
  *delta_rows = delta;

  auto refresh_one = [&](size_t p) -> Status {
    const storage::Table& part = d.table->partition(p);
    const uint64_t cur = part.num_rows();
    uint64_t wm = e->watermarks[p];
    if (cur == wm) return Status::OK();
    const uint64_t mr = d.morsel_rows;
    auto& plist = e->partials[p];
    SpanScratch scratch(ctx);
    while (wm < cur) {
      // The morsel the watermark sits in: extend its partial from the
      // watermark to the morsel end (or table end). Morsel boundaries
      // come from the fixed (partition, offset) grid, so the stored
      // partials line up one-to-one with the full-rescan grid; the
      // kernel's strictly sequential per-accumulator chains make
      // resuming mid-morsel bit-identical to one uninterrupted pass.
      const size_t mi = mr == 0 ? 0 : static_cast<size_t>(wm / mr);
      const uint64_t mend =
          mr == 0 ? cur
                  : std::min(cur, (static_cast<uint64_t>(mi) + 1) * mr);
      if (mi >= plist.size()) {
        plist.push_back(std::make_unique<AggState>());
        NLQ_RETURN_IF_ERROR(
            InitAggState(*d.specs, &memory_, plist.back().get()));
      }
      NLQ_RETURN_IF_ERROR(
          AccumulateRange(part, d, plist[mi].get(), wm, mend, ctx, &scratch));
      wm = mend;
    }
    e->watermarks[p] = cur;
    return Status::OK();
  };

  if (parts == 1 || pool == nullptr) {
    for (size_t p = 0; p < parts; ++p) NLQ_RETURN_IF_ERROR(refresh_one(p));
    return Status::OK();
  }
  return pool->ParallelFor(parts, refresh_one, ctx);
}

StatusOr<Row> ViewRegistry::FoldAndFinalize(const Entry& e,
                                             const ViewDescriptor& d) {
  // Fold a CLONE of the stored partials (never the stored state
  // itself: merging mutates the destination, and the registered
  // partials must survive for the next refresh). Clone-then-merge
  // replays the rescan's fold arithmetic exactly: the accumulator
  // starts as a byte copy of the first grid morsel's state, then the
  // remaining morsels fold in morsel-index order.
  AggState acc;
  bool have_first = false;
  for (const auto& plist : e.partials) {
    for (const auto& pm : plist) {
      if (!have_first) {
        NLQ_RETURN_IF_ERROR(
            CloneAggState(*d.specs, /*memory=*/nullptr, *pm, &acc));
        have_first = true;
        continue;
      }
      NLQ_RETURN_IF_ERROR(MergeAggState(*d.specs, *pm, &acc));
    }
  }
  if (!have_first) {
    // Empty table: the rescan finalizes one freshly Init-ed global
    // group; replicate it.
    NLQ_RETURN_IF_ERROR(InitAggState(*d.specs, /*memory=*/nullptr, &acc));
  }
  return FinalizeAggState(*d.specs, acc);
}

StatusOr<Row> ViewRegistry::Serve(const ViewDescriptor& d, ThreadPool* pool,
                                  const QueryContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryStats* stats = ctx != nullptr ? ctx->stats() : nullptr;
  const std::string key = KeyOf(d);

  auto it = views_.find(key);
  if (it != views_.end() && !EntryCurrent(*it->second, d)) {
    views_.erase(it);
    it = views_.end();
  }
  const bool seeded = it == views_.end();
  if (seeded) {
    auto entry = std::make_unique<Entry>();
    entry->table = d.table;
    entry->table_name = d.table_name;
    const size_t parts = d.table->num_partitions();
    entry->epochs.resize(parts);
    entry->watermarks.assign(parts, 0);
    entry->partials.resize(parts);
    for (size_t p = 0; p < parts; ++p) {
      entry->epochs[p] = d.table->partition(p).mutation_epoch();
    }
    it = views_.emplace(key, std::move(entry)).first;
  }
  it->second->last_served = ++lru_tick_;

  uint64_t delta_rows = 0;
  Status status =
      AccumulateDeltas(it->second.get(), d, pool, ctx, &delta_rows);
  StatusOr<Row> row = status.ok() ? FoldAndFinalize(*it->second, d)
                                  : StatusOr<Row>(status);
  if (!row.ok()) {
    // A half-applied delta leaves the stored partials unusable: drop
    // the entry; the caller degrades (or unwinds on cancellation).
    views_.erase(it);
    return row.status();
  }

  if (stats != nullptr) {
    if (seeded) {
      stats->view_misses.fetch_add(1, std::memory_order_relaxed);
      stats->view_rebuilds.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats->view_hits.fetch_add(1, std::memory_order_relaxed);
      stats->view_delta_rows.fetch_add(delta_rows,
                                       std::memory_order_relaxed);
    }
  }
  if (seeded) EvictIfNeeded();
  return row;
}

void ViewRegistry::InvalidateTable(const std::string& table_name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = views_.begin(); it != views_.end();) {
    if (it->second->table_name == table_name) {
      it = views_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t ViewRegistry::num_views() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

void ViewRegistry::EvictIfNeeded() {
  while (views_.size() > max_views_) {
    auto victim = views_.begin();
    for (auto it = views_.begin(); it != views_.end(); ++it) {
      if (it->second->last_served < victim->second->last_served) victim = it;
    }
    views_.erase(victim);
  }
}

}  // namespace nlq::engine::exec
