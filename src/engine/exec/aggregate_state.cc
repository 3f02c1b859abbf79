#include "engine/exec/aggregate_state.h"

#include <cstdint>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "engine/exec/gather_node.h"
#include "storage/column_vector.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;
using storage::NullBitGet;
using storage::Row;

bool LaneNull(const ArgLane& x, size_t r) {
  return x.nulls != nullptr && NullBitGet(x.nulls, r);
}

double LaneDouble(const ArgLane& x, size_t r) {
  return x.d != nullptr ? x.d[r] : static_cast<double>(x.i[r]);
}

/// Boxes lane value `r` exactly like BoxRegValue (NULLs become typed
/// SQL NULLs).
Datum LaneDatum(const ArgLane& x, size_t r) {
  const DataType type = x.d != nullptr ? DataType::kDouble : DataType::kInt64;
  if (LaneNull(x, r)) return Datum::Null(type);
  return x.d != nullptr ? Datum::Double(x.d[r]) : Datum::Int64(x.i[r]);
}

ArgLane RegLane(const ExprVM::Reg& reg, DataType type) {
  ArgLane lane;
  if (type == DataType::kDouble) {
    lane.d = reg.d.data();
  } else {
    lane.i = reg.i.data();
  }
  if (reg.has_nulls) lane.nulls = reg.nulls.data();
  return lane;
}

/// An argument that is one bare column is read in place from the
/// batch: fills `lane` and returns true. False for any other argument.
bool ColumnLane(const ArgColumns& cols, const ColumnSpanBatch& batch,
                const std::vector<int>& slot_to_col, ArgLane* lane) {
  if (cols.kind != ArgColumns::Kind::kColumn) return false;
  const int c = slot_to_col[cols.a];
  lane->d = batch.doubles[c];
  lane->i = batch.ints[c];
  lane->nulls = batch.null_bits[c];
  return true;
}

/// Lane of a builtin's single argument; a VM-evaluated lane aliases a
/// register until the next evaluation.
StatusOr<ArgLane> BuiltinLane(const VectorAggSpec& args,
                              const ColumnSpanBatch& batch,
                              const std::vector<int>& slot_to_col,
                              ExprVM* vm) {
  ArgLane lane;
  if (ColumnLane(args.columns[0], batch, slot_to_col, &lane)) return lane;
  const CompiledExpr& prog = *args.progs[0];
  NLQ_RETURN_IF_ERROR(vm->EvalSpans(prog, batch, slot_to_col, batch.rows));
  return RegLane(vm->result(prog), prog.result_type());
}

/// Takes builtin `state`'s batch onto column lanes when its columns
/// (`cols`, which TakesColumnLanes accepted) carry no null bitmap:
/// COUNT adds the row count at once, SUM/AVG queue a LaneTerm for
/// AccumulateLaneTerms. False, touching nothing, otherwise.
bool AddLaneTerm(AggregateSpec::Kind kind, const ArgColumns& cols,
                 const ColumnSpanBatch& batch,
                 const std::vector<int>& slot_to_col, BuiltinAggState* state,
                 SpanScratch* s) {
  const int a = slot_to_col[cols.a];
  const int b = cols.kind == ArgColumns::Kind::kProduct ? slot_to_col[cols.b]
                                                        : -1;
  if (batch.null_bits[a] != nullptr ||
      (b >= 0 && batch.null_bits[b] != nullptr)) {
    return false;
  }
  if (kind == AggregateSpec::Kind::kCount) {
    state->count += static_cast<int64_t>(batch.rows);
    state->seen = true;
    return true;
  }
  s->lane_terms.push_back(
      {batch.doubles[a], b >= 0 ? batch.doubles[b] : nullptr, state});
  return true;
}

constexpr size_t kLaneTile = 8;

/// Up to kLaneTile lane terms of one kind (bare columns, or products
/// when kProduct) over `rows` rows in one pass with an accumulator
/// each: it starts from the term's stored sum and adds the term's rows
/// in row order, a multiply then an add, so the state ends with the
/// bits per-row UpdateBuiltin calls give it. A short tile repeats its
/// first term in the spare accumulators and drops their sums.
template <bool kProduct>
void AccumulateLaneTile(const LaneTerm* terms, size_t m, size_t rows) {
  const double* a[kLaneTile];
  const double* b[kLaneTile];
  double acc[kLaneTile];
  for (size_t k = 0; k < kLaneTile; ++k) {
    const LaneTerm& t = terms[k < m ? k : 0];
    a[k] = t.a;
    b[k] = t.b;
    acc[k] = t.state->sum;
  }
  for (size_t r = 0; r < rows; ++r) {
#pragma GCC unroll 8
    for (size_t k = 0; k < kLaneTile; ++k) {
      acc[k] += kProduct ? a[k][r] * b[k][r] : a[k][r];
    }
  }
  for (size_t k = 0; k < m; ++k) {
    BuiltinAggState* state = terms[k].state;
    state->sum = acc[k];
    state->count += static_cast<int64_t>(rows);
    state->seen = true;
  }
}

/// Runs the queued lane terms over `rows` rows, in tiles of consecutive
/// terms of one kind.
void AccumulateLaneTerms(const std::vector<LaneTerm>& terms, size_t rows) {
  for (size_t t = 0; t < terms.size();) {
    const bool product = terms[t].b != nullptr;
    size_t m = 1;
    while (m < kLaneTile && t + m < terms.size() &&
           (terms[t + m].b != nullptr) == product) {
      ++m;
    }
    if (product) {
      AccumulateLaneTile<true>(&terms[t], m, rows);
    } else {
      AccumulateLaneTile<false>(&terms[t], m, rows);
    }
    t += m;
  }
}

/// Fills scratch->lanes with every program argument of one UDF call,
/// all valid at once: bare columns alias the batch, other programs'
/// results are copied out of the VM.
Status LoadUdfLanes(const VectorAggSpec& args, const ColumnSpanBatch& batch,
                    const std::vector<int>& slot_to_col, SpanScratch* s) {
  const size_t ncols = args.progs.size();
  s->lanes.resize(ncols);
  if (s->regs.size() < ncols) s->regs.resize(ncols);
  for (size_t a = 0; a < ncols; ++a) {
    if (ColumnLane(args.columns[a], batch, slot_to_col, &s->lanes[a])) {
      continue;
    }
    const CompiledExpr& prog = *args.progs[a];
    NLQ_RETURN_IF_ERROR(
        s->vm.EvalSpans(prog, batch, slot_to_col, batch.rows));
    s->vm.CopyResult(prog, batch.rows, &s->regs[a]);
    s->lanes[a] = RegLane(s->regs[a], prog.result_type());
  }
  return Status::OK();
}

/// Marks in s->keep the rows without a NULL in any of s->lanes (the
/// skip-row policy); false, leaving `keep` alone, when no lane has
/// NULLs.
bool MarkKeptRows(size_t rows, SpanScratch* s) {
  bool any_nulls = false;
  for (const ArgLane& x : s->lanes) any_nulls |= x.nulls != nullptr;
  if (!any_nulls) return false;
  s->keep.assign(rows, 1);
  for (const ArgLane& x : s->lanes) {
    if (x.nulls == nullptr) continue;
    for (size_t r = 0; r < rows; ++r) {
      if (NullBitGet(x.nulls, r)) s->keep[r] = 0;
    }
  }
  return true;
}

/// out[k] = lane value of row rows[k], widened to double.
void GatherLane(const ArgLane& x, const uint32_t* rows, size_t n,
                double* out) {
  if (x.d != nullptr) {
    for (size_t k = 0; k < n; ++k) out[k] = x.d[rows[k]];
  } else {
    for (size_t k = 0; k < n; ++k) out[k] = static_cast<double>(x.i[rows[k]]);
  }
}

/// True when `spec` is an aggregate UDF that takes span batches.
bool TakesSpans(const AggregateSpec& spec, const VectorAggSpec& args) {
  return spec.kind == AggregateSpec::Kind::kUdf &&
         spec.udaf->SupportsColumnarSpans() && !args.progs.empty();
}

/// One UDF call over the batch through AccumulateSpans: widens BIGINT
/// lanes to double and drops rows with a NULL in any argument by
/// order-preserving compaction; without NULLs, DOUBLE lanes pass
/// zero-copy.
Status AccumulateUdfSpans(const AggregateSpec& spec, const VectorAggSpec& args,
                          const ColumnSpanBatch& batch,
                          const std::vector<int>& slot_to_col, void* state,
                          SpanScratch* s) {
  NLQ_RETURN_IF_ERROR(LoadUdfLanes(args, batch, slot_to_col, s));
  const size_t ncols = args.progs.size();
  const size_t rows = batch.rows;
  const bool any_nulls = MarkKeptRows(rows, s);
  size_t out_rows = rows;
  if (any_nulls) {
    out_rows = 0;
    for (size_t r = 0; r < rows; ++r) out_rows += s->keep[r];
  }
  NLQ_FAILPOINT("udf_accumulate");
  if (s->cols.size() < ncols) s->cols.resize(ncols);
  s->spans.resize(ncols);
  for (size_t a = 0; a < ncols; ++a) {
    const ArgLane& x = s->lanes[a];
    if (!any_nulls && x.d != nullptr) {
      s->spans[a] = x.d;
      continue;
    }
    std::vector<double>& buf = s->cols[a];
    buf.resize(out_rows);
    size_t w = 0;
    for (size_t r = 0; r < rows; ++r) {
      if (any_nulls && !s->keep[r]) continue;
      buf[w++] = LaneDouble(x, r);
    }
    s->spans[a] = buf.data();
  }
  return spec.udaf->AccumulateSpans(state, args.const_args, s->spans.data(),
                                    ncols, out_rows);
}

constexpr uint32_t kNoSlot = UINT32_MAX;

/// Orders a grouped batch's rows by group for per-group span calls: the
/// batch's groups take slots in order of first appearance, and a
/// stable counting sort over the slots fills s->order and s->offsets.
void SortRowsByGroup(const uint32_t* group_of, size_t num_groups,
                     size_t rows, SpanScratch* s) {
  std::vector<uint32_t>& slot_of = s->slot_of;
  if (slot_of.size() < num_groups) slot_of.resize(num_groups, kNoSlot);
  s->slot_groups.clear();
  for (size_t r = 0; r < rows; ++r) {
    if (slot_of[group_of[r]] == kNoSlot) {
      slot_of[group_of[r]] = static_cast<uint32_t>(s->slot_groups.size());
      s->slot_groups.push_back(group_of[r]);
    }
  }
  const size_t slots = s->slot_groups.size();
  std::vector<uint32_t>& offsets = s->offsets;
  offsets.assign(slots + 1, 0);
  for (size_t r = 0; r < rows; ++r) ++offsets[slot_of[group_of[r]] + 1];
  for (size_t g = 0; g < slots; ++g) offsets[g + 1] += offsets[g];
  // offsets[g] is slot g's fill cursor; once every row is placed it
  // holds slot g's end, and shifting by one restores the starts.
  s->order.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    s->order[offsets[slot_of[group_of[r]]]++] = static_cast<uint32_t>(r);
  }
  for (size_t g = slots; g > 0; --g) offsets[g] = offsets[g - 1];
  offsets[0] = 0;
  for (const uint32_t g : s->slot_groups) slot_of[g] = kNoSlot;
}

/// Spec `i`'s span UDF over a grouped batch ordered by SortRowsByGroup:
/// one AccumulateSpans call per group, its lanes gathered in row order
/// with NULL rows compacted out. A group whose rows all compact away
/// still gets its call, with zero rows.
Status AccumulateUdfGroupSpans(const AggregateSpec& spec, size_t i,
                               const VectorAggSpec& args,
                               const ColumnSpanBatch& batch,
                               const std::vector<int>& slot_to_col,
                               const std::vector<AggState*>& groups,
                               SpanScratch* s) {
  const size_t slots = s->slot_groups.size();
  if (slots == 1) {
    return AccumulateUdfSpans(spec, args, batch, slot_to_col,
                              groups[s->slot_groups[0]]->udf_states[i], s);
  }
  NLQ_RETURN_IF_ERROR(LoadUdfLanes(args, batch, slot_to_col, s));
  const uint32_t* rows = s->order.data();
  const uint32_t* offsets = s->offsets.data();
  if (MarkKeptRows(batch.rows, s)) {
    s->kept.clear();
    s->kept_offsets.assign(1, 0);
    for (size_t g = 0; g < slots; ++g) {
      for (uint32_t k = offsets[g]; k < offsets[g + 1]; ++k) {
        if (s->keep[rows[k]]) s->kept.push_back(rows[k]);
      }
      s->kept_offsets.push_back(static_cast<uint32_t>(s->kept.size()));
    }
    rows = s->kept.data();
    offsets = s->kept_offsets.data();
  }
  const size_t ncols = args.progs.size();
  if (s->cols.size() < ncols) s->cols.resize(ncols);
  s->spans.resize(ncols);
  for (size_t a = 0; a < ncols; ++a) {
    s->cols[a].resize(offsets[slots]);
    GatherLane(s->lanes[a], rows, offsets[slots], s->cols[a].data());
  }
  for (size_t g = 0; g < slots; ++g) {
    for (size_t a = 0; a < ncols; ++a) {
      s->spans[a] = s->cols[a].data() + offsets[g];
    }
    NLQ_FAILPOINT("udf_accumulate");
    NLQ_RETURN_IF_ERROR(spec.udaf->AccumulateSpans(
        groups[s->slot_groups[g]]->udf_states[i], args.const_args,
        s->spans.data(), ncols, offsets[g + 1] - offsets[g]));
  }
  return Status::OK();
}

/// One UDF call per row: boxed arguments into Accumulate, row r's
/// state being `state_of(r)`.
template <typename StateOf>
Status AccumulateUdfRows(const AggregateSpec& spec, size_t i,
                         const VectorAggSpec& args,
                         const ColumnSpanBatch& batch,
                         const std::vector<int>& slot_to_col, SpanScratch* s,
                         StateOf state_of) {
  NLQ_RETURN_IF_ERROR(LoadUdfLanes(args, batch, slot_to_col, s));
  const size_t nconst = args.const_args.size();
  s->row_args.resize(nconst + s->lanes.size());
  for (size_t a = 0; a < nconst; ++a) s->row_args[a] = args.const_args[a];
  for (size_t r = 0; r < batch.rows; ++r) {
    for (size_t a = 0; a < s->lanes.size(); ++a) {
      s->row_args[nconst + a] = LaneDatum(s->lanes[a], r);
    }
    NLQ_FAILPOINT("udf_accumulate");
    NLQ_RETURN_IF_ERROR(
        spec.udaf->Accumulate(state_of(r)->udf_states[i], s->row_args));
  }
  return Status::OK();
}

/// ROW phase of every spec over one batch, row r folding into
/// `state_of(r)`. `groups` is null for a global batch (one state, so
/// span-capable UDFs take the batch in one AccumulateSpans call, and
/// builtins on column lanes run after the other specs, in tiles); for
/// a grouped batch it lists the stream's groups, and span-capable UDFs
/// take one call per group of the batch (SortRowsByGroup ran first).
template <typename StateOf>
Status AccumulateBatch(const std::vector<AggregateSpec>& specs,
                       const std::vector<VectorAggSpec>& args,
                       const std::vector<int>& slot_to_col,
                       const ColumnSpanBatch& batch,
                       const std::vector<AggState*>* groups,
                       StateOf state_of, SpanScratch* s) {
  const size_t n = batch.rows;
  s->lane_terms.clear();
  for (size_t i = 0; i < specs.size(); ++i) {
    const AggregateSpec& spec = specs[i];
    if (spec.kind == AggregateSpec::Kind::kCountStar) {
      for (size_t r = 0; r < n; ++r) ++state_of(r)->builtin[i].count;
      continue;
    }
    if (TakesSpans(spec, args[i])) {
      NLQ_RETURN_IF_ERROR(
          groups == nullptr
              ? AccumulateUdfSpans(spec, args[i], batch, slot_to_col,
                                   state_of(0)->udf_states[i], s)
              : AccumulateUdfGroupSpans(spec, i, args[i], batch, slot_to_col,
                                        *groups, s));
      continue;
    }
    if (spec.kind == AggregateSpec::Kind::kUdf) {
      NLQ_RETURN_IF_ERROR(AccumulateUdfRows(spec, i, args[i], batch,
                                            slot_to_col, s, state_of));
      continue;
    }
    if (groups == nullptr && TakesColumnLanes(spec, args[i]) &&
        AddLaneTerm(spec.kind, args[i].columns[0], batch, slot_to_col,
                    &state_of(0)->builtin[i], s)) {
      continue;
    }
    NLQ_ASSIGN_OR_RETURN(const ArgLane x,
                         BuiltinLane(args[i], batch, slot_to_col, &s->vm));
    for (size_t r = 0; r < n; ++r) {
      if (LaneNull(x, r)) continue;
      UpdateBuiltin(spec.kind, LaneDouble(x, r), &state_of(r)->builtin[i]);
    }
  }
  AccumulateLaneTerms(s->lane_terms, n);
  return Status::OK();
}

/// FINALIZE phase: seeds the empty-input global group (a global
/// aggregate over no rows still yields one row), then finalizes every
/// group in map order, filters by HAVING and projects.
StatusOr<std::vector<Row>> FinalizeGroups(const BoundAggregation& agg,
                                          bool has_having, size_t num_output,
                                          GroupMap* groups,
                                          MemoryTracker* memory) {
  if (groups->empty() && agg.key_exprs.empty()) {
    NLQ_RETURN_IF_ERROR(
        FindOrInitGroup(agg.specs, Row{}, memory, groups).status());
  }
  std::vector<Row> rows;
  rows.reserve(groups->size());
  for (const auto& [key, state] : *groups) {
    NLQ_ASSIGN_OR_RETURN(Row aggs, FinalizeAggState(agg.specs, state));
    NLQ_RETURN_IF_ERROR(
        EmitGroup(agg, has_having, num_output, key, aggs, &rows));
  }
  return rows;
}

}  // namespace

ArgColumns ArgColumnsOf(const CompiledExpr& prog) {
  ArgColumns out;
  const std::vector<Instr>& code = prog.instructions();
  if (code.empty() || code.back().dst != prog.result_reg()) return out;
  const Instr& last = code.back();
  if (code.size() == 1 && last.op == OpCode::kLoadCol) {
    out.kind = ArgColumns::Kind::kColumn;
    out.a = last.slot;
    return out;
  }
  // A multiply of DOUBLE column loads: one load per operand, or one
  // for both.
  if (last.op != OpCode::kMulD || code.size() > 3) return out;
  const Instr* a = nullptr;
  const Instr* b = nullptr;
  for (size_t k = 0; k + 1 < code.size(); ++k) {
    const Instr& load = code[k];
    if (load.op != OpCode::kLoadCol || load.type != DataType::kDouble) {
      return out;
    }
    if (load.dst == last.a) a = &load;
    if (load.dst == last.b) b = &load;
  }
  if (a == nullptr || b == nullptr) return out;
  out.kind = ArgColumns::Kind::kProduct;
  out.a = a->slot;
  out.b = b->slot;
  return out;
}

bool TakesColumnLanes(const AggregateSpec& spec, const VectorAggSpec& args) {
  if (spec.kind != AggregateSpec::Kind::kSum &&
      spec.kind != AggregateSpec::Kind::kAvg &&
      spec.kind != AggregateSpec::Kind::kCount) {
    return false;
  }
  const ArgColumns::Kind kind = args.columns[0].kind;
  return kind == ArgColumns::Kind::kProduct ||
         (kind == ArgColumns::Kind::kColumn &&
          args.progs[0]->result_type() == DataType::kDouble);
}

Status InitAggState(const std::vector<AggregateSpec>& specs,
                    MemoryTracker* memory, AggState* state) {
  state->builtin.assign(specs.size(), BuiltinAggState());
  state->heaps.clear();
  state->heaps.resize(specs.size());
  state->udf_states.assign(specs.size(), nullptr);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind != AggregateSpec::Kind::kUdf) continue;
    NLQ_ASSIGN_OR_RETURN(state->heaps[i], udf::HeapSegment::Create(memory));
    NLQ_ASSIGN_OR_RETURN(state->udf_states[i],
                         specs[i].udaf->Init(state->heaps[i].get()));
  }
  return Status::OK();
}

Status MergeAggState(const std::vector<AggregateSpec>& specs,
                     const AggState& src, AggState* dst) {
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == AggregateSpec::Kind::kUdf) {
      NLQ_FAILPOINT("udf_merge");
      NLQ_RETURN_IF_ERROR(
          specs[i].udaf->Merge(dst->udf_states[i], src.udf_states[i]));
      continue;
    }
    BuiltinAggState& d = dst->builtin[i];
    const BuiltinAggState& s = src.builtin[i];
    d.sum += s.sum;
    d.count += s.count;
    if (s.seen) {
      if (!d.seen || s.min < d.min) d.min = s.min;
      if (!d.seen || s.max > d.max) d.max = s.max;
      d.seen = true;
    }
  }
  return Status::OK();
}

Status CloneAggState(const std::vector<AggregateSpec>& specs,
                     MemoryTracker* memory, const AggState& src,
                     AggState* dst) {
  NLQ_RETURN_IF_ERROR(InitAggState(specs, memory, dst));
  dst->builtin = src.builtin;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind != AggregateSpec::Kind::kUdf) continue;
    const size_t bytes = specs[i].udaf->RelocatableStateSize();
    if (bytes == 0) {
      return Status::Internal(specs[i].udaf->name() +
                              " state is not relocatable; cannot clone");
    }
    std::memcpy(dst->udf_states[i], src.udf_states[i], bytes);
  }
  return Status::OK();
}

bool RelocatableSpecs(const std::vector<AggregateSpec>& specs) {
  for (const AggregateSpec& spec : specs) {
    if (spec.kind != AggregateSpec::Kind::kUdf) continue;
    if (spec.udaf->RelocatableStateSize() == 0) return false;
  }
  return true;
}

StatusOr<Row> FinalizeAggState(const std::vector<AggregateSpec>& specs,
                               const AggState& state) {
  Row out(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const AggregateSpec& spec = specs[i];
    const BuiltinAggState& b = state.builtin[i];
    switch (spec.kind) {
      case AggregateSpec::Kind::kCountStar:
      case AggregateSpec::Kind::kCount:
        out[i] = Datum::Int64(b.count);
        break;
      case AggregateSpec::Kind::kSum:
        out[i] = b.seen ? Datum::Double(b.sum) : Datum::Null(DataType::kDouble);
        break;
      case AggregateSpec::Kind::kAvg:
        out[i] = b.count > 0
                     ? Datum::Double(b.sum / static_cast<double>(b.count))
                     : Datum::Null(DataType::kDouble);
        break;
      case AggregateSpec::Kind::kMin:
      case AggregateSpec::Kind::kMax: {
        if (!b.seen) {
          out[i] = Datum::Null(spec.result_type);
          break;
        }
        const double v =
            spec.kind == AggregateSpec::Kind::kMin ? b.min : b.max;
        out[i] = spec.result_type == DataType::kInt64
                     ? Datum::Int64(static_cast<int64_t>(v))
                     : Datum::Double(v);
        break;
      }
      case AggregateSpec::Kind::kUdf: {
        NLQ_ASSIGN_OR_RETURN(Datum v, spec.udaf->Finalize(state.udf_states[i]));
        out[i] = std::move(v);
        break;
      }
    }
  }
  return out;
}

StatusOr<AggState*> FindOrInitGroup(const std::vector<AggregateSpec>& specs,
                                    const Row& keys, MemoryTracker* memory,
                                    GroupMap* groups) {
  auto it = groups->find(keys);
  if (it != groups->end()) return &it->second;
  if (memory != nullptr) {
    // Hash-table entry overhead: the key row plus the parallel state
    // vectors (heap segment charges ride on the segments themselves).
    const size_t bytes = sizeof(AggState) + ApproxRowBytes(keys) +
                         specs.size() * (sizeof(BuiltinAggState) +
                                         sizeof(std::unique_ptr<udf::HeapSegment>) +
                                         sizeof(void*));
    NLQ_RETURN_IF_ERROR(memory->Charge(bytes, "hash-aggregate group"));
  }
  AggState fresh;
  NLQ_RETURN_IF_ERROR(InitAggState(specs, memory, &fresh));
  return &groups->emplace(keys, std::move(fresh)).first->second;
}

Status EmitGroup(const BoundAggregation& agg, bool has_having,
                 size_t num_output, const Row& keys, const Row& aggs,
                 std::vector<Row>* out) {
  Status error;
  EvalContext ctx;
  ctx.keys = &keys;
  ctx.aggs = &aggs;
  ctx.error = &error;
  if (has_having) {
    const Datum keep = agg.projections[num_output]->Eval(ctx);
    NLQ_RETURN_IF_ERROR(error);
    if (keep.is_null() || keep.AsDouble() == 0.0) return Status::OK();
  }
  Row row(num_output);
  for (size_t c = 0; c < num_output; ++c) {
    row[c] = agg.projections[c]->Eval(ctx);
  }
  NLQ_RETURN_IF_ERROR(error);
  out->push_back(std::move(row));
  return Status::OK();
}

StatusOr<std::vector<Row>> MergeAndFinalize(const BoundAggregation& agg,
                                            bool has_having, size_t num_output,
                                            std::vector<GroupMap>* partials,
                                            MemoryTracker* memory) {
  // MERGE phase: fold partial states into stream 0's table.
  GroupMap& global = (*partials)[0];
  for (size_t p = 1; p < partials->size(); ++p) {
    for (auto& [key, state] : (*partials)[p]) {
      auto it = global.find(key);
      if (it == global.end()) {
        global.emplace(key, std::move(state));
      } else {
        NLQ_RETURN_IF_ERROR(MergeAggState(agg.specs, state, &it->second));
      }
    }
    (*partials)[p].clear();
  }

  return FinalizeGroups(agg, has_having, num_output, &global, memory);
}

StatusOr<std::vector<Row>> MergeAndFinalize(
    const BoundAggregation& agg, bool has_having, size_t num_output,
    const std::vector<const AggState*>& partials, MemoryTracker* memory) {
  // MERGE phase, reading every partial in place: the accumulator starts
  // as a copy of the first partial where the moving overload takes the
  // first partial itself.
  GroupMap global;
  AggState* acc = nullptr;
  for (const AggState* partial : partials) {
    if (partial == nullptr) continue;
    if (acc != nullptr) {
      NLQ_RETURN_IF_ERROR(MergeAggState(agg.specs, *partial, acc));
      continue;
    }
    AggState first;
    NLQ_RETURN_IF_ERROR(CloneAggState(agg.specs, memory, *partial, &first));
    acc = &global.emplace(Row{}, std::move(first)).first->second;
  }
  return FinalizeGroups(agg, has_having, num_output, &global, memory);
}

Status AccumulateSpanBatch(const std::vector<AggregateSpec>& specs,
                           const std::vector<VectorAggSpec>& args,
                           const std::vector<int>& slot_to_col,
                           const ColumnSpanBatch& batch, AggState* state,
                           SpanScratch* scratch) {
  return AccumulateBatch(specs, args, slot_to_col, batch, /*groups=*/nullptr,
                         [state](size_t) { return state; }, scratch);
}

Status AccumulateGroupedSpanBatch(const std::vector<AggregateSpec>& specs,
                                  const std::vector<VectorAggSpec>& args,
                                  const std::vector<int>& slot_to_col,
                                  const ColumnSpanBatch& batch,
                                  const std::vector<AggState*>& groups,
                                  const uint32_t* group_of,
                                  SpanScratch* scratch) {
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!TakesSpans(specs[i], args[i])) continue;
    SortRowsByGroup(group_of, groups.size(), batch.rows, scratch);
    break;
  }
  AggState* const* states = groups.data();
  return AccumulateBatch(
      specs, args, slot_to_col, batch, &groups,
      [states, group_of](size_t r) { return states[group_of[r]]; }, scratch);
}

}  // namespace nlq::engine::exec
