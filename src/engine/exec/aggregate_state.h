#ifndef NLQ_ENGINE_EXEC_AGGREGATE_STATE_H_
#define NLQ_ENGINE_EXEC_AGGREGATE_STATE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "engine/exec/bytecode.h"
#include "engine/exec/column_stream.h"
#include "engine/expr.h"
#include "storage/value.h"
#include "udf/heap_segment.h"

namespace nlq::engine::exec {

/// The INIT / ROW / MERGE / FINALIZE machinery of every aggregate: the
/// interpreted HashAggregateNode and the columnar
/// VectorHashAggregateNode (whose per-morsel partials a maintained view
/// stores between statements) keep, update, merge, clone and finalize
/// aggregation state through this one module. One copy of each rule is
/// the cheapest proof that their results stay byte-identical: only how
/// the ROW phase obtains argument values differs (interpreted Datums,
/// bytecode registers, or column spans read in place).

/// State of one SQL builtin (sum/count/avg/min/max; COUNT(*) uses
/// `count` only).
struct BuiltinAggState {
  double sum = 0.0;
  int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  bool seen = false;
};

/// ROW phase of one SQL builtin for one non-NULL argument value
/// (SQL aggregates skip NULLs; callers do).
inline void UpdateBuiltin(AggregateSpec::Kind kind, double x,
                          BuiltinAggState* b) {
  switch (kind) {
    case AggregateSpec::Kind::kSum:
    case AggregateSpec::Kind::kAvg:
      b->sum += x;
      ++b->count;
      break;
    case AggregateSpec::Kind::kCount:
      ++b->count;
      break;
    case AggregateSpec::Kind::kMin:
      if (!b->seen || x < b->min) b->min = x;
      break;
    case AggregateSpec::Kind::kMax:
      if (!b->seen || x > b->max) b->max = x;
      break;
    default:
      break;
  }
  b->seen = true;
}

/// Partial aggregation state of one group (a global aggregate has one
/// group per morsel stream), parallel to the AggregateSpec list.
/// Movable, not copyable: UDF states live in owned heap segments
/// (deep copy via CloneAggState).
struct AggState {
  std::vector<BuiltinAggState> builtin;
  std::vector<std::unique_ptr<udf::HeapSegment>> heaps;
  std::vector<void*> udf_states;  // null for builtins
  /// Dense index of the group among its columnar stream's groups, in
  /// order of first sight (set by VectorHashAggregate's ROW phase).
  uint32_t stream_index = 0;
};

/// INIT: sizes `state` for `specs`; every aggregate UDF allocates its
/// state inside a fresh HeapSegment (the per-thread UDF heap) charged
/// against `memory` (nullptr = untracked).
Status InitAggState(const std::vector<AggregateSpec>& specs,
                    MemoryTracker* memory, AggState* state);

/// MERGE: folds `src` into `dst` (builtins added / min-maxed, UDFs via
/// their Merge phase; hits the `udf_merge` failpoint per UDF spec).
/// Callers fold in morsel-index order, which keeps results
/// bit-identical across thread counts.
Status MergeAggState(const std::vector<AggregateSpec>& specs,
                     const AggState& src, AggState* dst);

/// Deep copy: Init-s `dst` fresh and transplants `src` into it —
/// builtins by assignment, UDF states by memcpy of their relocatable
/// block. Internal error if a UDF state is not relocatable; callers
/// gate on RelocatableSpecs first.
Status CloneAggState(const std::vector<AggregateSpec>& specs,
                     MemoryTracker* memory, const AggState& src,
                     AggState* dst);

/// True when every spec's state can be kept and cloned across
/// statements: builtins always can, UDFs need a relocatable state
/// block. Gate of maintained-view eligibility.
bool RelocatableSpecs(const std::vector<AggregateSpec>& specs);

/// FINALIZE: one Datum per spec (Int64 counts, NULL-on-empty sums,
/// result-type-cast min/max, UDF Finalize).
StatusOr<storage::Row> FinalizeAggState(const std::vector<AggregateSpec>& specs,
                                        const AggState& state);

struct RowKeyHash {
  size_t operator()(const storage::Row& row) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const storage::Datum& d : row) {
      h ^= d.KeyHash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct RowKeyEq {
  bool operator()(const storage::Row& a, const storage::Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].KeyEquals(b[i])) return false;
    }
    return true;
  }
};

/// One stream's groups, keyed by their GROUP BY values.
using GroupMap =
    std::unordered_map<storage::Row, AggState, RowKeyHash, RowKeyEq>;

/// The state of group `keys`, INIT-ed on first sight with its
/// hash-table entry charged against `memory` (nullptr = untracked).
StatusOr<AggState*> FindOrInitGroup(const std::vector<AggregateSpec>& specs,
                                    const storage::Row& keys,
                                    MemoryTracker* memory, GroupMap* groups);

/// FINALIZE tail of one group: evaluates the SELECT projections over
/// (keys, aggs) and appends the output row to `out`, unless HAVING
/// (`projections[num_output]` when `has_having`) rejects the group.
Status EmitGroup(const BoundAggregation& agg, bool has_having,
                 size_t num_output, const storage::Row& keys,
                 const storage::Row& aggs, std::vector<storage::Row>* out);

/// MERGE + FINALIZE shared by both hash-aggregate operators: folds
/// partials[1..] into partials[0] in stream order, seeds the
/// empty-input global group when there are no GROUP BY keys, then
/// finalizes and emits every group in partials[0]'s map order.
StatusOr<std::vector<storage::Row>> MergeAndFinalize(
    const BoundAggregation& agg, bool has_having, size_t num_output,
    std::vector<GroupMap>* partials, MemoryTracker* memory);

/// The same MERGE + FINALIZE for a global aggregate whose per-morsel
/// partials outlive it (a maintained view keeps them): reads each
/// non-null partial in place, in stream order, folding into a copy of
/// the first — the bytes the overload above makes from the same
/// partials.
StatusOr<std::vector<storage::Row>> MergeAndFinalize(
    const BoundAggregation& agg, bool has_having, size_t num_output,
    const std::vector<const AggState*>& partials, MemoryTracker* memory);

// ---------------------------------------------------------------------------
// Columnar ROW phase
// ---------------------------------------------------------------------------

/// The columns an argument program reads in place of running through
/// the VM: one bare column load (`kColumn`, any numeric type), or a
/// kMulD of two bare DOUBLE column loads (`kProduct`, `a[r] * b[r]` in
/// the program's operand order). `kProgram`: anything else.
struct ArgColumns {
  enum class Kind : uint8_t { kProgram, kColumn, kProduct };
  Kind kind = Kind::kProgram;
  uint32_t a = 0;  // input slots; `b` for kProduct only
  uint32_t b = 0;
};

/// Recognises `prog`'s ArgColumns; the planner calls it once per
/// program, where the program is compiled.
ArgColumns ArgColumnsOf(const CompiledExpr& prog);

/// Compiled arguments of one aggregate call, parallel to
/// BoundAggregation::specs. Aggregate UDFs like nlq_list take leading
/// literal configuration arguments (VARCHAR, which never compiles):
/// those stay Datums. COUNT(*) has no arguments; SQL builtins have
/// exactly one program.
struct VectorAggSpec {
  std::vector<storage::Datum> const_args;  // leading literal arguments
  std::vector<CompiledExprPtr> progs;      // the remaining arguments
  std::vector<ArgColumns> columns;         // per program: ArgColumnsOf
};

/// True when builtin `spec` is a SUM, AVG or COUNT whose argument is a
/// bare DOUBLE column or a product of two: a global batch whose
/// columns carry no null bitmap accumulates it on column lanes (see
/// AccumulateSpanBatch).
bool TakesColumnLanes(const AggregateSpec& spec, const VectorAggSpec& args);

/// One argument's values over a span batch: exactly one of `d`/`i` is
/// set (by type); `nulls` is the null bitmap, or nullptr.
struct ArgLane {
  const double* d = nullptr;
  const int64_t* i = nullptr;
  const uint64_t* nulls = nullptr;
};

/// One SUM/AVG term of a global batch on column lanes: adds a[r] (or
/// a[r] * b[r] when `b` is set) for every row into `state`.
struct LaneTerm {
  const double* a = nullptr;
  const double* b = nullptr;
  BuiltinAggState* state = nullptr;
};

/// Per-stream scratch of the columnar ROW phase, reused across batches.
/// `ctx` (may be null) is what the VM polls during UDF calls.
struct SpanScratch {
  explicit SpanScratch(const QueryContext* ctx = nullptr) : vm(ctx) {}

  ExprVM vm;
  std::vector<LaneTerm> lane_terms;       // a global batch's lane terms
  std::vector<ExprVM::Reg> regs;          // per argument: program results
  std::vector<ArgLane> lanes;             // per argument
  std::vector<std::vector<double>> cols;  // widened / compacted spans
  std::vector<const double*> spans;
  std::vector<uint8_t> keep;
  std::vector<storage::Datum> row_args;   // one row's boxed arguments

  // A grouped batch's rows ordered by group. The batch's groups take
  // slots in order of first appearance; rows [offsets[g], offsets[g+1])
  // of `order` are slot g's, in row order.
  std::vector<uint32_t> slot_of;      // per stream group: slot, or none
  std::vector<uint32_t> slot_groups;  // per slot: stream group index
  std::vector<uint32_t> offsets;      // per slot, plus the end
  std::vector<uint32_t> order;        // row indices, grouped by slot
  std::vector<uint32_t> kept;         // `order` minus NULL-argument rows
  std::vector<uint32_t> kept_offsets; // `offsets` into `kept`
};

/// ROW phase of a global aggregate over one span batch, every spec
/// into one state. Bare column arguments are read in place, any other
/// argument through the VM. A builtin that TakesColumnLanes, when its
/// columns carry no null bitmap in the batch, is read straight from
/// the spans: COUNT adds the row count, and SUM/AVG terms run in tiles
/// of independent accumulators per pass over the rows, each adding
/// its rows in row order exactly as UpdateBuiltin would (a multiply,
/// then an add). Aggregate UDFs that support spans get the
/// whole batch through AccumulateSpans — bare DOUBLE columns
/// zero-copy, NULL rows dropped by order-preserving compaction (the
/// skip-row policy), called even when every row compacts away so the
/// state fixes its shape exactly as Accumulate would; other UDFs get
/// one Accumulate call per row.
Status AccumulateSpanBatch(const std::vector<AggregateSpec>& specs,
                           const std::vector<VectorAggSpec>& args,
                           const std::vector<int>& slot_to_col,
                           const ColumnSpanBatch& batch, AggState* state,
                           SpanScratch* scratch);

/// ROW phase of a grouped aggregate over one span batch: row r folds
/// into groups[group_of[r]], `group_of` holding each row's dense
/// per-stream group index. Builtins, and UDFs without span support
/// (one boxed Accumulate per row), visit the rows in row order. An
/// aggregate UDF that supports spans gets one AccumulateSpans call per
/// group of the batch: a stable counting sort orders the rows by
/// group, each call's lanes are gathered in row order with NULL rows
/// compacted out, a group whose rows all compact away still gets its
/// call (so its shape is fixed exactly as Accumulate would fix it),
/// and a batch of one group takes AccumulateSpanBatch's zero-copy
/// spans. The loop nesting (per spec, then per group or row) differs
/// from the row path's (per row, then per spec), which is
/// unobservable: argument programs are pure, and every group's state
/// still sees exactly its own rows in row order.
Status AccumulateGroupedSpanBatch(const std::vector<AggregateSpec>& specs,
                                  const std::vector<VectorAggSpec>& args,
                                  const std::vector<int>& slot_to_col,
                                  const ColumnSpanBatch& batch,
                                  const std::vector<AggState*>& groups,
                                  const uint32_t* group_of,
                                  SpanScratch* scratch);

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_AGGREGATE_STATE_H_
