#include "stats/nlq_udaf.h"

#include <cstring>
#include <limits>

#include "common/strings.h"
#include "udf/heap_segment.h"
#include "udf/packing.h"

namespace nlq::stats {

using storage::DataType;
using storage::Datum;

namespace {

// ---------------------------------------------------------------------------
// nlq_list / nlq_string state: NlqState and its INIT/ROW/MERGE/
// FINALIZE arithmetic live in stats/nlq_kernel.{h,cc}, shared with the
// engine's columnar aggregate so both produce byte-identical results.
// ---------------------------------------------------------------------------

static_assert(sizeof(NlqState) <= udf::kDefaultHeapCapacity,
              "NlqState must fit one heap segment");
static_assert(std::is_trivially_destructible_v<NlqState>);

Status FixDimensionality(NlqState* s, size_t d, const Datum& kind_arg) {
  if (kind_arg.is_null() || kind_arg.type() != DataType::kVarchar) {
    return Status::InvalidArgument(
        "nlq: first argument must be 'diag', 'triang' or 'full'");
  }
  NLQ_ASSIGN_OR_RETURN(MatrixKind kind,
                       MatrixKindFromString(kind_arg.string_value()));
  return SetNlqShape(s, d, kind);
}

// ---------------------------------------------------------------------------
// nlq_list
// ---------------------------------------------------------------------------

class NlqListUdf : public udf::AggregateUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "nlq_list";
    return kName;
  }
  DataType return_type() const override { return DataType::kVarchar; }

  Status CheckArity(size_t num_args) const override {
    if (num_args < 2) {
      return Status::InvalidArgument(
          "nlq_list(kind, X1, ..., Xd) needs at least 2 arguments");
    }
    if (num_args - 1 > kMaxUdfDims) {
      return Status::InvalidArgument(StringPrintf(
          "nlq_list supports at most d=%zu dimensions", kMaxUdfDims));
    }
    return Status::OK();
  }

  StatusOr<void*> Init(udf::HeapSegment* heap) const override {
    NlqState* state = static_cast<NlqState*>(heap->Allocate(sizeof(NlqState)));
    if (state == nullptr) {
      return Status::ResourceExhausted("nlq_list state exceeds heap segment");
    }
    ResetNlqState(state);
    return state;
  }

  Status Accumulate(void* raw_state,
                    const std::vector<Datum>& args) const override {
    NlqState* s = static_cast<NlqState*>(raw_state);
    const size_t d = args.size() - 1;
    if (s->d < 0) NLQ_RETURN_IF_ERROR(FixDimensionality(s, d, args[0]));
    // NULL policy: skip incomplete rows entirely (see nlq_udaf.h) —
    // coercing NULL to 0.0 would silently bias L and Q.
    for (size_t a = 0; a < d; ++a) {
      if (args[a + 1].is_null()) return Status::OK();
    }
    // List style: parameters map straight into the local array
    // ("the UDF directly assigns vector entries in the parameter list
    // to the UDF internal array entries").
    double x[kMaxUdfDims];
    for (size_t a = 0; a < d; ++a) x[a] = args[a + 1].AsDouble();
    NlqAccumulatePoint(s, x);
    return Status::OK();
  }

  bool SupportsColumnarSpans() const override { return true; }

  Status AccumulateSpans(void* raw_state, const std::vector<Datum>& const_args,
                         const double* const* cols, size_t num_cols,
                         size_t rows) const override {
    NlqState* s = static_cast<NlqState*>(raw_state);
    if (const_args.size() != 1 || num_cols == 0) {
      return Status::Internal("nlq_list spans: expected kind + value spans");
    }
    if (s->d < 0) {
      NLQ_RETURN_IF_ERROR(FixDimensionality(s, num_cols, const_args[0]));
    } else if (static_cast<size_t>(s->d) != num_cols) {
      return Status::Internal("nlq_list spans: dimensionality changed");
    }
    NlqAccumulateSpans(s, cols, rows);
    return Status::OK();
  }

  Status Merge(void* state, const void* other) const override {
    return NlqMergeStates(static_cast<NlqState*>(state),
                          static_cast<const NlqState*>(other));
  }

  StatusOr<Datum> Finalize(const void* state) const override {
    return NlqFinalizeState(static_cast<const NlqState*>(state));
  }

  /// NlqState is a self-contained POD (static_asserted above), so the
  /// maintained-view registry may memcpy it between heap segments.
  size_t RelocatableStateSize() const override { return sizeof(NlqState); }
};

// ---------------------------------------------------------------------------
// nlq_string
// ---------------------------------------------------------------------------

class NlqStringUdf : public udf::AggregateUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "nlq_string";
    return kName;
  }
  DataType return_type() const override { return DataType::kVarchar; }

  Status CheckArity(size_t num_args) const override {
    if (num_args != 2) {
      return Status::InvalidArgument(
          "nlq_string(kind, packed_point) needs exactly 2 arguments");
    }
    return Status::OK();
  }

  StatusOr<void*> Init(udf::HeapSegment* heap) const override {
    NlqState* state = static_cast<NlqState*>(heap->Allocate(sizeof(NlqState)));
    if (state == nullptr) {
      return Status::ResourceExhausted(
          "nlq_string state exceeds heap segment");
    }
    ResetNlqState(state);
    return state;
  }

  Status Accumulate(void* raw_state,
                    const std::vector<Datum>& args) const override {
    NlqState* s = static_cast<NlqState*>(raw_state);
    // NULL policy: a NULL packed point is an incomplete row — skip it
    // (see nlq_udaf.h).
    if (args[1].is_null()) return Status::OK();
    if (args[1].type() != DataType::kVarchar) {
      return Status::InvalidArgument(
          "nlq_string expects a packed VARCHAR point");
    }
    // String style pays the per-row parse ("it must be parsed to get
    // numbers back, so that they are properly stored in an array").
    double x[kMaxUdfDims];
    NLQ_ASSIGN_OR_RETURN(
        size_t d,
        udf::UnpackDoublesInto(args[1].string_value(), x, kMaxUdfDims));
    if (s->d < 0) {
      NLQ_RETURN_IF_ERROR(FixDimensionality(s, d, args[0]));
    } else if (static_cast<size_t>(s->d) != d) {
      return Status::InvalidArgument(
          "nlq_string: packed point dimensionality changed mid-scan");
    }
    NlqAccumulatePoint(s, x);
    return Status::OK();
  }

  Status Merge(void* state, const void* other) const override {
    return NlqMergeStates(static_cast<NlqState*>(state),
                          static_cast<const NlqState*>(other));
  }

  StatusOr<Datum> Finalize(const void* state) const override {
    return NlqFinalizeState(static_cast<const NlqState*>(state));
  }

  size_t RelocatableStateSize() const override { return sizeof(NlqState); }
};

// ---------------------------------------------------------------------------
// nlq_block — partitioned computation for d > kMaxUdfDims (Table 6)
// ---------------------------------------------------------------------------

struct NlqBlockState {
  int32_t rows;  // -1 until first row
  int32_t cols;
  int32_t a_lo, a_hi, b_lo, b_hi;  // 1-based inclusive
  double n;
  double l[kMaxUdfDims];
  double q[kMaxUdfDims][kMaxUdfDims];
};
static_assert(sizeof(NlqBlockState) <= udf::kDefaultHeapCapacity);

class NlqBlockUdf : public udf::AggregateUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "nlq_block";
    return kName;
  }
  DataType return_type() const override { return DataType::kVarchar; }

  Status CheckArity(size_t num_args) const override {
    if (num_args < 6) {
      return Status::InvalidArgument(
          "nlq_block(a_lo, a_hi, b_lo, b_hi, Xa..., Xb...) needs >= 6 args");
    }
    return Status::OK();
  }

  StatusOr<void*> Init(udf::HeapSegment* heap) const override {
    auto* state =
        static_cast<NlqBlockState*>(heap->Allocate(sizeof(NlqBlockState)));
    if (state == nullptr) {
      return Status::ResourceExhausted("nlq_block state exceeds heap segment");
    }
    std::memset(state, 0, sizeof(NlqBlockState));
    state->rows = -1;
    return state;
  }

  Status Accumulate(void* raw_state,
                    const std::vector<Datum>& args) const override {
    auto* s = static_cast<NlqBlockState*>(raw_state);
    if (s->rows < 0) NLQ_RETURN_IF_ERROR(FixRanges(s, args));
    const size_t rows = static_cast<size_t>(s->rows);
    const size_t cols = static_cast<size_t>(s->cols);
    if (args.size() != 4 + rows + cols) {
      return Status::InvalidArgument("nlq_block: argument count mismatch");
    }
    // NULL policy: skip incomplete rows entirely (see nlq_udaf.h).
    for (size_t i = 4; i < args.size(); ++i) {
      if (args[i].is_null()) return Status::OK();
    }
    double xa[kMaxUdfDims];
    double xb[kMaxUdfDims];
    for (size_t a = 0; a < rows; ++a) xa[a] = args[4 + a].AsDouble();
    for (size_t b = 0; b < cols; ++b) xb[b] = args[4 + rows + b].AsDouble();
    s->n += 1.0;
    for (size_t a = 0; a < rows; ++a) {
      s->l[a] += xa[a];
      double* row = s->q[a];
      for (size_t b = 0; b < cols; ++b) row[b] += xa[a] * xb[b];
    }
    return Status::OK();
  }

  Status Merge(void* state, const void* other) const override {
    auto* dst = static_cast<NlqBlockState*>(state);
    const auto* src = static_cast<const NlqBlockState*>(other);
    if (src->rows < 0) return Status::OK();
    if (dst->rows < 0) {
      std::memcpy(dst, src, sizeof(NlqBlockState));
      return Status::OK();
    }
    if (dst->a_lo != src->a_lo || dst->a_hi != src->a_hi ||
        dst->b_lo != src->b_lo || dst->b_hi != src->b_hi) {
      return Status::Internal("nlq_block: partial states disagree on ranges");
    }
    dst->n += src->n;
    for (int32_t a = 0; a < dst->rows; ++a) {
      dst->l[a] += src->l[a];
      for (int32_t b = 0; b < dst->cols; ++b) dst->q[a][b] += src->q[a][b];
    }
    return Status::OK();
  }

  size_t RelocatableStateSize() const override {
    return sizeof(NlqBlockState);
  }

  StatusOr<Datum> Finalize(const void* raw_state) const override {
    const auto* s = static_cast<const NlqBlockState*>(raw_state);
    std::string packed;
    if (s->rows < 0) {
      packed = "0|0|0|0|0||";
      return Datum::Varchar(std::move(packed));
    }
    packed += std::to_string(s->a_lo);
    packed += '|';
    packed += std::to_string(s->a_hi);
    packed += '|';
    packed += std::to_string(s->b_lo);
    packed += '|';
    packed += std::to_string(s->b_hi);
    packed += '|';
    AppendDouble(&packed, s->n);
    packed += '|';
    for (int32_t a = 0; a < s->rows; ++a) {
      if (a > 0) packed += ';';
      AppendDouble(&packed, s->l[a]);
    }
    packed += '|';
    bool first = true;
    for (int32_t a = 0; a < s->rows; ++a) {
      for (int32_t b = 0; b < s->cols; ++b) {
        if (!first) packed += ';';
        AppendDouble(&packed, s->q[a][b]);
        first = false;
      }
    }
    return Datum::Varchar(std::move(packed));
  }

 private:
  static Status FixRanges(NlqBlockState* s, const std::vector<Datum>& args) {
    const int64_t a_lo = static_cast<int64_t>(args[0].AsDouble());
    const int64_t a_hi = static_cast<int64_t>(args[1].AsDouble());
    const int64_t b_lo = static_cast<int64_t>(args[2].AsDouble());
    const int64_t b_hi = static_cast<int64_t>(args[3].AsDouble());
    if (a_lo < 1 || a_hi < a_lo || b_lo < 1 || b_hi < b_lo) {
      return Status::InvalidArgument("nlq_block: invalid subscript ranges");
    }
    const int64_t rows = a_hi - a_lo + 1;
    const int64_t cols = b_hi - b_lo + 1;
    if (rows > static_cast<int64_t>(kMaxUdfDims) ||
        cols > static_cast<int64_t>(kMaxUdfDims)) {
      return Status::InvalidArgument(StringPrintf(
          "nlq_block: block side exceeds MAX_d=%zu", kMaxUdfDims));
    }
    s->a_lo = static_cast<int32_t>(a_lo);
    s->a_hi = static_cast<int32_t>(a_hi);
    s->b_lo = static_cast<int32_t>(b_lo);
    s->b_hi = static_cast<int32_t>(b_hi);
    s->rows = static_cast<int32_t>(rows);
    s->cols = static_cast<int32_t>(cols);
    return Status::OK();
  }
};

}  // namespace

Status RegisterNlqUdfs(udf::UdfRegistry* registry) {
  NLQ_RETURN_IF_ERROR(registry->RegisterAggregate(
      std::make_unique<NlqListUdf>()));
  NLQ_RETURN_IF_ERROR(registry->RegisterAggregate(
      std::make_unique<NlqStringUdf>()));
  return registry->RegisterAggregate(std::make_unique<NlqBlockUdf>());
}

StatusOr<NlqBlock> ParseNlqBlock(std::string_view packed) {
  const std::vector<std::string_view> sections = SplitString(packed, '|');
  if (sections.size() != 7) {
    return Status::ParseError("packed nlq_block must have 7 '|' sections");
  }
  NlqBlock block;
  NLQ_ASSIGN_OR_RETURN(int64_t a_lo, ParseInt64(sections[0]));
  NLQ_ASSIGN_OR_RETURN(int64_t a_hi, ParseInt64(sections[1]));
  NLQ_ASSIGN_OR_RETURN(int64_t b_lo, ParseInt64(sections[2]));
  NLQ_ASSIGN_OR_RETURN(int64_t b_hi, ParseInt64(sections[3]));
  NLQ_ASSIGN_OR_RETURN(block.n, ParseDouble(sections[4]));
  if (a_lo == 0 && a_hi == 0) return block;  // empty input marker
  if (a_lo < 1 || a_hi < a_lo || b_lo < 1 || b_hi < b_lo) {
    return Status::ParseError("nlq_block: invalid ranges");
  }
  block.a_lo = static_cast<size_t>(a_lo);
  block.a_hi = static_cast<size_t>(a_hi);
  block.b_lo = static_cast<size_t>(b_lo);
  block.b_hi = static_cast<size_t>(b_hi);
  NLQ_ASSIGN_OR_RETURN(block.l, udf::UnpackDoubles(sections[5]));
  NLQ_ASSIGN_OR_RETURN(block.q, udf::UnpackDoubles(sections[6]));
  const size_t rows = block.a_hi - block.a_lo + 1;
  const size_t cols = block.b_hi - block.b_lo + 1;
  if (block.l.size() != rows || block.q.size() != rows * cols) {
    return Status::ParseError("nlq_block: value counts do not match ranges");
  }
  return block;
}

Status MergeBlockIntoSufStats(const NlqBlock& block, SufStats* stats) {
  if (stats->kind() != MatrixKind::kFull) {
    return Status::InvalidArgument(
        "block assembly requires a full-kind SufStats");
  }
  if (block.a_lo == 0) return Status::OK();  // empty block
  if (block.a_hi > stats->d() || block.b_hi > stats->d()) {
    return Status::InvalidArgument("block ranges exceed SufStats d");
  }
  const size_t rows = block.a_hi - block.a_lo + 1;
  const size_t cols = block.b_hi - block.b_lo + 1;
  const bool diagonal_block =
      block.a_lo == block.b_lo && block.a_hi == block.b_hi;

  // L comes only from diagonal blocks (each dimension range appears in
  // exactly one), and n only from the first diagonal block, so nothing
  // is double-counted.
  if (diagonal_block) {
    if (block.a_lo == 1) stats->AddToN(block.n);
    for (size_t a = 0; a < rows; ++a) {
      stats->AddToL(block.a_lo - 1 + a, block.l[a]);
    }
  }
  for (size_t a = 0; a < rows; ++a) {
    for (size_t b = 0; b < cols; ++b) {
      const size_t qa = block.a_lo - 1 + a;
      const size_t qb = block.b_lo - 1 + b;
      const double v = block.q[a * cols + b];
      stats->AddToQ(qa, qb, v);
      // Off-diagonal blocks fill the mirrored entries too, so only
      // the upper (or lower) block set needs computing.
      if (!diagonal_block) stats->AddToQ(qb, qa, v);
    }
  }
  return Status::OK();
}

}  // namespace nlq::stats
