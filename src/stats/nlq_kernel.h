#ifndef NLQ_STATS_NLQ_KERNEL_H_
#define NLQ_STATS_NLQ_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "stats/sufstats.h"
#include "storage/value.h"

namespace nlq::stats {

/// Maximum dimensionality one aggregate-UDF call handles. The UDF
/// state is statically sized (the paper: "the UDF 'struct' record is
/// statically defined to have a maximum dimensionality" because heap
/// storage is allocated before the first row). Higher d uses the
/// partitioned nlq_block calls (paper Table 6).
inline constexpr size_t kMaxUdfDims = 64;

/// The n, L, Q accumulation state shared by the row-path aggregate
/// UDFs (nlq_list / nlq_string) and the columnar aggregate — one
/// definition so both paths provably run the same arithmetic (the
/// paper's UDF_nLQ_storage struct).
struct NlqState {
  int32_t d;     // -1 until the first row fixes the dimensionality
  int32_t kind;  // MatrixKind as int
  double n;
  double l[kMaxUdfDims];
  double mn[kMaxUdfDims];
  double mx[kMaxUdfDims];
  double q[kMaxUdfDims][kMaxUdfDims];
};

/// INIT: zeroes n and L (d = -1, min/max at +/-inf). Q is not
/// touched until SetNlqShape.
void ResetNlqState(NlqState* s);

/// Fixes d and kind on the first row and zeroes Q's rows below d up to
/// the kernels' tile edge (d rounded up to 8 columns); the Q slots
/// past that stay uninitialized, and no reader looks at them.
/// InvalidArgument when d is outside 1..kMaxUdfDims.
Status SetNlqShape(NlqState* s, size_t d, MatrixKind kind);

/// ROW: folds one complete (no-NULL) point into `s`. Requires the
/// shape to be fixed. This is the paper's hot loop ("step 2 is the
/// most intensive because it gets executed n times").
void NlqAccumulatePoint(NlqState* s, const double* x);

/// ROW, fused columnar form: folds `rows` dense points given as d
/// column spans (cols[a][r] is dimension a of row r; no NULLs — the
/// caller applies the skip-row policy by compaction upstream).
///
/// Two implementations sit behind runtime dispatch, both bit-identical
/// to `rows` NlqAccumulatePoint calls because every accumulator (each
/// l[a], q[a][b], mn/mx[a]) receives its row contributions as the same
/// strict sequential chain in row order:
///  - scalar: blocked (kRowBlock rows stay cache-resident across the Q
///    passes) and tiled (independent accumulator chains per inner loop
///    hide FP-add latency);
///  - avx2 (x86-64 with AVX2, lower-triangular/full kinds, any d):
///    transposes each 64-row block to row-major scratch, then holds
///    register tiles across the whole block — 4 Q rows x 8 columns in
///    8 ymm accumulators, and L/min/max 8 columns at a time. Per row a
///    tile broadcasts x[a], loads x[b..b+7] once and does a separate
///    vector multiply, then add (never FMA); lanes run across
///    *accumulators*, never across rows, and MINPD/MAXPD operand order
///    reproduces the scalar `if (v < mn)` semantics including NaN and
///    signed-zero cases. Tiles crossing the diagonal (lower kind) or
///    the d edge drop their padding lanes with masked stores, so no
///    state slot outside the kind's entries is ever written.
/// Two NaN inputs meeting in one product or sum may leave a different
/// NaN payload than the per-row path (IEEE 754 leaves that choice
/// open); every other bit matches.
void NlqAccumulateSpans(NlqState* s, const double* const* cols, size_t rows);

/// Kernel selection for NlqAccumulateSpans. kAuto (default) picks AVX2
/// when the CPU supports it; kScalar forces the blocked-scalar path
/// (the differential oracle); kSimd asks for AVX2 and silently falls
/// back to scalar where unsupported. Process-wide, for tests and
/// benchmarks; answers are bit-identical either way by construction.
enum class NlqKernelMode { kAuto = 0, kScalar = 1, kSimd = 2 };
void SetNlqKernelMode(NlqKernelMode mode);

/// The variant NlqAccumulateSpans resolves to right now: "avx2" or
/// "scalar".
const char* NlqKernelVariant();

/// MERGE: folds `src` into `dst`; empty src is a no-op.
Status NlqMergeStates(NlqState* dst, const NlqState* src);

/// FINALIZE: packs the state in SufStats::ToPackedString layout.
StatusOr<storage::Datum> NlqFinalizeState(const NlqState* s);

}  // namespace nlq::stats

#endif  // NLQ_STATS_NLQ_KERNEL_H_
