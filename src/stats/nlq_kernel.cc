#include "stats/nlq_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>

#include "common/strings.h"

#if defined(__x86_64__) || defined(__amd64__)
#include <immintrin.h>
#define NLQ_KERNEL_X86 1
#endif

namespace nlq::stats {
namespace {

/// Rows per block: one block of a 64-dim scan is ~512 KB of column
/// data, so the Q passes re-read it from cache instead of RAM.
constexpr size_t kRowBlock = 1024;

/// Accumulator chains per inner loop. Each q[a][b] (and l[a]) is a
/// strict sequential FP reduction — required for bit-identity with the
/// row path — so a single chain is add-latency-bound; kTile parallel
/// chains over *different* accumulators restore throughput.
constexpr size_t kTile = 8;

/// L + min/max for columns [a0, a0+an) over one row block.
void AccumulateLMinMax(NlqState* s, const double* const* cols, size_t a0,
                       size_t an, size_t rows) {
  double lacc[kTile], mn[kTile], mx[kTile];
  const double* x[kTile];
  for (size_t j = 0; j < an; ++j) {
    lacc[j] = s->l[a0 + j];
    mn[j] = s->mn[a0 + j];
    mx[j] = s->mx[a0 + j];
    x[j] = cols[a0 + j];
  }
  if (an == kTile) {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < kTile; ++j) {
        const double v = x[j][r];
        lacc[j] += v;
        if (v < mn[j]) mn[j] = v;
        if (v > mx[j]) mx[j] = v;
      }
    }
  } else {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < an; ++j) {
        const double v = x[j][r];
        lacc[j] += v;
        if (v < mn[j]) mn[j] = v;
        if (v > mx[j]) mx[j] = v;
      }
    }
  }
  for (size_t j = 0; j < an; ++j) {
    s->l[a0 + j] = lacc[j];
    s->mn[a0 + j] = mn[j];
    s->mx[a0 + j] = mx[j];
  }
}

/// One Q row tile: qrow[b0..b0+bn) += xa . x_b over the row block.
void AccumulateQTile(double* qrow, const double* xa, const double* const* cols,
                     size_t b0, size_t bn, size_t rows) {
  double acc[kTile];
  const double* xb[kTile];
  for (size_t j = 0; j < bn; ++j) {
    acc[j] = qrow[b0 + j];
    xb[j] = cols[b0 + j];
  }
  if (bn == kTile) {
    for (size_t r = 0; r < rows; ++r) {
      const double v = xa[r];
      for (size_t j = 0; j < kTile; ++j) acc[j] += v * xb[j][r];
    }
  } else {
    for (size_t r = 0; r < rows; ++r) {
      const double v = xa[r];
      for (size_t j = 0; j < bn; ++j) acc[j] += v * xb[j][r];
    }
  }
  for (size_t j = 0; j < bn; ++j) qrow[b0 + j] = acc[j];
}

/// Diagonal kind: L, Q diagonal, and min/max fused in one pass per
/// column tile.
void AccumulateDiagTile(NlqState* s, const double* const* cols, size_t a0,
                        size_t an, size_t rows) {
  double lacc[kTile], qacc[kTile], mn[kTile], mx[kTile];
  const double* x[kTile];
  for (size_t j = 0; j < an; ++j) {
    lacc[j] = s->l[a0 + j];
    qacc[j] = s->q[a0 + j][a0 + j];
    mn[j] = s->mn[a0 + j];
    mx[j] = s->mx[a0 + j];
    x[j] = cols[a0 + j];
  }
  if (an == kTile) {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < kTile; ++j) {
        const double v = x[j][r];
        lacc[j] += v;
        qacc[j] += v * v;
        if (v < mn[j]) mn[j] = v;
        if (v > mx[j]) mx[j] = v;
      }
    }
  } else {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < an; ++j) {
        const double v = x[j][r];
        lacc[j] += v;
        qacc[j] += v * v;
        if (v < mn[j]) mn[j] = v;
        if (v > mx[j]) mx[j] = v;
      }
    }
  }
  for (size_t j = 0; j < an; ++j) {
    s->l[a0 + j] = lacc[j];
    s->q[a0 + j][a0 + j] = qacc[j];
    s->mn[a0 + j] = mn[j];
    s->mx[a0 + j] = mx[j];
  }
}

/// The blocked + tiled scalar implementation — the bit-exactness
/// oracle the AVX2 path is verified against.
void AccumulateSpansScalar(NlqState* s, const double* const* cols,
                           size_t rows) {
  const size_t d = static_cast<size_t>(s->d);
  const MatrixKind kind = static_cast<MatrixKind>(s->kind);
  const double* shifted[kMaxUdfDims];
  for (size_t r0 = 0; r0 < rows; r0 += kRowBlock) {
    const size_t rn = std::min(kRowBlock, rows - r0);
    for (size_t a = 0; a < d; ++a) shifted[a] = cols[a] + r0;
    if (kind == MatrixKind::kDiagonal) {
      for (size_t a0 = 0; a0 < d; a0 += kTile) {
        AccumulateDiagTile(s, shifted, a0, std::min(kTile, d - a0), rn);
      }
      continue;
    }
    for (size_t a0 = 0; a0 < d; a0 += kTile) {
      AccumulateLMinMax(s, shifted, a0, std::min(kTile, d - a0), rn);
    }
    for (size_t a = 0; a < d; ++a) {
      const size_t bmax = kind == MatrixKind::kLowerTriangular ? a + 1 : d;
      for (size_t b0 = 0; b0 < bmax; b0 += kTile) {
        AccumulateQTile(s->q[a], shifted[a], shifted, b0,
                        std::min(kTile, bmax - b0), rn);
      }
    }
  }
}

std::atomic<NlqKernelMode> g_kernel_mode{NlqKernelMode::kAuto};

bool CpuHasAvx2() {
#if defined(NLQ_KERNEL_X86)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

bool SimdSelected() {
  switch (g_kernel_mode.load(std::memory_order_relaxed)) {
    case NlqKernelMode::kScalar:
      return false;
    case NlqKernelMode::kSimd:
    case NlqKernelMode::kAuto:
      return CpuHasAvx2();
  }
  return false;
}

#if defined(NLQ_KERNEL_X86)

/// Rows transposed per AVX2 block: 64 rows x 64 dims = 32 KB of
/// row-major scratch, small enough to stay L1/L2-resident while every
/// register tile of the block streams over it.
constexpr size_t kSimdRowBlock = 64;

/// Q register tile height: kQTileRows rows of Q by up to 8 columns
/// (two ymm per row) stay in registers across a block.
constexpr size_t kQTileRows = 4;

/// All-ones in lanes j < n of a 4-lane mask (n may be <= 0 or >= 4).
__attribute__((target("avx2"))) inline __m256i LaneMask(ptrdiff_t n) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

/// Stores the first `n` lanes of `v` to `p` (n may be <= 0 or >= 4);
/// lanes at and past `n` leave memory untouched.
__attribute__((target("avx2"))) inline void StoreLanes(double* p, __m256d v,
                                                       ptrdiff_t n) {
  if (n >= 4) {
    _mm256_storeu_pd(p, v);
  } else if (n > 0) {
    _mm256_maskstore_pd(p, LaneMask(n), v);
  }
}

/// L, min and max of columns [a0, a0 + 4 * kVecs) over one transposed
/// block, in registers; only columns below d are stored back.
template <size_t kVecs>
__attribute__((target("avx2"))) void LMinMaxTileAvx2(NlqState* s,
                                                     const double* xrow,
                                                     size_t stride,
                                                     size_t rn, size_t a0,
                                                     size_t d) {
  __m256d l[kVecs], mn[kVecs], mx[kVecs];
#pragma GCC unroll 2
  for (size_t c = 0; c < kVecs; ++c) {
    l[c] = _mm256_loadu_pd(s->l + a0 + 4 * c);
    mn[c] = _mm256_loadu_pd(s->mn + a0 + 4 * c);
    mx[c] = _mm256_loadu_pd(s->mx + a0 + 4 * c);
  }
  for (size_t i = 0; i < rn; ++i) {
    const double* x = xrow + i * stride + a0;
#pragma GCC unroll 2
    for (size_t c = 0; c < kVecs; ++c) {
      const __m256d v = _mm256_load_pd(x + 4 * c);
      l[c] = _mm256_add_pd(l[c], v);
      mn[c] = _mm256_min_pd(v, mn[c]);
      mx[c] = _mm256_max_pd(v, mx[c]);
    }
  }
#pragma GCC unroll 2
  for (size_t c = 0; c < kVecs; ++c) {
    const ptrdiff_t valid =
        static_cast<ptrdiff_t>(d) - static_cast<ptrdiff_t>(a0 + 4 * c);
    StoreLanes(s->l + a0 + 4 * c, l[c], valid);
    StoreLanes(s->mn + a0 + 4 * c, mn[c], valid);
    StoreLanes(s->mx + a0 + 4 * c, mx[c], valid);
  }
}

/// One Q register tile over a transposed block: rows [a0, a0 + kRows)
/// (all below d) by columns [b0, b0 + 4 * kVecs). Each row broadcasts
/// x[a], each column vector is loaded once per row, and every
/// accumulator lane takes its product by a separate multiply, then
/// add. Only the entries the kind defines (b <= a for
/// lower-triangular, b < d always) are stored back.
template <size_t kRows, size_t kVecs>
__attribute__((target("avx2"))) void QTileAvx2(NlqState* s,
                                               const double* xrow,
                                               size_t stride, size_t rn,
                                               size_t a0, size_t b0,
                                               size_t d, bool lower) {
  __m256d acc[kRows][kVecs];
#pragma GCC unroll 4
  for (size_t k = 0; k < kRows; ++k) {
#pragma GCC unroll 2
    for (size_t c = 0; c < kVecs; ++c) {
      acc[k][c] = _mm256_loadu_pd(s->q[a0 + k] + b0 + 4 * c);
    }
  }
  for (size_t i = 0; i < rn; ++i) {
    const double* x = xrow + i * stride;
    __m256d xb[kVecs];
#pragma GCC unroll 2
    for (size_t c = 0; c < kVecs; ++c) xb[c] = _mm256_load_pd(x + b0 + 4 * c);
#pragma GCC unroll 4
    for (size_t k = 0; k < kRows; ++k) {
      const __m256d xa = _mm256_broadcast_sd(x + a0 + k);
#pragma GCC unroll 2
      for (size_t c = 0; c < kVecs; ++c) {
        acc[k][c] = _mm256_add_pd(acc[k][c], _mm256_mul_pd(xa, xb[c]));
      }
    }
  }
#pragma GCC unroll 4
  for (size_t k = 0; k < kRows; ++k) {
    const size_t a = a0 + k;
    const size_t limit = lower ? a + 1 : d;
#pragma GCC unroll 2
    for (size_t c = 0; c < kVecs; ++c) {
      StoreLanes(s->q[a] + b0 + 4 * c, acc[k][c],
                 static_cast<ptrdiff_t>(limit) -
                     static_cast<ptrdiff_t>(b0 + 4 * c));
    }
  }
}

/// Copies rows [r0, r0 + rn) of the d column spans into row-major
/// `xrow` (row stride `stride`): 4 x 4 blocks through registers, the
/// column and row remainders one value at a time.
__attribute__((target("avx2"))) void TransposeBlockAvx2(
    const double* const* cols, size_t r0, size_t rn, size_t d,
    size_t stride, double* xrow) {
  size_t a = 0;
  for (; a + 4 <= d; a += 4) {
    const double* c0 = cols[a] + r0;
    const double* c1 = cols[a + 1] + r0;
    const double* c2 = cols[a + 2] + r0;
    const double* c3 = cols[a + 3] + r0;
    size_t i = 0;
    for (; i + 4 <= rn; i += 4) {
      const __m256d v0 = _mm256_loadu_pd(c0 + i);
      const __m256d v1 = _mm256_loadu_pd(c1 + i);
      const __m256d v2 = _mm256_loadu_pd(c2 + i);
      const __m256d v3 = _mm256_loadu_pd(c3 + i);
      const __m256d lo01 = _mm256_unpacklo_pd(v0, v1);
      const __m256d hi01 = _mm256_unpackhi_pd(v0, v1);
      const __m256d lo23 = _mm256_unpacklo_pd(v2, v3);
      const __m256d hi23 = _mm256_unpackhi_pd(v2, v3);
      double* x = xrow + i * stride + a;
      _mm256_store_pd(x, _mm256_permute2f128_pd(lo01, lo23, 0x20));
      _mm256_store_pd(x + stride, _mm256_permute2f128_pd(hi01, hi23, 0x20));
      _mm256_store_pd(x + 2 * stride,
                      _mm256_permute2f128_pd(lo01, lo23, 0x31));
      _mm256_store_pd(x + 3 * stride,
                      _mm256_permute2f128_pd(hi01, hi23, 0x31));
    }
    for (; i < rn; ++i) {
      double* x = xrow + i * stride + a;
      x[0] = c0[i];
      x[1] = c1[i];
      x[2] = c2[i];
      x[3] = c3[i];
    }
  }
  for (; a < d; ++a) {
    const double* col = cols[a] + r0;
    for (size_t i = 0; i < rn; ++i) xrow[i * stride + a] = col[i];
  }
}

/// Dispatches one Q tile of `rows` (1..4) Q rows to its register
/// shape.
template <size_t kVecs>
__attribute__((target("avx2"))) void QTileRowsAvx2(
    NlqState* s, const double* xrow, size_t stride, size_t rn, size_t a0,
    size_t b0, size_t d, bool lower, size_t rows) {
  switch (rows) {
    case 1:
      return QTileAvx2<1, kVecs>(s, xrow, stride, rn, a0, b0, d, lower);
    case 2:
      return QTileAvx2<2, kVecs>(s, xrow, stride, rn, a0, b0, d, lower);
    case 3:
      return QTileAvx2<3, kVecs>(s, xrow, stride, rn, a0, b0, d, lower);
    default:
      return QTileAvx2<4, kVecs>(s, xrow, stride, rn, a0, b0, d, lower);
  }
}

/// AVX2 span accumulation for the lower-triangular and full kinds.
///
/// Strategy: transpose each block of up to 64 rows to row-major
/// scratch (row stride d rounded up to 8, padding zeroed), then sweep
/// register tiles over it. A Q tile holds 4 Q rows x 8 columns in 8
/// ymm accumulators for the whole block: per row it broadcasts x[a]
/// for its 4 rows, loads x[b..b+7] once, and does a separate multiply,
/// then add, per accumulator. L/min/max ride in registers the same
/// way, 8 columns per tile. Lanes run across *accumulators*, never
/// across rows, so every accumulator still sees its contributions as
/// one sequential FP chain in row order — bit-identical to the scalar
/// paths. This TU enables AVX2 but not FMA, so the compiler cannot
/// contract the multiply and add, and MINPD/MAXPD with the new value
/// as the *first* operand reproduces `(v < mn) ? v : mn` exactly,
/// signed zeros and NaNs included. Tiles that cross the diagonal (the
/// lower kind) or the d edge compute padding lanes and drop them with
/// masked stores, so state outside the kind's entries is never
/// written.
__attribute__((target("avx2"))) void AccumulateSpansAvx2(
    NlqState* s, const double* const* cols, size_t rows) {
  const size_t d = static_cast<size_t>(s->d);
  const bool lower =
      static_cast<MatrixKind>(s->kind) == MatrixKind::kLowerTriangular;
  const size_t stride = (d + 7) & ~size_t{7};
  alignas(64) double xrow[kSimdRowBlock * kMaxUdfDims];
  const size_t first = std::min(kSimdRowBlock, rows);
  for (size_t i = 0; i < first; ++i) {
    for (size_t a = d; a < stride; ++a) xrow[i * stride + a] = 0.0;
  }
  for (size_t r0 = 0; r0 < rows; r0 += kSimdRowBlock) {
    const size_t rn = std::min(kSimdRowBlock, rows - r0);
    TransposeBlockAvx2(cols, r0, rn, d, stride, xrow);
    for (size_t a0 = 0; a0 < d; a0 += 8) {
      if (d - a0 > 4) {
        LMinMaxTileAvx2<2>(s, xrow, stride, rn, a0, d);
      } else {
        LMinMaxTileAvx2<1>(s, xrow, stride, rn, a0, d);
      }
    }
    for (size_t a0 = 0; a0 < d; a0 += kQTileRows) {
      const size_t tile_rows = std::min(kQTileRows, d - a0);
      const size_t bend = lower ? a0 + tile_rows : d;
      for (size_t b0 = 0; b0 < bend; b0 += 8) {
        if (bend - b0 > 4) {
          QTileRowsAvx2<2>(s, xrow, stride, rn, a0, b0, d, lower, tile_rows);
        } else {
          QTileRowsAvx2<1>(s, xrow, stride, rn, a0, b0, d, lower, tile_rows);
        }
      }
    }
  }
}

#endif  // NLQ_KERNEL_X86

}  // namespace

void ResetNlqState(NlqState* s) {
  // Q is left as it is: SetNlqShape zeroes the part the shape uses, so
  // a state of small d never touches the pages of the rest.
  std::memset(s, 0, offsetof(NlqState, q));
  s->d = -1;
  s->kind = static_cast<int32_t>(MatrixKind::kLowerTriangular);
  for (size_t a = 0; a < kMaxUdfDims; ++a) {
    s->mn[a] = std::numeric_limits<double>::infinity();
    s->mx[a] = -std::numeric_limits<double>::infinity();
  }
}

Status SetNlqShape(NlqState* s, size_t d, MatrixKind kind) {
  if (d == 0 || d > kMaxUdfDims) {
    return Status::InvalidArgument(StringPrintf(
        "nlq: d=%zu out of range 1..%zu (use nlq_block for higher d)", d,
        kMaxUdfDims));
  }
  s->d = static_cast<int32_t>(d);
  s->kind = static_cast<int32_t>(kind);
  // Every Q slot a kernel reads: rows below d, columns up to the AVX2
  // kernel's 8-column tile edge (its padding lanes are loaded, then
  // dropped by masked stores). Slots past it stay uninitialized; merges
  // and view relocation only copy them.
  const size_t cols = std::min(kMaxUdfDims, (d + 7) & ~size_t{7});
  for (size_t a = 0; a < d; ++a) {
    std::memset(s->q[a], 0, cols * sizeof(double));
  }
  return Status::OK();
}

void NlqAccumulatePoint(NlqState* s, const double* x) {
  const size_t d = static_cast<size_t>(s->d);
  s->n += 1.0;
  switch (static_cast<MatrixKind>(s->kind)) {
    case MatrixKind::kDiagonal:
      for (size_t a = 0; a < d; ++a) {
        const double xa = x[a];
        s->l[a] += xa;
        s->q[a][a] += xa * xa;
      }
      break;
    case MatrixKind::kLowerTriangular:
      for (size_t a = 0; a < d; ++a) {
        const double xa = x[a];
        s->l[a] += xa;
        double* row = s->q[a];
        for (size_t b = 0; b <= a; ++b) row[b] += xa * x[b];
      }
      break;
    case MatrixKind::kFull:
      for (size_t a = 0; a < d; ++a) {
        const double xa = x[a];
        s->l[a] += xa;
        double* row = s->q[a];
        for (size_t b = 0; b < d; ++b) row[b] += xa * x[b];
      }
      break;
  }
  for (size_t a = 0; a < d; ++a) {
    if (x[a] < s->mn[a]) s->mn[a] = x[a];
    if (x[a] > s->mx[a]) s->mx[a] = x[a];
  }
}

void SetNlqKernelMode(NlqKernelMode mode) {
  g_kernel_mode.store(mode, std::memory_order_relaxed);
}

const char* NlqKernelVariant() { return SimdSelected() ? "avx2" : "scalar"; }

void NlqAccumulateSpans(NlqState* s, const double* const* cols, size_t rows) {
  // n counts whole rows: doubles hold integers exactly here, so one
  // bulk add equals `rows` sequential `+= 1.0`s bit-for-bit.
  s->n += static_cast<double>(rows);
#if defined(NLQ_KERNEL_X86)
  // The AVX2 path covers the dense kinds where the Q update dominates;
  // the diagonal kind stays on the (already cheap) scalar path rather
  // than paying the transpose.
  if (static_cast<MatrixKind>(s->kind) != MatrixKind::kDiagonal &&
      SimdSelected()) {
    AccumulateSpansAvx2(s, cols, rows);
    return;
  }
#endif
  AccumulateSpansScalar(s, cols, rows);
}

Status NlqMergeStates(NlqState* dst, const NlqState* src) {
  if (src->d < 0) return Status::OK();  // src saw no rows
  if (dst->d < 0) {
    std::memcpy(dst, src, sizeof(NlqState));
    return Status::OK();
  }
  if (dst->d != src->d || dst->kind != src->kind) {
    return Status::Internal("nlq: partial states disagree on d or kind");
  }
  const size_t d = static_cast<size_t>(dst->d);
  const MatrixKind kind = static_cast<MatrixKind>(dst->kind);
  dst->n += src->n;
  for (size_t a = 0; a < d; ++a) {
    dst->l[a] += src->l[a];
    if (src->mn[a] < dst->mn[a]) dst->mn[a] = src->mn[a];
    if (src->mx[a] > dst->mx[a]) dst->mx[a] = src->mx[a];
    // Only the kind's entries: the others stay +0 in every state, so
    // adding them would change no bit.
    const size_t b0 = kind == MatrixKind::kDiagonal ? a : 0;
    const size_t b1 = kind == MatrixKind::kFull ? d : a + 1;
    for (size_t b = b0; b < b1; ++b) dst->q[a][b] += src->q[a][b];
  }
  return Status::OK();
}

StatusOr<storage::Datum> NlqFinalizeState(const NlqState* s) {
  if (s->d < 0) {
    // No rows: empty statistics.
    return storage::Datum::Varchar(
        SufStats(0, MatrixKind::kLowerTriangular).ToPackedString());
  }
  const size_t d = static_cast<size_t>(s->d);
  // Emit the same packed layout as SufStats::ToPackedString so
  // SufStats::FromPackedString decodes UDF results directly.
  const SufStats shape(d, static_cast<MatrixKind>(s->kind));
  std::string packed;
  packed.reserve(64 + (3 * d + shape.NumQEntries()) * 18);
  packed += std::to_string(d);
  packed += '|';
  packed += std::to_string(s->kind);
  packed += '|';
  AppendDouble(&packed, s->n);
  packed += '|';
  for (size_t a = 0; a < d; ++a) {
    if (a > 0) packed += ';';
    AppendDouble(&packed, s->l[a]);
  }
  packed += '|';
  for (size_t a = 0; a < d; ++a) {
    if (a > 0) packed += ';';
    AppendDouble(&packed, s->n > 0 ? s->mn[a] : 0.0);
  }
  packed += '|';
  for (size_t a = 0; a < d; ++a) {
    if (a > 0) packed += ';';
    AppendDouble(&packed, s->n > 0 ? s->mx[a] : 0.0);
  }
  packed += '|';
  bool first = true;
  for (size_t a = 0; a < d; ++a) {
    switch (static_cast<MatrixKind>(s->kind)) {
      case MatrixKind::kDiagonal:
        if (!first) packed += ';';
        AppendDouble(&packed, s->q[a][a]);
        first = false;
        break;
      case MatrixKind::kLowerTriangular:
        for (size_t b = 0; b <= a; ++b) {
          if (!first) packed += ';';
          AppendDouble(&packed, s->q[a][b]);
          first = false;
        }
        break;
      case MatrixKind::kFull:
        for (size_t b = 0; b < d; ++b) {
          if (!first) packed += ';';
          AppendDouble(&packed, s->q[a][b]);
          first = false;
        }
        break;
    }
  }
  return storage::Datum::Varchar(std::move(packed));
}

}  // namespace nlq::stats
