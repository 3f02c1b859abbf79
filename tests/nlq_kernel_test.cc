// Property test of the fused n,L,Q span kernel (stats/nlq_kernel.h):
// every variant behind NlqAccumulateSpans — the blocked scalar oracle
// and the register-tiled AVX2 path — must leave the *whole* NlqState
// (d, kind, n, every l/mn/mx slot and all 64 x 64 Q slots, including
// the ones outside the kind's entries, which keep FreshState's byte
// pattern) bit-identical to `rows` calls of the per-row
// NlqAccumulatePoint, over d = 1..64, all three kinds,
// row counts on both sides of the 64-row transposed block, spans split
// across two calls, and inputs holding +-0, +-inf, NaN and subnormals.
//
// Two NaNs compare equal whatever their payloads: IEEE 754 does not
// fix which NaN an operation on two NaNs returns, and the compiler may
// commute the per-row path's operands.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "stats/nlq_kernel.h"

namespace nlq::stats {
namespace {

constexpr size_t kRowCounts[] = {0, 1, 63, 64, 65, 1000};
constexpr MatrixKind kKinds[] = {MatrixKind::kDiagonal,
                                 MatrixKind::kLowerTriangular,
                                 MatrixKind::kFull};

/// Input flavours: finite values over a wide exponent range; the same
/// with signed zeros and subnormals mixed in; and the same with
/// infinities and NaNs of two payloads on top.
enum class Values { kFinite, kZerosAndSubnormals, kSpecials };

double NextValue(Random* rng, Values values, size_t column) {
  if (values != Values::kFinite) {
    // Every fifth column holds only signed zeros and positives, so
    // min/max compare +0 against -0.
    if (column % 5 == 4) {
      const double kSigned[] = {0.0, -0.0, 0.5, 0.75};
      return kSigned[rng->NextUint64(4)];
    }
    if (rng->NextUint64(100) < 4) {
      const double kOdd[] = {0.0, -0.0, -3.5e-310, 2.2e-308};
      const double kSpecial[] = {std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN(),
                                 -std::nan("7")};
      const uint64_t pick = rng->NextUint64(4);
      const bool special =
          values == Values::kSpecials && rng->NextUint64(2) == 1;
      return special ? kSpecial[pick] : kOdd[pick];
    }
  }
  const double mantissa = rng->NextUniform(-1.0, 1.0);
  const int exponent = static_cast<int>(rng->NextUint64(41)) - 20;
  return std::ldexp(mantissa, exponent);
}

bool SameBits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Compares every field of the two states; reports the first
/// mismatching slot.
void ExpectSameState(const NlqState& want, const NlqState& got,
                     const std::string& where) {
  ASSERT_EQ(want.d, got.d) << where;
  ASSERT_EQ(want.kind, got.kind) << where;
  ASSERT_TRUE(SameBits(want.n, got.n)) << where << " n";
  for (size_t a = 0; a < kMaxUdfDims; ++a) {
    ASSERT_TRUE(SameBits(want.l[a], got.l[a]))
        << where << " l[" << a << "] " << want.l[a] << " vs " << got.l[a];
    ASSERT_TRUE(SameBits(want.mn[a], got.mn[a]))
        << where << " mn[" << a << "] " << want.mn[a] << " vs " << got.mn[a];
    ASSERT_TRUE(SameBits(want.mx[a], got.mx[a]))
        << where << " mx[" << a << "] " << want.mx[a] << " vs " << got.mx[a];
    for (size_t b = 0; b < kMaxUdfDims; ++b) {
      ASSERT_TRUE(SameBits(want.q[a][b], got.q[a][b]))
          << where << " q[" << a << "][" << b << "] " << want.q[a][b]
          << " vs " << got.q[a][b];
    }
  }
}

/// A state as INIT and the first row leave it. The struct is first
/// filled with a fixed byte pattern: the Q slots outside the shape's
/// zeroed region keep it, so a kernel store outside the kind's entries
/// (an unmasked padding lane) still shows as a mismatch.
NlqState FreshState(size_t d, MatrixKind kind) {
  NlqState s;
  std::memset(&s, 0xa5, sizeof(s));
  ResetNlqState(&s);
  EXPECT_TRUE(SetNlqShape(&s, d, kind).ok());
  return s;
}

/// Column-major data: cols[a][r].
std::vector<std::vector<double>> MakeColumns(size_t d, size_t rows,
                                             Values values, uint64_t seed) {
  Random rng(seed);
  std::vector<std::vector<double>> cols(d, std::vector<double>(rows));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < d; ++a) cols[a][r] = NextValue(&rng, values, a);
  }
  return cols;
}

/// The per-row reference: `rows` NlqAccumulatePoint calls.
NlqState PointReference(const std::vector<std::vector<double>>& cols,
                        size_t d, MatrixKind kind, size_t rows) {
  NlqState s = FreshState(d, kind);
  std::vector<double> x(d);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < d; ++a) x[a] = cols[a][r];
    NlqAccumulatePoint(&s, x.data());
  }
  return s;
}

/// Folds rows [begin, end) of `cols` through NlqAccumulateSpans.
void SpanCall(NlqState* s, const std::vector<std::vector<double>>& cols,
              size_t begin, size_t end) {
  std::vector<const double*> spans(cols.size());
  for (size_t a = 0; a < cols.size(); ++a) spans[a] = cols[a].data() + begin;
  NlqAccumulateSpans(s, spans.data(), end - begin);
}

class NlqKernelTest : public ::testing::TestWithParam<Values> {
 protected:
  void TearDown() override { SetNlqKernelMode(NlqKernelMode::kAuto); }
};

TEST_P(NlqKernelTest, EveryVariantMatchesPerRowAccumulation) {
  const NlqKernelMode kModes[] = {NlqKernelMode::kScalar,
                                  NlqKernelMode::kSimd};
  size_t cases = 0;
  for (size_t d = 1; d <= kMaxUdfDims; ++d) {
    const std::vector<std::vector<double>> cols =
        MakeColumns(d, 1000, GetParam(), 1000 + d);
    for (const MatrixKind kind : kKinds) {
      for (const size_t rows : kRowCounts) {
        const NlqState want = PointReference(cols, d, kind, rows);
        for (const NlqKernelMode mode : kModes) {
          SetNlqKernelMode(mode);
          const std::string where = StringPrintf(
              "variant=%s d=%zu kind=%d rows=%zu", NlqKernelVariant(), d,
              static_cast<int>(kind), rows);
          NlqState whole = FreshState(d, kind);
          SpanCall(&whole, cols, 0, rows);
          ExpectSameState(want, whole, where + " one call");
          // The same span in two calls, split off the 64-row block
          // grid: the second call starts mid-stream from a non-fresh
          // state with unaligned span pointers.
          const size_t split = rows / 2 + (rows > 2 ? 1 : 0);
          NlqState halves = FreshState(d, kind);
          SpanCall(&halves, cols, 0, split);
          SpanCall(&halves, cols, split, rows);
          ExpectSameState(want, halves,
                          where + StringPrintf(" split at %zu", split));
          if (::testing::Test::HasFatalFailure()) return;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, kMaxUdfDims * 3 * 6 * 2);
}

INSTANTIATE_TEST_SUITE_P(Values, NlqKernelTest,
                         ::testing::Values(Values::kFinite,
                                           Values::kZerosAndSubnormals,
                                           Values::kSpecials),
                         [](const ::testing::TestParamInfo<Values>& info) {
                           switch (info.param) {
                             case Values::kFinite:
                               return std::string("Finite");
                             case Values::kZerosAndSubnormals:
                               return std::string("ZerosAndSubnormals");
                             case Values::kSpecials:
                               return std::string("InfAndNaN");
                           }
                           return std::string("?");
                         });

// kSimd resolves to the AVX2 variant wherever the CPU has it and falls
// back to scalar elsewhere; kScalar always pins the oracle.
TEST(NlqKernelModeTest, ModesResolveToTheirVariant) {
  SetNlqKernelMode(NlqKernelMode::kScalar);
  EXPECT_STREQ(NlqKernelVariant(), "scalar");
  SetNlqKernelMode(NlqKernelMode::kSimd);
  const std::string simd = NlqKernelVariant();
  SetNlqKernelMode(NlqKernelMode::kAuto);
  EXPECT_EQ(std::string(NlqKernelVariant()), simd);
  EXPECT_TRUE(simd == "avx2" || simd == "scalar") << simd;
}

}  // namespace
}  // namespace nlq::stats
