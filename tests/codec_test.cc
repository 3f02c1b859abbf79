// Property tests for the column codecs (storage/column_codec.h):
// every codec, and the VARCHAR block, must round-trip bit-exactly
// across null densities, boundary row counts and adversarial value
// patterns, and every corruption of an encoded block must fail with
// kCorruption before any value is published — never UB (the suite
// runs under ASan in CI).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_vector.h"
#include "storage/column_codec.h"
#include "tests/test_util.h"

namespace nlq::storage {
namespace {

/// Deterministic splitmix64 — the tests need reproducible "random"
/// values without <random> seeding subtleties.
uint64_t Mix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t DoubleToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Value patterns, chosen to steer codec selection: constant → RLE,
/// few-distinct → dict, monotone BIGINT → FOR, random → plain, plus
/// IEEE specials that any bit-pattern shortcut would mangle. VARCHAR
/// columns follow the same shapes with strings; their specials are
/// the empty string, embedded NULs and non-ASCII bytes.
enum class Pattern {
  kConstant,
  kMonotone,
  kFewDistinct,   // 90% one value, rest from a 4-value set
  kRandom,
  kSpecials,      // NaN, ±inf, ±0, denormals interleaved
};

const char* PatternName(Pattern p) {
  switch (p) {
    case Pattern::kConstant: return "constant";
    case Pattern::kMonotone: return "monotone";
    case Pattern::kFewDistinct: return "few_distinct";
    case Pattern::kRandom: return "random";
    case Pattern::kSpecials: return "specials";
  }
  return "?";
}

/// Null densities: none, sparse, half (alternating), all.
enum class Nulls { kNone, kSparse, kAlternating, kAll };

const char* NullsName(Nulls n) {
  switch (n) {
    case Nulls::kNone: return "none";
    case Nulls::kSparse: return "sparse";
    case Nulls::kAlternating: return "alternating";
    case Nulls::kAll: return "all";
  }
  return "?";
}

bool RowIsNull(Nulls mode, size_t r) {
  switch (mode) {
    case Nulls::kNone: return false;
    case Nulls::kSparse: return r % 37 == 5;
    case Nulls::kAlternating: return r % 2 == 1;
    case Nulls::kAll: return true;
  }
  return false;
}

const char* TypeName(DataType type) {
  switch (type) {
    case DataType::kDouble: return "double";
    case DataType::kInt64: return "int64";
    case DataType::kVarchar: return "varchar";
  }
  return "?";
}

/// Builds a column of `rows` values following the pattern. NULL slots
/// get the canonical 0 / 0.0 / "" the decoder also writes, so equality
/// of the value arrays is well-defined.
ColumnVector MakeColumn(DataType type, Pattern pattern, Nulls nulls,
                        size_t rows) {
  ColumnVector col;
  col.Reset(type, rows);
  uint64_t rng = 0x5eed0000 + rows;
  for (size_t r = 0; r < rows; ++r) {
    if (RowIsNull(nulls, r)) {
      NullBitSet(col.null_bits.data(), r);
      col.null_count++;
      continue;  // Reset already zeroed the value slot
    }
    if (type == DataType::kVarchar) {
      std::string v;
      switch (pattern) {
        case Pattern::kConstant: v = "constant"; break;
        case Pattern::kMonotone: v = std::to_string(r); break;
        case Pattern::kFewDistinct: {
          const uint64_t u = Mix(&rng);
          static const char* const kSet[4] = {"", "a", "few", "distinct"};
          v = (u % 10 < 9) ? "common" : kSet[u % 4];
          break;
        }
        case Pattern::kRandom: {
          v.resize(Mix(&rng) % 64);
          for (char& c : v) c = static_cast<char>(Mix(&rng));
          break;
        }
        case Pattern::kSpecials: {
          static const std::string kSpecials[] = {
              "", std::string(1, '\0'), "\xff\xfe", std::string(300, 'z'),
              " ", "NULL"};
          v = kSpecials[r % 6];
          break;
        }
      }
      col.strings[r] = std::move(v);
    } else if (type == DataType::kDouble) {
      double v = 0;
      switch (pattern) {
        case Pattern::kConstant: v = 42.5; break;
        case Pattern::kMonotone: v = static_cast<double>(r) * 0.25; break;
        case Pattern::kFewDistinct: {
          const uint64_t u = Mix(&rng);
          static const double kSet[4] = {1.5, -2.25, 1e300, 0.0};
          v = (u % 10 < 9) ? 7.75 : kSet[u % 4];
          break;
        }
        case Pattern::kRandom: v = BitsToDouble(Mix(&rng) | 1); break;
        case Pattern::kSpecials: {
          static const double kSpecials[] = {
              std::numeric_limits<double>::quiet_NaN(),
              std::numeric_limits<double>::infinity(),
              -std::numeric_limits<double>::infinity(),
              0.0,
              -0.0,
              std::numeric_limits<double>::denorm_min(),
              -std::numeric_limits<double>::denorm_min(),
              std::numeric_limits<double>::max(),
          };
          v = kSpecials[r % 8];
          break;
        }
      }
      col.doubles[r] = v;
    } else {
      int64_t v = 0;
      switch (pattern) {
        case Pattern::kConstant: v = -7; break;
        case Pattern::kMonotone:
          // Narrow range around a large base: the FOR sweet spot.
          v = 1'000'000'000'000LL + static_cast<int64_t>(r);
          break;
        case Pattern::kFewDistinct: {
          const uint64_t u = Mix(&rng);
          static const int64_t kSet[4] = {0, -1, INT64_MAX, INT64_MIN};
          v = (u % 10 < 9) ? 13 : kSet[u % 4];
          break;
        }
        case Pattern::kRandom:
          v = static_cast<int64_t>(Mix(&rng));
          break;
        case Pattern::kSpecials: {
          static const int64_t kEdge[] = {INT64_MIN, INT64_MAX, 0, -1, 1};
          v = kEdge[r % 5];
          break;
        }
      }
      col.ints[r] = v;
    }
  }
  return col;
}

/// Bit-exact column equality (doubles compared as bit patterns).
void ExpectColumnsBitEqual(const ColumnVector& a, const ColumnVector& b,
                           const std::string& what) {
  ASSERT_EQ(a.type, b.type) << what;
  ASSERT_EQ(a.null_count, b.null_count) << what;
  const size_t rows = a.size();
  ASSERT_EQ(rows, b.size()) << what;
  for (size_t r = 0; r < rows; ++r) {
    const bool null_a =
        a.null_count > 0 && NullBitGet(a.null_bits.data(), r);
    const bool null_b =
        b.null_count > 0 && NullBitGet(b.null_bits.data(), r);
    ASSERT_EQ(null_a, null_b) << what << " row " << r;
    if (a.type == DataType::kDouble) {
      ASSERT_EQ(DoubleToBits(a.doubles[r]), DoubleToBits(b.doubles[r]))
          << what << " row " << r;
    } else if (a.type == DataType::kInt64) {
      ASSERT_EQ(a.ints[r], b.ints[r]) << what << " row " << r;
    } else {
      ASSERT_EQ(a.strings[r], b.strings[r]) << what << " row " << r;
    }
  }
}

// Boundary row counts: empty, single, and the pack-boundary trio
// around 1024 (bit-packed index words and RLE run splits all have
// word-boundary edges near powers of two).
const size_t kRowCounts[] = {0, 1, 1023, 1024, 1025};

TEST(ColumnCodecProperty, RoundTripsBitExactEverywhere) {
  for (const DataType type :
       {DataType::kDouble, DataType::kInt64, DataType::kVarchar}) {
    for (const Pattern pattern :
         {Pattern::kConstant, Pattern::kMonotone, Pattern::kFewDistinct,
          Pattern::kRandom, Pattern::kSpecials}) {
      for (const Nulls nulls : {Nulls::kNone, Nulls::kSparse,
                                Nulls::kAlternating, Nulls::kAll}) {
        for (const size_t rows : kRowCounts) {
          const std::string what =
              std::string(TypeName(type)) +
              "/" + PatternName(pattern) + "/nulls=" + NullsName(nulls) +
              "/rows=" + std::to_string(rows);
          const ColumnVector original = MakeColumn(type, pattern, nulls, rows);
          std::string encoded;
          NLQ_ASSERT_OK_AND_ASSIGN(
              const size_t bytes, EncodeColumnBlock(original, rows, &encoded));
          ASSERT_EQ(bytes, encoded.size()) << what;
          ASSERT_GE(bytes, ColumnBlockHeader::kEncodedSize) << what;
          const size_t bitmap =
              original.null_count > 0
                  ? NullBitmapWords(rows) * sizeof(uint64_t)
                  : 0;
          if (type == DataType::kVarchar) {
            // One plain layout: header + u32 length/row + bytes + bitmap.
            size_t string_bytes = 0;
            for (const std::string& v : original.strings) {
              string_bytes += v.size();
            }
            ASSERT_EQ(bytes, ColumnBlockHeader::kEncodedSize + rows * 4 +
                                 string_bytes + bitmap)
                << what;
          } else {
            // Plain is the ceiling: header + 8 bytes/row + bitmap.
            ASSERT_LE(bytes,
                      ColumnBlockHeader::kEncodedSize + rows * 8 + bitmap)
                << what;
          }

          ColumnVector decoded;
          size_t pos = 0;
          const Status s =
              DecodeColumnBlock(encoded.data(), encoded.size(), &pos, &decoded);
          ASSERT_TRUE(s.ok()) << what << ": " << s.ToString();
          ASSERT_EQ(pos, encoded.size()) << what;
          ExpectColumnsBitEqual(original, decoded, what);
        }
      }
    }
  }
}

TEST(ColumnCodecProperty, CompressiblePatternsActuallyCompress) {
  // Not just correctness: constant and monotone blocks must beat plain
  // by a wide margin, or the spill layer's compression ratio claim is
  // hollow.
  const size_t rows = 4096;
  const size_t plain_bytes = ColumnBlockHeader::kEncodedSize + rows * 8;

  ColumnVector constant =
      MakeColumn(DataType::kDouble, Pattern::kConstant, Nulls::kNone, rows);
  std::string enc;
  NLQ_ASSERT_OK(EncodeColumnBlock(constant, rows, &enc).status());
  EXPECT_LT(enc.size() * 20, plain_bytes) << "RLE on a constant column";

  ColumnVector monotone =
      MakeColumn(DataType::kInt64, Pattern::kMonotone, Nulls::kNone, rows);
  enc.clear();
  NLQ_ASSERT_OK(EncodeColumnBlock(monotone, rows, &enc).status());
  EXPECT_LT(enc.size() * 4, plain_bytes) << "FOR on a monotone BIGINT column";

  ColumnVector skewed = MakeColumn(DataType::kDouble, Pattern::kFewDistinct,
                                   Nulls::kNone, rows);
  enc.clear();
  NLQ_ASSERT_OK(EncodeColumnBlock(skewed, rows, &enc).status());
  EXPECT_LT(enc.size() * 4, plain_bytes) << "dict on a 5-distinct column";
}

// ---------------------------------------------------------------------------
// Corruption: every mutation/truncation must fail with kCorruption.
// ---------------------------------------------------------------------------

std::string EncodeSample(Pattern pattern, DataType type) {
  const ColumnVector col = MakeColumn(type, pattern, Nulls::kSparse, 257);
  std::string out;
  EXPECT_TRUE(EncodeColumnBlock(col, 257, &out).ok());
  return out;
}

void ExpectCorruption(const std::string& bytes, const std::string& what) {
  ColumnVector col;
  size_t pos = 0;
  const Status s = DecodeColumnBlock(bytes.data(), bytes.size(), &pos, &col);
  ASSERT_FALSE(s.ok()) << what;
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << what << ": " << s.ToString();
}

TEST(ColumnCodecCorruption, TruncationAtEveryBoundaryFailsCleanly) {
  for (const DataType type : {DataType::kDouble, DataType::kVarchar}) {
    for (const Pattern pattern :
         {Pattern::kConstant, Pattern::kMonotone, Pattern::kFewDistinct,
          Pattern::kRandom}) {
      const std::string full = EncodeSample(pattern, type);
      // Cut at the header, inside the payload, and one byte short.
      for (const size_t cut :
           {size_t{0}, size_t{1}, ColumnBlockHeader::kEncodedSize - 1,
            ColumnBlockHeader::kEncodedSize, full.size() / 2,
            full.size() - 1}) {
        if (cut >= full.size()) continue;
        ExpectCorruption(full.substr(0, cut),
                         std::string(TypeName(type)) + "/" +
                             PatternName(pattern) + " cut at " +
                             std::to_string(cut));
      }
    }
  }
}

TEST(ColumnCodecCorruption, HeaderFieldMutationsFailCleanly) {
  struct Mutation {
    size_t offset;
    char value;
    const char* what;
  };
  const Mutation mutations[] = {
      {0, 'X', "magic low byte"},
      {1, 'X', "magic high byte"},
      {2, 99, "version"},
      {4, 77, "codec id"},
      {5, 9, "type id"},
      {8, '\xff', "row count low byte"},
      {9, '\x7f', "row count past a chunk"},
      {12, '\xff', "payload size low byte"},
      {16, '\x7f', "null bytes"},
  };
  for (const DataType type : {DataType::kInt64, DataType::kVarchar}) {
    const std::string full = EncodeSample(Pattern::kFewDistinct, type);
    for (const Mutation& m : mutations) {
      std::string bytes = full;
      ASSERT_LT(m.offset, bytes.size());
      bytes[m.offset] = m.value;
      ExpectCorruption(bytes, std::string(TypeName(type)) + " " + m.what);
    }
  }
  // A VARCHAR block is always plain: any compressing codec id is bad.
  std::string bytes = EncodeSample(Pattern::kFewDistinct, DataType::kVarchar);
  bytes[4] = static_cast<char>(ColumnCodec::kRle);
  ExpectCorruption(bytes, "VARCHAR block claiming RLE");
}

TEST(ColumnCodecCorruption, VarcharLengthOverrunFailsCleanly) {
  // Inflating one string length past the payload must be rejected, not
  // read past the block.
  std::string bytes = EncodeSample(Pattern::kRandom, DataType::kVarchar);
  const uint32_t huge = 0x7fffffff;
  std::memcpy(bytes.data() + ColumnBlockHeader::kEncodedSize + 4, &huge,
              sizeof(huge));
  ExpectCorruption(bytes, "inflated VARCHAR length");
}

TEST(ColumnCodecCorruption, RlePayloadOverrunFailsCleanly) {
  // A constant column encodes as RLE; inflating the first run length
  // past the row count must be rejected, not write out of bounds.
  const ColumnVector col =
      MakeColumn(DataType::kDouble, Pattern::kConstant, Nulls::kNone, 100);
  std::string bytes;
  NLQ_ASSERT_OK(EncodeColumnBlock(col, 100, &bytes).status());
  ColumnBlockHeader h;
  {
    size_t pos = 0;
    auto peeked = PeekColumnBlockHeader(bytes.data(), bytes.size(), &pos);
    ASSERT_TRUE(peeked.ok());
    h = *peeked;
  }
  ASSERT_EQ(static_cast<ColumnCodec>(h.codec), ColumnCodec::kRle);
  // First payload field is the u32 run length; quadruple it.
  const size_t run_off = ColumnBlockHeader::kEncodedSize;
  uint32_t run = 0;
  std::memcpy(&run, bytes.data() + run_off, sizeof(run));
  run *= 4;
  std::memcpy(bytes.data() + run_off, &run, sizeof(run));
  ExpectCorruption(bytes, "inflated RLE run length");
}

TEST(ColumnCodecCorruption, DictIndexOutOfRangeFailsCleanly) {
  // A round-robin over 5 values has no runs, so the encoder lands on
  // the dictionary codec deterministically (width 3, indices 0..4).
  ColumnVector col;
  col.Reset(DataType::kDouble, 512);
  static const double kVals[5] = {1.5, -2.25, 3.75, 7.0, -0.5};
  for (size_t r = 0; r < 512; ++r) col.doubles[r] = kVals[r % 5];
  std::string bytes;
  NLQ_ASSERT_OK(EncodeColumnBlock(col, 512, &bytes).status());
  ColumnBlockHeader h;
  size_t payload = 0;
  {
    size_t pos = 0;
    auto peeked = PeekColumnBlockHeader(bytes.data(), bytes.size(), &pos);
    ASSERT_TRUE(peeked.ok());
    h = *peeked;
    payload = pos;
  }
  ASSERT_EQ(static_cast<ColumnCodec>(h.codec), ColumnCodec::kDict);
  uint32_t dict_size = 0;
  std::memcpy(&dict_size, bytes.data() + payload, sizeof(dict_size));
  ASSERT_EQ(dict_size, 5u);
  // Force the first packed index word to all-ones: index 7 >= 5 must
  // be rejected, not read past the dictionary.
  const size_t packed_off = payload + 4 + dict_size * 8;
  ASSERT_LT(packed_off, bytes.size());
  bytes[packed_off] = '\xff';
  ExpectCorruption(bytes, "dict index out of range");
}

TEST(ColumnCodecCorruption, GarbageBufferNeverDecodes) {
  // 64 deterministic garbage buffers of assorted sizes: none may
  // decode successfully, none may crash.
  uint64_t rng = 0xbadf00d;
  for (int i = 0; i < 64; ++i) {
    const size_t size = (Mix(&rng) % 4096) + 1;
    std::string bytes(size, '\0');
    for (char& c : bytes) c = static_cast<char>(Mix(&rng));
    ColumnVector col;
    size_t pos = 0;
    const Status s = DecodeColumnBlock(bytes.data(), bytes.size(), &pos, &col);
    // A garbage buffer virtually never carries the magic, but if it
    // does the structural checks behind it still apply; either way the
    // decode must return (not crash) and only OK when truly valid.
    if (s.ok()) {
      // Astronomically unlikely; if it ever happens, the decode must
      // at least have consumed a structurally complete block.
      EXPECT_LE(pos, bytes.size());
    }
  }
}

TEST(ColumnCodecPeek, SkipsBlocksWithoutDecoding) {
  // Peek must report the exact encoded extent so multi-column chunk
  // readers can skip non-projected columns.
  std::string stream;
  std::vector<size_t> sizes;
  for (const Pattern p : {Pattern::kConstant, Pattern::kRandom,
                          Pattern::kFewDistinct}) {
    const ColumnVector col = MakeColumn(DataType::kDouble, p,
                                        Nulls::kSparse, 300);
    NLQ_ASSERT_OK_AND_ASSIGN(const size_t bytes,
                             EncodeColumnBlock(col, 300, &stream));
    sizes.push_back(bytes);
  }
  size_t pos = 0;
  for (const size_t expected : sizes) {
    size_t header_pos = pos;
    auto h = PeekColumnBlockHeader(stream.data(), stream.size(), &header_pos);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_EQ(ColumnBlockBytes(*h), expected);
    pos += ColumnBlockBytes(*h);
  }
  EXPECT_EQ(pos, stream.size());
}

}  // namespace
}  // namespace nlq::storage
