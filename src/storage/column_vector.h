#ifndef NLQ_STORAGE_COLUMN_VECTOR_H_
#define NLQ_STORAGE_COLUMN_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/value.h"

namespace nlq::storage {

/// Rows per column chunk — the one physical-layout constant. Every
/// table partition is a run of chunks of this many rows (the last one
/// is the open tail taking appends); spill and snapshot files encode
/// the same chunks, and a spilled scan decodes one chunk at a time.
inline constexpr size_t kChunkRows = 4096;

/// Null-bitmap helpers: bit `r` set means row `r` is NULL. The bitmap
/// is an array of 64-bit words, LSB-first within a word.
inline size_t NullBitmapWords(size_t rows) { return (rows + 63) / 64; }
inline bool NullBitGet(const uint64_t* bits, size_t r) {
  return (bits[r >> 6] >> (r & 63)) & 1;
}
inline void NullBitSet(uint64_t* bits, size_t r) {
  bits[r >> 6] |= uint64_t{1} << (r & 63);
}

/// One column of a chunk in SoA form: a typed contiguous value array
/// plus a null bitmap. NULL rows hold 0/0.0/"" in the value array (a
/// defined value; consumers must consult the bitmap — see `null_count`
/// for the common fast path where no bitmap checks are needed at all).
/// Whenever `null_count > 0` the bitmap covers every row.
///
/// DOUBLE and BIGINT columns feed the columnar pipeline as spans;
/// the VARCHAR string lane serves the row path only.
struct ColumnVector {
  DataType type = DataType::kDouble;
  std::vector<double> doubles;       // values when type == kDouble
  std::vector<int64_t> ints;         // values when type == kInt64
  std::vector<std::string> strings;  // values when type == kVarchar
  std::vector<uint64_t> null_bits;   // bit r set = row r NULL
  uint64_t null_count = 0;

  /// Resizes the value array and zeroes the null bitmap for `rows`
  /// rows of type `t` (the codec's decode target). Existing heap
  /// capacity is reused.
  void Reset(DataType t, size_t rows);

  /// Appends `v` as the next row, coerced to the column type (a BIGINT
  /// widens into a DOUBLE column, a DOUBLE truncates into a BIGINT
  /// one; NULL stores the canonical zero / "" slot plus its null bit).
  /// The value array grows geometrically with the rows; the bitmap is
  /// allocated at the first NULL.
  void Append(const Datum& v);

  /// Appends rows [begin, begin + count) of `src`, a column of the same
  /// type, values and null bits alike. The value array grows
  /// geometrically but not past kChunkRows unless the rows need it, so
  /// a chunk filled by several appends keeps no spare capacity.
  void AppendRange(const ColumnVector& src, size_t begin, size_t count);

  /// Rows held.
  size_t size() const;

  /// Datum::KeyHash of row `r`'s value.
  size_t KeyHash(size_t r) const;

  bool has_nulls() const { return null_count > 0; }
  const double* double_data() const { return doubles.data(); }
  const int64_t* int_data() const { return ints.data(); }
};

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_COLUMN_VECTOR_H_
