#include "storage/column_vector.h"

#include <algorithm>
#include <functional>

namespace nlq::storage {

void ColumnVector::Reset(DataType t, size_t rows) {
  type = t;
  // Value slots may keep stale data from the previous cycle (a steady-
  // state resize to the same size is a no-op); the decoder overwrites
  // every live slot, writing 0 / 0.0 / "" at NULL positions.
  doubles.resize(t == DataType::kDouble ? rows : 0);
  ints.resize(t == DataType::kInt64 ? rows : 0);
  strings.resize(t == DataType::kVarchar ? rows : 0);
  null_bits.assign(NullBitmapWords(rows), 0);
  null_count = 0;
}

void ColumnVector::Append(const Datum& v) {
  const size_t r = size();
  // A NULL Datum reads as 0 / 0.0 / "" here: the canonical slot value.
  switch (type) {
    case DataType::kDouble:
      doubles.push_back(v.AsDouble());
      break;
    case DataType::kInt64:
      ints.push_back(v.type() == DataType::kInt64
                         ? v.int_value()
                         : static_cast<int64_t>(v.AsDouble()));
      break;
    case DataType::kVarchar:
      strings.push_back(v.string_value());
      break;
  }
  if (!v.is_null() && null_count == 0) return;
  if (null_bits.size() < NullBitmapWords(r + 1)) {
    null_bits.resize(NullBitmapWords(r + 1), 0);
  }
  if (v.is_null()) {
    NullBitSet(null_bits.data(), r);
    ++null_count;
  }
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t begin,
                               size_t count) {
  const size_t r0 = size();
  auto append = [&](auto* values, const auto& from) {
    if (r0 + count > values->capacity()) {
      values->reserve(std::max(
          r0 + count, std::min(2 * values->capacity(), kChunkRows)));
    }
    values->insert(values->end(), from.begin() + begin,
                   from.begin() + begin + count);
  };
  switch (type) {
    case DataType::kDouble:
      append(&doubles, src.doubles);
      break;
    case DataType::kInt64:
      append(&ints, src.ints);
      break;
    case DataType::kVarchar:
      append(&strings, src.strings);
      break;
  }
  if (!src.has_nulls() && null_count == 0) return;
  null_bits.resize(NullBitmapWords(r0 + count), 0);
  if (!src.has_nulls()) return;
  for (size_t r = 0; r < count; ++r) {
    if (NullBitGet(src.null_bits.data(), begin + r)) {
      NullBitSet(null_bits.data(), r0 + r);
      ++null_count;
    }
  }
}

size_t ColumnVector::size() const {
  switch (type) {
    case DataType::kDouble:
      return doubles.size();
    case DataType::kInt64:
      return ints.size();
    case DataType::kVarchar:
      return strings.size();
  }
  return 0;
}

size_t ColumnVector::KeyHash(size_t r) const {
  if (has_nulls() && NullBitGet(null_bits.data(), r)) return kNullKeyHash;
  switch (type) {
    case DataType::kDouble:
      return NumericKeyHash(doubles[r]);
    case DataType::kInt64:
      return NumericKeyHash(static_cast<double>(ints[r]));
    case DataType::kVarchar:
      return std::hash<std::string>()(strings[r]);
  }
  return 0;
}

}  // namespace nlq::storage
