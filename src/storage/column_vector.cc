#include "storage/column_vector.h"

namespace nlq::storage {

void ColumnVector::Reset(DataType t, size_t rows) {
  type = t;
  // Value slots may keep stale data from the previous cycle (a steady-
  // state resize to the same size is a no-op); the decoder overwrites
  // every live slot, writing 0/0.0 at NULL positions.
  if (t == DataType::kDouble) {
    ints.clear();
    doubles.resize(rows);
  } else {
    doubles.clear();
    ints.resize(rows);
  }
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

}  // namespace nlq::storage
