#include "storage/value.h"

#include <functional>

#include "common/strings.h"

namespace nlq::storage {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kInt64:
      return "BIGINT";
    case DataType::kVarchar:
      return "VARCHAR";
  }
  return "?";
}

bool Datum::KeyEquals(const Datum& other) const {
  if (is_null_ || other.is_null_) return is_null_ && other.is_null_;
  if (type_ != other.type_) {
    // Numeric cross-type comparison.
    if (type_ != DataType::kVarchar && other.type_ != DataType::kVarchar) {
      return AsDouble() == other.AsDouble();
    }
    return false;
  }
  switch (type_) {
    case DataType::kDouble:
      return double_ == other.double_;
    case DataType::kInt64:
      return int_ == other.int_;
    case DataType::kVarchar:
      return string_ == other.string_;
  }
  return false;
}

size_t NumericKeyHash(double v) { return std::hash<double>()(v); }

size_t Datum::KeyHash() const {
  if (is_null_) return kNullKeyHash;
  switch (type_) {
    case DataType::kDouble:
      return NumericKeyHash(double_);
    case DataType::kInt64:
      return NumericKeyHash(static_cast<double>(int_));
    case DataType::kVarchar:
      return std::hash<std::string>()(string_);
  }
  return 0;
}

std::string Datum::ToString() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case DataType::kDouble:
      return DoubleToString(double_);
    case DataType::kInt64:
      return std::to_string(int_);
    case DataType::kVarchar:
      return string_;
  }
  return "?";
}

}  // namespace nlq::storage
