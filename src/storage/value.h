#ifndef NLQ_STORAGE_VALUE_H_
#define NLQ_STORAGE_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nlq::storage {

/// Column types supported by the engine. DOUBLE covers the statistical
/// dimensions X1..Xd; INT64 covers point ids / group keys; VARCHAR is
/// used for packed-vector UDF parameters and model metadata.
enum class DataType : uint8_t {
  kDouble = 0,
  kInt64 = 1,
  kVarchar = 2,
};

/// Returns "DOUBLE", "BIGINT" or "VARCHAR".
const char* DataTypeName(DataType type);

/// Key hash of SQL NULL: every NULL key groups, and routes, together.
inline constexpr size_t kNullKeyHash = 0x9e3779b97f4a7c15ULL;

/// Key hash of a non-NULL numeric key. BIGINT keys hash through
/// double, so 1 and 1.0 group together; std::hash<double> gives +0
/// and -0 one hash.
size_t NumericKeyHash(double v);

/// A single (nullable) SQL value.
///
/// Deliberately a simple tagged struct rather than std::variant: the
/// engine's interpreted expression evaluator touches Datums on every
/// row, and predictable layout keeps that hot path measurable and
/// fair against the compiled UDF path.
class Datum {
 public:
  /// SQL NULL of type DOUBLE (type is refined by context).
  Datum() : type_(DataType::kDouble), is_null_(true) {}

  static Datum Null(DataType type) {
    Datum d;
    d.type_ = type;
    d.is_null_ = true;
    return d;
  }
  static Datum Double(double v) {
    Datum d;
    d.type_ = DataType::kDouble;
    d.is_null_ = false;
    d.double_ = v;
    return d;
  }
  static Datum Int64(int64_t v) {
    Datum d;
    d.type_ = DataType::kInt64;
    d.is_null_ = false;
    d.int_ = v;
    return d;
  }
  static Datum Varchar(std::string v) {
    Datum d;
    d.type_ = DataType::kVarchar;
    d.is_null_ = false;
    d.string_ = std::move(v);
    return d;
  }

  DataType type() const { return type_; }
  bool is_null() const { return is_null_; }

  /// Typed accessors; callers must check the type first.
  double double_value() const { return double_; }
  int64_t int_value() const { return int_; }
  const std::string& string_value() const { return string_; }

  /// Numeric coercion: DOUBLE as-is, INT64 widened; NULL/VARCHAR -> 0.
  double AsDouble() const {
    if (is_null_) return 0.0;
    if (type_ == DataType::kDouble) return double_;
    if (type_ == DataType::kInt64) return static_cast<double>(int_);
    return 0.0;
  }

  /// SQL-style equality for GROUP BY keys (NULLs compare equal).
  bool KeyEquals(const Datum& other) const;

  /// Hash for GROUP BY / partitioning (kNullKeyHash, NumericKeyHash,
  /// or the string hash).
  size_t KeyHash() const;

  /// Display form ("NULL", number, or raw string).
  std::string ToString() const;

 private:
  DataType type_;
  bool is_null_;
  double double_ = 0.0;
  int64_t int_ = 0;
  std::string string_;
};

using Row = std::vector<Datum>;

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_VALUE_H_
