#include "udf/udf.h"

#include "common/strings.h"

namespace nlq::udf {

using storage::DataType;
using storage::Datum;

Datum SpanArg::Box(size_t r) const {
  if (constant != nullptr) return *constant;
  if (is_null(r)) return Datum::Null(type);
  return d != nullptr ? Datum::Double(d[r]) : Datum::Int64(i[r]);
}

Status ScalarUdf::InvokeSpans(const std::vector<SpanArg>& args, size_t rows,
                              const SpanOutput& out) const {
  std::vector<Datum> row(args.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < args.size(); ++a) row[a] = args[a].Box(r);
    NLQ_ASSIGN_OR_RETURN(Datum value, Invoke(row));
    NLQ_ASSIGN_OR_RETURN(value, ConformResult(std::move(value)));
    if (value.is_null()) {
      storage::NullBitSet(out.nulls, r);
      if (out.d != nullptr) out.d[r] = 0.0;
      if (out.i != nullptr) out.i[r] = 0;
    } else if (out.d != nullptr) {
      out.d[r] = value.double_value();
    } else {
      out.i[r] = value.int_value();
    }
  }
  return Status::OK();
}

StatusOr<Datum> ScalarUdf::ConformResult(Datum value) const {
  const DataType want = return_type();
  if (value.is_null()) return Datum::Null(want);
  if (value.type() == want) return value;
  if (want == DataType::kDouble && value.type() == DataType::kInt64) {
    return Datum::Double(value.AsDouble());
  }
  return Status::Internal("scalar UDF " + name() + " returned " +
                          storage::DataTypeName(value.type()) + ", declared " +
                          storage::DataTypeName(want));
}

Status UdfRegistry::RegisterScalar(std::unique_ptr<ScalarUdf> udf) {
  const std::string key = AsciiToLower(udf->name());
  if (scalars_.count(key) > 0) {
    return Status::AlreadyExists("scalar UDF '" + key + "' already registered");
  }
  scalars_[key] = std::move(udf);
  return Status::OK();
}

Status UdfRegistry::RegisterAggregate(std::unique_ptr<AggregateUdf> udf) {
  const std::string key = AsciiToLower(udf->name());
  if (aggregates_.count(key) > 0) {
    return Status::AlreadyExists("aggregate UDF '" + key +
                                 "' already registered");
  }
  aggregates_[key] = std::move(udf);
  return Status::OK();
}

const ScalarUdf* UdfRegistry::FindScalar(const std::string& name) const {
  const auto it = scalars_.find(AsciiToLower(name));
  return it == scalars_.end() ? nullptr : it->second.get();
}

const AggregateUdf* UdfRegistry::FindAggregate(const std::string& name) const {
  const auto it = aggregates_.find(AsciiToLower(name));
  return it == aggregates_.end() ? nullptr : it->second.get();
}

std::vector<std::string> UdfRegistry::ScalarNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : scalars_) names.push_back(name);
  return names;
}

std::vector<std::string> UdfRegistry::AggregateNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : aggregates_) names.push_back(name);
  return names;
}

}  // namespace nlq::udf
