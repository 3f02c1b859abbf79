#include "stats/scoring.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"
#include "stats/histogram.h"
#include "stats/naive_bayes.h"
#include "stats/nlq_udaf.h"
#include "udf/packing.h"

namespace nlq::stats {

using storage::DataType;
using storage::Datum;

namespace {

// Span-at-a-time helpers for the scoring UDFs' InvokeSpans overrides.
// Each override runs Invoke's per-row arithmetic column by column: row
// r sees the same operations in the same order, so every result is
// bit-identical to Invoke's.

/// IEEE 754 leaves open which payload an operation on two NaNs
/// returns, and compilers commute the operands of + and * freely, so
/// the DOUBLE scoring UDFs return every NaN result as the one quiet
/// NaN: Invoke and InvokeSpans then agree bit for bit.
double CanonicalNan(double v) {
  return v != v ? std::numeric_limits<double>::quiet_NaN() : v;
}

void CanonicalizeNans(double* out, size_t rows) {
  for (size_t r = 0; r < rows; ++r) out[r] = CanonicalNan(out[r]);
}

/// One argument read the way Invoke reads it (Datum::AsDouble: NULL is
/// 0.0, BIGINT widens): the constant `c` when `p` is null, else the
/// span `p`.
struct DoubleLane {
  const double* p = nullptr;
  double c = 0.0;
};

/// Reads `arg` as a DoubleLane; a span with NULLs or BIGINT values is
/// converted into `buf`, a NULL-free DOUBLE span is used in place.
DoubleLane ReadLane(const udf::SpanArg& arg, size_t rows,
                    std::vector<double>* buf) {
  DoubleLane lane;
  if (arg.constant != nullptr) {
    lane.c = arg.constant->AsDouble();
  } else if (arg.d != nullptr && arg.nulls == nullptr) {
    lane.p = arg.d;
  } else {
    buf->resize(rows);
    for (size_t r = 0; r < rows; ++r) (*buf)[r] = arg.AsDouble(r);
    lane.p = buf->data();
  }
  return lane;
}

/// Calls f(r, a[r], b[r]) for every row, with one loop per
/// constant/span combination, so no loop tests per row whether an
/// argument is a constant, NULL or BIGINT. On build_resident this cuts
/// score_ms by about 15 % against plain SpanArg::AsDouble loops
/// (EXPERIMENTS.md, "Scoring on the columnar pipeline").
template <typename F>
void ForEachRow(const DoubleLane& a, const DoubleLane& b, size_t rows, F f) {
  if (a.p != nullptr && b.p != nullptr) {
    for (size_t r = 0; r < rows; ++r) f(r, a.p[r], b.p[r]);
  } else if (a.p != nullptr) {
    for (size_t r = 0; r < rows; ++r) f(r, a.p[r], b.c);
  } else if (b.p != nullptr) {
    for (size_t r = 0; r < rows; ++r) f(r, a.c, b.p[r]);
  } else {
    for (size_t r = 0; r < rows; ++r) f(r, a.c, b.c);
  }
}

class PackPointUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "pack_point";
    return kName;
  }
  DataType return_type() const override { return DataType::kVarchar; }

  Status CheckArity(size_t num_args) const override {
    if (num_args == 0) {
      return Status::InvalidArgument("pack_point needs at least one argument");
    }
    return Status::OK();
  }

  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    // A NULL component makes the whole packed point NULL, so the
    // consuming aggregate applies the same skip-row policy as the
    // list style — coercing to 0.0 here would silently bias L and Q
    // (caught by differential_query_test's list-vs-string sweep).
    for (const Datum& arg : args) {
      if (arg.is_null()) return Datum::Null(DataType::kVarchar);
    }
    // The run-time cast of floating point numbers to text the paper
    // identifies as the string-style overhead.
    std::string packed;
    packed.reserve(args.size() * 12);
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) packed.push_back(udf::kPackSeparator);
      AppendDouble(&packed, args[i].AsDouble());
    }
    return Datum::Varchar(std::move(packed));
  }
};

class LinearRegScoreUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "linearregscore";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }

  Status CheckArity(size_t num_args) const override {
    // d x-values + (d + 1) coefficients.
    if (num_args < 3 || num_args % 2 == 0) {
      return Status::InvalidArgument(
          "linearregscore(X1..Xd, b0, b1..bd) needs 2d+1 arguments");
    }
    return Status::OK();
  }

  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    const size_t d = (args.size() - 1) / 2;
    double yhat = args[d].AsDouble();  // b0
    for (size_t a = 0; a < d; ++a) {
      yhat += args[d + 1 + a].AsDouble() * args[a].AsDouble();
    }
    return Datum::Double(CanonicalNan(yhat));
  }

  Status InvokeSpans(const std::vector<udf::SpanArg>& args, size_t rows,
                     const udf::SpanOutput& out) const override {
    const size_t d = (args.size() - 1) / 2;
    std::vector<double> bbuf, xbuf;
    double* yhat = out.d;
    const DoubleLane b0 = ReadLane(args[d], rows, &bbuf);
    for (size_t r = 0; r < rows; ++r) yhat[r] = b0.p != nullptr ? b0.p[r] : b0.c;
    for (size_t a = 0; a < d; ++a) {
      const DoubleLane b = ReadLane(args[d + 1 + a], rows, &bbuf);
      const DoubleLane x = ReadLane(args[a], rows, &xbuf);
      ForEachRow(b, x, rows,
                 [yhat](size_t r, double bv, double xv) { yhat[r] += bv * xv; });
    }
    CanonicalizeNans(yhat, rows);
    return Status::OK();
  }
};

class FaScoreUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "fascore";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }

  Status CheckArity(size_t num_args) const override {
    if (num_args < 3 || num_args % 3 != 0) {
      return Status::InvalidArgument(
          "fascore(X1..Xd, mu1..mud, l1..ld) needs 3d arguments");
    }
    return Status::OK();
  }

  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    const size_t d = args.size() / 3;
    double score = 0.0;
    for (size_t a = 0; a < d; ++a) {
      score += (args[a].AsDouble() - args[d + a].AsDouble()) *
               args[2 * d + a].AsDouble();
    }
    return Datum::Double(CanonicalNan(score));
  }

  Status InvokeSpans(const std::vector<udf::SpanArg>& args, size_t rows,
                     const udf::SpanOutput& out) const override {
    const size_t d = args.size() / 3;
    std::vector<double> xbuf, mbuf, lbuf, centered(rows);
    double* score = out.d;
    double* diff = centered.data();
    std::fill(score, score + rows, 0.0);
    for (size_t a = 0; a < d; ++a) {
      const DoubleLane x = ReadLane(args[a], rows, &xbuf);
      const DoubleLane mu = ReadLane(args[d + a], rows, &mbuf);
      ForEachRow(x, mu, rows,
                 [diff](size_t r, double xv, double mv) { diff[r] = xv - mv; });
      const DoubleLane l = ReadLane(args[2 * d + a], rows, &lbuf);
      ForEachRow(DoubleLane{diff, 0.0}, l, rows,
                 [score](size_t r, double dv, double lv) {
                   score[r] += dv * lv;
                 });
    }
    CanonicalizeNans(score, rows);
    return Status::OK();
  }
};

class KMeansDistanceUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "kmeansdistance";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }

  Status CheckArity(size_t num_args) const override {
    if (num_args < 2 || num_args % 2 != 0) {
      return Status::InvalidArgument(
          "kmeansdistance(X1..Xd, c1..cd) needs 2d arguments");
    }
    return Status::OK();
  }

  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    const size_t d = args.size() / 2;
    double dist = 0.0;
    for (size_t a = 0; a < d; ++a) {
      const double diff = args[a].AsDouble() - args[d + a].AsDouble();
      dist += diff * diff;
    }
    return Datum::Double(CanonicalNan(dist));
  }

  Status InvokeSpans(const std::vector<udf::SpanArg>& args, size_t rows,
                     const udf::SpanOutput& out) const override {
    const size_t d = args.size() / 2;
    std::vector<double> xbuf, cbuf;
    double* dist = out.d;
    std::fill(dist, dist + rows, 0.0);
    for (size_t a = 0; a < d; ++a) {
      const DoubleLane x = ReadLane(args[a], rows, &xbuf);
      const DoubleLane c = ReadLane(args[d + a], rows, &cbuf);
      ForEachRow(x, c, rows, [dist](size_t r, double xv, double cv) {
        const double diff = xv - cv;
        dist[r] += diff * diff;
      });
    }
    CanonicalizeNans(dist, rows);
    return Status::OK();
  }
};

class ClusterScoreUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "clusterscore";
    return kName;
  }
  DataType return_type() const override { return DataType::kInt64; }

  Status CheckArity(size_t num_args) const override {
    if (num_args == 0) {
      return Status::InvalidArgument(
          "clusterscore(d1, ..., dk) needs at least one distance");
    }
    return Status::OK();
  }

  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < args.size(); ++j) {
      if (args[j].is_null()) continue;
      const double dist = args[j].AsDouble();
      if (dist < best_dist) {
        best_dist = dist;
        best = j + 1;  // the paper's J subscript is 1-based
      }
    }
    if (best == 0) return Datum::Null(DataType::kInt64);
    return Datum::Int64(static_cast<int64_t>(best));
  }

  Status InvokeSpans(const std::vector<udf::SpanArg>& args, size_t rows,
                     const udf::SpanOutput& out) const override {
    std::vector<double> buf;
    std::vector<double> best_dist(rows,
                                  std::numeric_limits<double>::infinity());
    int64_t* best = out.i;
    std::fill(best, best + rows, int64_t{0});
    for (size_t j = 0; j < args.size(); ++j) {
      const udf::SpanArg& arg = args[j];
      const int64_t label = static_cast<int64_t>(j + 1);
      if (arg.constant != nullptr && arg.constant->is_null()) continue;
      const DoubleLane lane = ReadLane(arg, rows, &buf);
      for (size_t r = 0; r < rows; ++r) {
        if (arg.nulls != nullptr && arg.is_null(r)) continue;
        const double dist = lane.p != nullptr ? lane.p[r] : lane.c;
        if (dist < best_dist[r]) {
          best_dist[r] = dist;
          best[r] = label;
        }
      }
    }
    for (size_t r = 0; r < rows; ++r) {
      if (best[r] == 0) storage::NullBitSet(out.nulls, r);
    }
    return Status::OK();
  }
};

std::string ColumnList(const std::string& prefix, size_t d,
                       const char* base = "X") {
  std::string out;
  for (size_t a = 1; a <= d; ++a) {
    if (a > 1) out += ", ";
    if (!prefix.empty()) {
      out += prefix;
      out += '.';
    }
    out += base + std::to_string(a);
  }
  return out;
}

/// "T1.j = 1 AND T2.j = 2 AND ..." predicates for aliased model-table
/// copies (the paper's "cross-joined k times (with aliasing)").
std::string AliasPredicates(const std::string& alias_base, size_t k) {
  std::string out;
  for (size_t j = 1; j <= k; ++j) {
    if (j > 1) out += " AND ";
    out += StringPrintf("%s%zu.j = %zu", alias_base.c_str(), j, j);
  }
  return out;
}

std::string AliasedFromList(const std::string& table,
                            const std::string& alias_base, size_t k) {
  std::string out;
  for (size_t j = 1; j <= k; ++j) {
    out += StringPrintf(", %s %s%zu", table.c_str(), alias_base.c_str(), j);
  }
  return out;
}

/// clusterscore(kmeansdistance(X, C1), ..., kmeansdistance(X, Ck)) over
/// the aliased centroid copies C1..Ck.
std::string ClusterScoreCall(const std::string& x_table, size_t d, size_t k) {
  std::string sql = "clusterscore(";
  for (size_t j = 1; j <= k; ++j) {
    if (j > 1) sql += ", ";
    sql += StringPrintf("kmeansdistance(%s, %s)",
                        ColumnList(x_table, d).c_str(),
                        ColumnList("C" + std::to_string(j), d).c_str());
  }
  return sql + ")";
}

}  // namespace

Status RegisterScoringUdfs(udf::UdfRegistry* registry) {
  NLQ_RETURN_IF_ERROR(registry->RegisterScalar(std::make_unique<PackPointUdf>()));
  NLQ_RETURN_IF_ERROR(
      registry->RegisterScalar(std::make_unique<LinearRegScoreUdf>()));
  NLQ_RETURN_IF_ERROR(registry->RegisterScalar(std::make_unique<FaScoreUdf>()));
  NLQ_RETURN_IF_ERROR(
      registry->RegisterScalar(std::make_unique<KMeansDistanceUdf>()));
  return registry->RegisterScalar(std::make_unique<ClusterScoreUdf>());
}

Status RegisterAllStatsUdfs(udf::UdfRegistry* registry) {
  NLQ_RETURN_IF_ERROR(RegisterNlqUdfs(registry));
  NLQ_RETURN_IF_ERROR(RegisterHistogramUdfs(registry));
  NLQ_RETURN_IF_ERROR(RegisterNaiveBayesUdfs(registry));
  return RegisterScoringUdfs(registry);
}

std::string LinRegScoreUdfQuery(const std::string& x_table,
                                const std::string& beta_table, size_t d,
                                const std::string& id_column) {
  std::string sql = "SELECT " + id_column + ", linearregscore(";
  sql += ColumnList(x_table, d);
  sql += ", b0";
  for (size_t a = 1; a <= d; ++a) sql += StringPrintf(", b%zu", a);
  sql += ") AS yhat FROM " + x_table + ", " + beta_table;
  return sql;
}

std::string LinRegScoreSqlQuery(const std::string& x_table,
                                const std::string& beta_table, size_t d,
                                const std::string& id_column) {
  std::string sql = "SELECT " + id_column + ", b0";
  for (size_t a = 1; a <= d; ++a) {
    sql += StringPrintf(" + b%zu * X%zu", a, a);
  }
  sql += " AS yhat FROM " + x_table + ", " + beta_table;
  return sql;
}

std::string PcaScoreUdfQuery(const std::string& x_table,
                             const std::string& mu_table,
                             const std::string& lambda_table, size_t d,
                             size_t k, const std::string& id_column) {
  std::string sql = "SELECT " + id_column;
  for (size_t j = 1; j <= k; ++j) {
    sql += StringPrintf(", fascore(%s, %s, %s) AS f%zu",
                        ColumnList(x_table, d).c_str(),
                        ColumnList("M", d).c_str(),
                        ColumnList("L" + std::to_string(j), d).c_str(), j);
  }
  sql += " FROM " + x_table + ", " + mu_table + " M" +
         AliasedFromList(lambda_table, "L", k);
  sql += " WHERE " + AliasPredicates("L", k);
  return sql;
}

std::string PcaScoreSqlQuery(const std::string& x_table,
                             const std::string& mu_table,
                             const std::string& lambda_table, size_t d,
                             size_t k, const std::string& id_column) {
  std::string sql = "SELECT " + id_column;
  for (size_t j = 1; j <= k; ++j) {
    sql += ", ";
    for (size_t a = 1; a <= d; ++a) {
      if (a > 1) sql += " + ";
      sql += StringPrintf("(%s.X%zu - M.X%zu) * L%zu.X%zu",
                          x_table.c_str(), a, a, j, a);
    }
    sql += StringPrintf(" AS f%zu", j);
  }
  sql += " FROM " + x_table + ", " + mu_table + " M" +
         AliasedFromList(lambda_table, "L", k);
  sql += " WHERE " + AliasPredicates("L", k);
  return sql;
}

std::string KMeansScoreUdfQuery(const std::string& x_table,
                                const std::string& c_table, size_t d, size_t k,
                                const std::string& id_column) {
  std::string sql = "SELECT " + id_column + ", " +
                    ClusterScoreCall(x_table, d, k) + " AS j FROM " + x_table +
                    AliasedFromList(c_table, "C", k);
  sql += " WHERE " + AliasPredicates("C", k);
  return sql;
}

std::string KMeansIterationQuery(const std::string& x_table,
                                 const std::string& c_table, size_t d,
                                 size_t k) {
  const std::string score = ClusterScoreCall(x_table, d, k);
  return "SELECT " + score + " AS j, nlq_list('diag', " +
         ColumnList(x_table, d) + ") AS nlq FROM " + x_table +
         AliasedFromList(c_table, "C", k) + " WHERE " +
         AliasPredicates("C", k) + " GROUP BY " + score;
}

std::string KMeansDistancesSqlQuery(const std::string& x_table,
                                    const std::string& c_table, size_t d,
                                    size_t k, const std::string& id_column) {
  std::string sql = "SELECT " + id_column;
  for (size_t j = 1; j <= k; ++j) {
    sql += ", ";
    for (size_t a = 1; a <= d; ++a) {
      if (a > 1) sql += " + ";
      sql += StringPrintf("(%s.X%zu - C%zu.X%zu) * (%s.X%zu - C%zu.X%zu)",
                          x_table.c_str(), a, j, a, x_table.c_str(), a, j, a);
    }
    sql += StringPrintf(" AS d%zu", j);
  }
  sql += " FROM " + x_table + AliasedFromList(c_table, "C", k);
  sql += " WHERE " + AliasPredicates("C", k);
  return sql;
}

std::string KMeansAssignSqlQuery(const std::string& distances_table, size_t k,
                                 const std::string& id_column) {
  std::string sql = "SELECT " + id_column + ", CASE";
  for (size_t j = 1; j < k; ++j) {
    sql += " WHEN ";
    bool first = true;
    for (size_t other = 1; other <= k; ++other) {
      if (other == j) continue;
      if (!first) sql += " AND ";
      first = false;
      sql += StringPrintf("d%zu <= d%zu", j, other);
    }
    sql += StringPrintf(" THEN %zu", j);
  }
  sql += StringPrintf(" ELSE %zu END AS j FROM %s", k,
                      distances_table.c_str());
  return sql;
}

}  // namespace nlq::stats
