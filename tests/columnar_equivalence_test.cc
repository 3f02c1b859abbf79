// Columnar-vs-row equivalence: the columnar aggregate (ColumnarScan →
// VectorHashAggregate, whose global case feeds the fused N,L,Q span
// kernel) must produce results *byte-identical* to the row path — the
// row path stays in the tree as the correctness oracle. The same query
// is planned both ways via QueryOptions::force_interpreted (which turns
// off expression compilation and every columnar plan shape for that
// statement), and results are compared on exact bit patterns.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.h"
#include "engine/database.h"
#include "stats/sqlgen.h"
#include "stats/sufstats.h"
#include "tests/test_util.h"

namespace nlq::engine {
namespace {

using nlq::testing::MakeTestDatabase;
using storage::DataType;
using storage::Datum;

/// Per-statement override that plans the pure interpreted row path —
/// no columnar pipeline, no compiled programs.
QueryOptions Interpreted() {
  QueryOptions options;
  options.force_interpreted = true;
  return options;
}

/// Renders a result set as an exact signature: doubles by bit
/// pattern, so "equal" means byte-identical, not approximately close.
std::string ExactSignature(const ResultSet& result) {
  std::string out;
  for (const auto& row : result.rows()) {
    for (const Datum& v : row) {
      if (v.is_null()) {
        out += "NULL,";
        continue;
      }
      switch (v.type()) {
        case DataType::kDouble: {
          uint64_t bits = 0;
          const double d = v.double_value();
          std::memcpy(&bits, &d, sizeof(bits));
          out += StringPrintf("d:%016llx,",
                              static_cast<unsigned long long>(bits));
          break;
        }
        case DataType::kInt64:
          out += StringPrintf("i:%lld,",
                              static_cast<long long>(v.int_value()));
          break;
        case DataType::kVarchar:
          out += "s:" + v.string_value() + ",";
          break;
      }
    }
    out += "\n";
  }
  return out;
}

/// Deterministic cell values that round-trip exactly through SQL text:
/// k + m/128 is a dyadic rational with at most 7 decimal digits.
double ValueAt(size_t row, size_t col) {
  const int64_t k = static_cast<int64_t>((row * 37 + col * 11) % 41) - 20;
  const int64_t m = static_cast<int64_t>((row * 13 + col * 7) % 128);
  return static_cast<double>(k) + static_cast<double>(m) / 128.0;
}

void FillTable(Database* db, size_t n, size_t d) {
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "CREATE TABLE X (i BIGINT, x1 DOUBLE, x2 DOUBLE, x3 DOUBLE, "
      "x4 DOUBLE)"));
  ASSERT_EQ(d, 4u);
  std::string insert;
  for (size_t r = 0; r < n; ++r) {
    if (insert.empty()) insert = "INSERT INTO X VALUES ";
    insert += StringPrintf("(%zu", r);
    for (size_t c = 0; c < d; ++c) {
      insert += StringPrintf(", %.7f", ValueAt(r, c));
    }
    insert += ")";
    if ((r + 1) % 128 == 0 || r + 1 == n) {
      NLQ_ASSERT_OK(db->ExecuteCommand(insert));
      insert.clear();
    } else {
      insert += ", ";
    }
  }
}

/// Runs `sql` on the columnar path and again with the row-path pin,
/// asserting bit-identical results; returns the shared signature.
std::string AssertPathsAgree(Database* db, const std::string& sql) {
  auto columnar = db->Execute(sql);
  EXPECT_TRUE(columnar.ok()) << columnar.status().ToString();
  auto rowpath = db->Execute(sql, Interpreted());
  EXPECT_TRUE(rowpath.ok()) << rowpath.status().ToString();
  if (!columnar.ok() || !rowpath.ok()) return "";
  // Sanity: the two executions really take different paths.
  auto col_plan = db->Explain(sql);
  auto row_plan = db->Explain(sql, Interpreted());
  EXPECT_TRUE(col_plan.ok() && row_plan.ok());
  if (col_plan.ok() && row_plan.ok()) {
    EXPECT_NE(col_plan->find("VectorHashAggregate"), std::string::npos)
        << sql << "\n" << *col_plan;
    EXPECT_EQ(row_plan->find("Columnar"), std::string::npos)
        << sql << "\n" << *row_plan;
    EXPECT_EQ(row_plan->find("compiled"), std::string::npos)
        << sql << "\n" << *row_plan;
  }
  const std::string col_sig = ExactSignature(*columnar);
  const std::string row_sig = ExactSignature(*rowpath);
  EXPECT_EQ(col_sig, row_sig) << sql;
  return col_sig;
}

TEST(ColumnarEquivalenceTest, BitIdenticalAcrossPartitionsSizesAndKinds) {
  // Row counts straddle the decode batch capacity (1024) so partial
  // batches, exactly-full batches and multi-batch streams all run.
  const size_t kPartitions[] = {1, 2, 4, 7};
  const size_t kRows[] = {0, 1, 1023, 1024, 1025};
  const char* kKinds[] = {"diag", "triang", "full"};
  for (const size_t parts : kPartitions) {
    for (const size_t n : kRows) {
      auto db = MakeTestDatabase(parts);
      FillTable(db.get(), n, 4);
      for (const char* kind : kKinds) {
        const std::string sql = StringPrintf(
            "SELECT nlq_list('%s', x1, x2, x3, x4) FROM X", kind);
        const std::string first = AssertPathsAgree(db.get(), sql);
        // A second columnar run reads the same chunks again; it must
        // not change a single bit.
        auto again = db->Execute(sql);
        NLQ_ASSERT_OK(again.status());
        EXPECT_EQ(ExactSignature(*again), first)
            << "rescan diverged: " << sql << " (partitions=" << parts
            << ", n=" << n << ")";
      }
    }
  }
}

TEST(ColumnarEquivalenceTest, BuiltinAggregatesMatchIncludingNullsAndInts) {
  auto db = MakeTestDatabase(4);
  NLQ_ASSERT_OK(
      db->ExecuteCommand("CREATE TABLE T (i BIGINT, a DOUBLE, b BIGINT)"));
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "INSERT INTO T VALUES (1, 0.5, 7), (2, NULL, -3), (3, 2.25, NULL), "
      "(4, -1.75, 12), (5, NULL, NULL), (6, 4.5, 0)"));
  AssertPathsAgree(
      db.get(),
      "SELECT count(*), count(a), sum(a), avg(a), min(a), max(a), "
      "count(b), sum(b), min(b), max(b), avg(b) FROM T");
}

TEST(ColumnarEquivalenceTest, NullRowsAreSkippedByNlqUdfs) {
  auto db = MakeTestDatabase(2);
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "CREATE TABLE P (i BIGINT, x1 DOUBLE, x2 DOUBLE)"));
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "INSERT INTO P VALUES (1, 1, 2), (2, NULL, 5), (3, 3, NULL), "
      "(4, 2, 4)"));
  // Both paths agree...
  AssertPathsAgree(db.get(), "SELECT nlq_list('triang', x1, x2) FROM P");
  // ...and on the documented skip-row policy: a NULL in any dimension
  // removes the whole row (complete-data assumption), it is NOT
  // coerced to 0. Only rows 1 and 4 survive.
  auto result = db->Execute("SELECT nlq_list('triang', x1, x2) FROM P");
  NLQ_ASSERT_OK(result.status());
  NLQ_ASSERT_OK_AND_ASSIGN(
      stats::SufStats stats,
      stats::SufStats::FromPackedString(result->At(0, 0).string_value()));
  EXPECT_EQ(stats.n(), 2.0);
  EXPECT_EQ(stats.L(0), 3.0);   // 1 + 2
  EXPECT_EQ(stats.L(1), 6.0);   // 2 + 4
  EXPECT_EQ(stats.Q(0, 0), 5.0);   // 1 + 4
  EXPECT_EQ(stats.Q(1, 0), 10.0);  // 1*2 + 2*4
  EXPECT_EQ(stats.Q(1, 1), 20.0);  // 4 + 16
  EXPECT_EQ(stats.Min(0), 1.0);
  EXPECT_EQ(stats.Max(1), 4.0);
  // count(*) still counts every row; count(x1) skips only x1's NULL.
  auto counts = db->Execute("SELECT count(*), count(x1) FROM P");
  NLQ_ASSERT_OK(counts.status());
  EXPECT_EQ(counts->At(0, 0).int_value(), 4);
  EXPECT_EQ(counts->At(0, 1).int_value(), 3);
}

TEST(ColumnarEquivalenceTest, SimpleWherePushdownMatchesRowPath) {
  auto db = MakeTestDatabase(4);
  FillTable(db.get(), 777, 4);
  // NULL comparison semantics included: inject NULLs, which fail every
  // pushed comparison (UNKNOWN drops the row) on both paths.
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "INSERT INTO X VALUES (9001, NULL, 1, 1, 1), (9002, 5, NULL, 5, 5)"));
  for (const char* where :
       {" WHERE x1 > 0.5", " WHERE x1 >= -2 AND x2 < 3.25",
        " WHERE 1.5 <= x3", " WHERE i <= 400 AND x4 <> 0"}) {
    AssertPathsAgree(
        db.get(),
        std::string("SELECT nlq_list('triang', x1, x2, x3), count(*), "
                    "sum(x4) FROM X") +
            where);
  }
}

TEST(ColumnarEquivalenceTest, ExpressionArgumentsSpanFromRegisters) {
  // Global nlq_list calls whose arguments are expressions or BIGINT
  // columns: the columnar aggregate evaluates them through the VM and
  // hands the registers (widened, NULL rows compacted away) to
  // AccumulateSpans. Bit-identical to the interpreted per-row
  // Accumulate calls, and across thread counts.
  const char* kQueries[] = {
      "SELECT nlq_list('triang', x1 * 1.0, x2, x3 + 0.5) FROM X",
      "SELECT nlq_list('full', i, x1, x2) FROM X",
      "SELECT nlq_list('diag', x1 * 2.0, i), count(*) FROM X WHERE x2 > 0",
      "SELECT nlq_list('triang', x1 - x2, x3 * x4) FROM X "
      "WHERE x1 + x2 > -10"};
  std::vector<std::string> baseline;
  for (const size_t threads : {1, 2, 4}) {
    auto db = MakeTestDatabase(/*num_partitions=*/4, threads);
    FillTable(db.get(), 2100, 4);
    // NULLs reach the registers: those rows must be skipped whole.
    NLQ_ASSERT_OK(db->ExecuteCommand(
        "INSERT INTO X VALUES (9001, NULL, 1, 1, 1), (9002, 5, NULL, 5, 5)"));
    std::vector<std::string> sigs;
    for (const char* sql : kQueries) {
      sigs.push_back(AssertPathsAgree(db.get(), sql));
    }
    if (baseline.empty()) {
      baseline = sigs;
    } else {
      EXPECT_EQ(sigs, baseline) << "threads=" << threads;
    }
  }
}

TEST(ColumnarEquivalenceTest, GroupedUdfCallsMatchRowPath) {
  // Grouped aggregate UDF calls over every argument shape: bare DOUBLE
  // columns, expressions and BIGINT columns from VM registers, numeric
  // literals after the VARCHAR kind (constant lanes), NULL rows, and a
  // group whose rows are all NULL. nlq_list takes one AccumulateSpans
  // call per group of a batch; nlq_block and hist, which take no
  // spans, one Accumulate per row. Bit-identical to the interpreted
  // per-row calls, across thread counts.
  const char* kQueries[] = {
      "SELECT i % 5, nlq_list('triang', x1, x2, x3, x4) FROM X GROUP BY i % 5",
      "SELECT i % 7, nlq_list('full', i, x1 * 2.0, x2 - x3) FROM X "
      "GROUP BY i % 7",
      "SELECT i % 3, nlq_list('diag', 1.5, x1, 2) FROM X GROUP BY i % 3",
      "SELECT i % 4, nlq_block(1, 2, 1, 2, x1, x2, x1, x2) FROM X "
      "GROUP BY i % 4",
      "SELECT i % 4, hist(x1, -20, 20, 8), count(*), sum(x2) FROM X "
      "GROUP BY i % 4",
      "SELECT i % 97, nlq_list('triang', x1, x2), nlq_list('diag', x3, x4), "
      "max(x1) FROM X WHERE x2 > -15 GROUP BY i % 97",
      "SELECT i % 2, nlq_list('triang', x1, x2) FROM X WHERE i >= 9001 "
      "GROUP BY i % 2"};
  std::vector<std::string> baseline;
  for (const size_t threads : {1, 2, 4}) {
    auto db = MakeTestDatabase(/*num_partitions=*/4, threads);
    FillTable(db.get(), 2100, 4);
    // Group 0 of `i % 2` over i >= 9001 holds only a NULL row.
    NLQ_ASSERT_OK(db->ExecuteCommand(
        "INSERT INTO X VALUES (9001, NULL, 1, 1, 1), (9002, 5, NULL, 5, 5), "
        "(9003, 1, 2, 3, 4)"));
    std::vector<std::string> sigs;
    for (const char* sql : kQueries) {
      sigs.push_back(AssertPathsAgree(db.get(), sql));
    }
    if (baseline.empty()) {
      baseline = sigs;
    } else {
      EXPECT_EQ(sigs, baseline) << "threads=" << threads;
    }
  }
}

/// Fills Y(i, y1, y2, y3) with values of full 53-bit mantissas over a
/// wide exponent range: their sums round, so a state matches the row
/// path bit for bit only if it took its rows in row order and the
/// partials merged in grid order (the dyadic tables above add exactly
/// in any order). NULLs are sprinkled through every column.
void FillMantissaTable(Database* db) {
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "CREATE TABLE Y (i BIGINT, y1 DOUBLE, y2 DOUBLE, y3 DOUBLE)"));
  std::string insert;
  for (size_t r = 0; r < 5000; ++r) {
    insert += insert.empty() ? "INSERT INTO Y VALUES " : ", ";
    insert += StringPrintf("(%zu", r);
    for (size_t c = 0; c < 3; ++c) {
      if ((r * 7 + c * 3) % 41 == 0) {
        insert += ", NULL";
        continue;
      }
      const double v = std::sin(static_cast<double>(r * 3 + c)) *
                       std::ldexp(1.0, static_cast<int>((r + c) % 23) - 11);
      insert += StringPrintf(", %.17g", v);
    }
    insert += ")";
    if ((r + 1) % 250 == 0) {
      NLQ_ASSERT_OK(db->ExecuteCommand(insert));
      insert.clear();
    }
  }
}

TEST(ColumnarEquivalenceTest, GroupedSpansKeepRowOrderWithinEachGroup) {
  auto db = MakeTestDatabase(/*num_partitions=*/3, /*num_threads=*/2);
  FillMantissaTable(db.get());
  for (const char* sql :
       {"SELECT i % 13, nlq_list('triang', y1, y2, y3) FROM Y GROUP BY i % 13",
        "SELECT i % 97, nlq_list('full', y1, y2), count(*) FROM Y "
        "GROUP BY i % 97",
        "SELECT i % 4, nlq_list('diag', y3, y1 * 3.0) FROM Y WHERE y2 > -1 "
        "GROUP BY i % 4"}) {
    AssertPathsAgree(db.get(), sql);
  }
}

TEST(ColumnarEquivalenceTest, GlobalAggregatesKeepRowOrder) {
  // The global span path and the builtins over full-mantissa values,
  // on 256-row morsels so every partition holds several partials.
  for (const size_t parts : {1, 2, 4, 7}) {
    SCOPED_TRACE(StringPrintf("partitions=%zu", parts));
    DatabaseOptions options;
    options.num_partitions = parts;
    options.num_threads = 2;
    options.morsel_rows = 256;
    Database db(options);
    NLQ_ASSERT_OK(stats::RegisterAllStatsUdfs(&db.udfs()));
    FillMantissaTable(&db);
    for (const char* sql :
         {"SELECT nlq_list('diag', y1, y2, y3) FROM Y",
          "SELECT nlq_list('triang', y1, y2, y3) FROM Y",
          "SELECT nlq_list('full', y1, y3 * 2.0) FROM Y WHERE y2 > -1",
          "SELECT count(*), count(y1), sum(y1), avg(y2), min(y3), max(y1), "
          "sum(y1 * y2) FROM Y"}) {
      AssertPathsAgree(&db, sql);
    }
  }
}

/// Fills W(i, y1, y2, y3, z, v): y1..y3 of full 53-bit mantissas with
/// no NULL, z all -0.0, and v like y1 but NULL on every 17th row of
/// rows 1000..1999 only, so some of its batches carry a null bitmap
/// and the rest none.
void FillLaneTable(Database* db) {
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "CREATE TABLE W (i BIGINT, y1 DOUBLE, y2 DOUBLE, y3 DOUBLE, z DOUBLE, "
      "v DOUBLE)"));
  auto value = [](size_t r, size_t c) {
    return std::sin(static_cast<double>(r * 3 + c)) *
           std::ldexp(1.0, static_cast<int>((r + c) % 23) - 11);
  };
  std::string insert;
  for (size_t r = 0; r < 5000; ++r) {
    insert += insert.empty() ? "INSERT INTO W VALUES " : ", ";
    insert += StringPrintf("(%zu, %.17g, %.17g, %.17g, -0.0, ", r,
                           value(r, 0), value(r, 1), value(r, 2));
    insert += r >= 1000 && r < 2000 && r % 17 == 0
                  ? std::string("NULL)")
                  : StringPrintf("%.17g)", value(r, 3));
    if ((r + 1) % 250 == 0) {
      NLQ_ASSERT_OK(db->ExecuteCommand(insert));
      insert.clear();
    }
  }
}

TEST(ColumnarEquivalenceTest, ColumnLaneSumsKeepRowOrder) {
  // Builtin SUM/AVG/COUNT over a bare DOUBLE column or a product of two
  // take a global batch on column lanes when no column of theirs has a
  // NULL there: full-mantissa sums catch any reordering of a lane's
  // rows, the all -0.0 column z an accumulator that does not start
  // from its stored sum (0.0 + -0.0 is +0.0), and v's NULL batches a
  // batch wrongly taken onto lanes (counts and sums change). BIGINT
  // and mixed arguments keep the per-row loop beside them.
  const std::vector<std::string> ys = {"y1", "y2", "y3"};
  const std::vector<std::string> mixed = {"y1", "v", "z"};
  const std::vector<std::string> queries = {
      stats::NlqSqlQuery("W", ys, stats::MatrixKind::kLowerTriangular),
      stats::NlqSqlQuery("W", ys, stats::MatrixKind::kFull),
      stats::NlqSqlQuery("W", mixed, stats::MatrixKind::kLowerTriangular),
      stats::NlqSqlQuery("W", mixed, stats::MatrixKind::kFull),
      "SELECT avg(y1), avg(v), count(y2), count(v), count(z * v), sum(z), "
      "sum(z * y1), sum(y3 * z), avg(y2 * y3), sum(1.0) FROM W",
      "SELECT sum(i), avg(i), count(i), sum(i * y1), sum(y1 * i), sum(v * y2), "
      "sum(y2), avg(v * v) FROM W",
      "SELECT sum(y1 * y2), count(y3), avg(v), sum(z) FROM W WHERE y3 > 0"};
  for (const size_t parts : {1, 2, 4, 7}) {
    SCOPED_TRACE(StringPrintf("partitions=%zu", parts));
    DatabaseOptions options;
    options.num_partitions = parts;
    options.num_threads = 2;
    options.morsel_rows = 256;
    Database db(options);
    NLQ_ASSERT_OK(stats::RegisterAllStatsUdfs(&db.udfs()));
    FillLaneTable(&db);
    auto zero = db.Execute("SELECT z FROM W WHERE i = 3");
    NLQ_ASSERT_OK(zero.status());
    EXPECT_EQ(ExactSignature(*zero), "d:8000000000000000,\n");
    for (const std::string& sql : queries) {
      NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db.Explain(sql));
      EXPECT_NE(plan.find("on column lanes"), std::string::npos)
          << sql << "\n" << plan;
      AssertPathsAgree(&db, sql);
    }
  }
}

TEST(ColumnarEquivalenceTest, GlobalNumericLiteralArgumentsAreSpans) {
  // A numeric literal after nlq_list's kind is a value argument: the
  // columnar plan feeds it to the span call as a constant lane (it
  // used to be taken for a second configuration constant and refused).
  auto db = MakeTestDatabase(2);
  FillTable(db.get(), 300, 4);
  for (const char* sql :
       {"SELECT nlq_list('diag', 1.0, x1) FROM X",
        "SELECT nlq_list('triang', x1, 2, x2) FROM X",
        "SELECT nlq_list('full', 0.5, 2) FROM X WHERE x1 > 0"}) {
    AssertPathsAgree(db.get(), sql);
  }
}

TEST(ColumnarEquivalenceTest, ColumnCacheInvalidatedByAppend) {
  auto db = MakeTestDatabase(4);
  FillTable(db.get(), 100, 4);
  const std::string sql = "SELECT nlq_list('full', x1, x2) FROM X";
  const std::string before = AssertPathsAgree(db.get(), sql);
  // Append into the open tail chunk after a scan; the rescan must see
  // the new row.
  NLQ_ASSERT_OK(
      db->ExecuteCommand("INSERT INTO X VALUES (500, 9.5, -3.25, 0, 0)"));
  const std::string after = AssertPathsAgree(db.get(), sql);
  EXPECT_NE(before, after);
}

TEST(ColumnarEquivalenceTest, PlannerChoosesColumnarOnlyWhenEligible) {
  auto db = MakeTestDatabase(4);
  FillTable(db.get(), 10, 4);
  NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE M (j BIGINT, c DOUBLE)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO M VALUES (1, 10)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE M2 (j BIGINT, c DOUBLE)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO M2 VALUES (1, 10), (2, 20)"));

  // Eligible: every single-table aggregate whose expressions compile
  // runs the one columnar aggregate operator — global or grouped, bare
  // or expression arguments, pushed or compiled WHERE, HAVING, no
  // column at all, or a one-row table broadcast as constants.
  for (const char* sql :
       {"SELECT nlq_list('triang', x1, x2) FROM X",
        "SELECT count(*) FROM X",                   // no columns
        "SELECT sum(x1) FROM X, M",                 // one-row M broadcast
        "SELECT sum(x1 * c) FROM X, M2 WHERE M2.j = 2",  // one after pushdown
        "SELECT sum(x1), count(*), avg(x2) FROM X",
        "SELECT min(i), max(x3) FROM X WHERE x1 > 0 AND 2 >= x2",
        "SELECT nlq_list('diag', x1) FROM X ORDER BY 1 LIMIT 3",
        "SELECT sum(x1) FROM X GROUP BY i",         // group keys
        "SELECT sum(x1 + 1) FROM X",                // expression arg
        "SELECT sum(x1) FROM X WHERE x1 + x2 > 0",  // complex where
        "SELECT count(*) FROM X GROUP BY i HAVING count(*) > 1"}) {  // having
    NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(sql));
    EXPECT_NE(plan.find("VectorHashAggregate"), std::string::npos)
        << sql << "\n" << plan;
    EXPECT_NE(plan.find("ColumnarScan"), std::string::npos)
        << sql << "\n" << plan;
  }
  // The pushed-down comparison is shown on the scan node.
  NLQ_ASSERT_OK_AND_ASSIGN(
      std::string filtered,
      db->Explain("SELECT sum(x1) FROM X WHERE x2 <= 1.5"));
  EXPECT_NE(filtered.find("filter: (x2 <= 1.5)"), std::string::npos)
      << filtered;

  // Genuinely ineligible shapes fall back to the row path.
  for (const char* sql :
       {"SELECT sum(x1) FROM X, M2",                        // two-row join
        "SELECT sum(x1) FROM X, M2 WHERE M2.j = 3",         // empty join
        "SELECT nlq_string('diag', pack_point(x1)) FROM X"}) {  // VARCHAR UDF
    NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(sql));
    EXPECT_EQ(plan.find("Columnar"), std::string::npos) << sql << "\n" << plan;
    EXPECT_EQ(plan.find("Vector"), std::string::npos) << sql << "\n" << plan;
  }
}

}  // namespace
}  // namespace nlq::engine
