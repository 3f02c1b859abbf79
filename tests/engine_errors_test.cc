// Failure-injection and edge-case coverage for the engine: errors
// raised inside parallel partition scans, UDF failures mid-query,
// heap-segment exhaustion, NULL ordering, type quirks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "engine/database.h"
#include "tests/test_util.h"
#include "udf/heap_segment.h"
#include "udf/udf.h"

namespace nlq::engine {
namespace {

using storage::DataType;
using storage::Datum;

// A scalar UDF that fails whenever its argument exceeds a threshold —
// used to verify that errors raised deep inside a parallel partition
// scan abort the whole query and surface to the caller.
class FailAboveUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "fail_above";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }
  Status CheckArity(size_t num_args) const override {
    return num_args == 2
               ? Status::OK()
               : Status::InvalidArgument("fail_above(x, limit) needs 2 args");
  }
  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    if (args[0].AsDouble() > args[1].AsDouble()) {
      return Status::Internal("injected failure");
    }
    return args[0];
  }
};

// A scalar UDF that sleeps 200 us per row: a scan slow enough to
// outlive a 1 ms deadline.
class SleepyUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "sleepy";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }
  Status CheckArity(size_t num_args) const override {
    return num_args == 1 ? Status::OK()
                         : Status::InvalidArgument("sleepy(x) needs 1 arg");
  }
  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return args[0];
  }
};

// An aggregate UDF whose state never fits the 64 KB heap segment.
class HugeStateUdaf : public udf::AggregateUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "huge_state";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }
  StatusOr<void*> Init(udf::HeapSegment* heap) const override {
    void* p = heap->Allocate(udf::kDefaultHeapCapacity + 1);
    if (p == nullptr) {
      return Status::ResourceExhausted("state exceeds the heap segment");
    }
    return p;
  }
  Status Accumulate(void*, const std::vector<Datum>&) const override {
    return Status::OK();
  }
  Status Merge(void*, const void*) const override { return Status::OK(); }
  StatusOr<Datum> Finalize(const void*) const override {
    return Datum::Double(0);
  }
};

// An aggregate UDF that fails during Accumulate after a few rows.
class FailingUdaf : public udf::AggregateUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "failing_agg";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }
  StatusOr<void*> Init(udf::HeapSegment* heap) const override {
    return heap->AllocateObject<int64_t>();  // zeroed row count
  }
  Status Accumulate(void* state,
                    const std::vector<Datum>& args) const override {
    auto* count = static_cast<int64_t*>(state);
    if (++(*count) > 3 && args[0].AsDouble() > 0) {
      return Status::Internal("aggregate blew up");
    }
    return Status::OK();
  }
  Status Merge(void*, const void*) const override { return Status::OK(); }
  StatusOr<Datum> Finalize(const void*) const override {
    return Datum::Double(0);
  }
};

class EngineErrorsTest : public ::testing::Test {
 protected:
  /// Asserts `sql` plans the compiled pipeline with `node` in it, so
  /// the scalar UDF runs through the span call opcode.
  void ExpectCompiled(const std::string& sql, const char* node) {
    auto plan = db_->Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find(node), std::string::npos) << *plan;
  }

  void SetUp() override {
    db_ = nlq::testing::MakeTestDatabase();
    NLQ_ASSERT_OK(db_->udfs().RegisterScalar(std::make_unique<FailAboveUdf>()));
    NLQ_ASSERT_OK(db_->udfs().RegisterScalar(std::make_unique<SleepyUdf>()));
    NLQ_ASSERT_OK(
        db_->udfs().RegisterAggregate(std::make_unique<HugeStateUdaf>()));
    NLQ_ASSERT_OK(
        db_->udfs().RegisterAggregate(std::make_unique<FailingUdaf>()));
    NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE t (i BIGINT, v DOUBLE)"));
    for (int i = 1; i <= 200; ++i) {
      NLQ_ASSERT_OK(db_->ExecuteCommand(
          "INSERT INTO t VALUES (" + std::to_string(i) + ", " +
          std::to_string(i * 1.0) + ")"));
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(EngineErrorsTest, ScalarUdfErrorInParallelScanSurfaces) {
  ExpectCompiled("SELECT fail_above(v, 150) FROM t", "VectorProject");
  auto result = db_->Execute("SELECT fail_above(v, 150) FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("injected failure"),
            std::string::npos);
}

TEST_F(EngineErrorsTest, ScalarUdfErrorInWhereSurfaces) {
  ExpectCompiled("SELECT i FROM t WHERE fail_above(v, 10) > 0",
                 "VectorFilter");
  EXPECT_FALSE(
      db_->Execute("SELECT i FROM t WHERE fail_above(v, 10) > 0").ok());
}

TEST_F(EngineErrorsTest, ScalarUdfSucceedsBelowThreshold) {
  ExpectCompiled("SELECT fail_above(v, 1e9) FROM t", "VectorProject");
  auto result = db_->Execute("SELECT fail_above(v, 1e9) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 200u);
}

TEST_F(EngineErrorsTest, AggregateHeapExhaustionSurfaces) {
  auto result = db_->Execute("SELECT huge_state(v) FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(EngineErrorsTest, AggregateAccumulateErrorSurfaces) {
  auto result = db_->Execute("SELECT failing_agg(v) FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(EngineErrorsTest, ScalarUdfArityCheckedAtPlanTime) {
  EXPECT_FALSE(db_->Execute("SELECT fail_above(v) FROM t").ok());
  // Binding fails before any plan exists.
  EXPECT_EQ(db_->Explain("SELECT fail_above(v) FROM t").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineErrorsTest, ScalarUdfStatusMatchesInterpretedUnderLazyOperators) {
  // The interpreter skips the right side of AND/OR, untaken CASE
  // branches and later WHERE conjuncts. The default plan must run the
  // failing UDF on the same rows, so it returns the oracle's status.
  QueryOptions interpreted;
  interpreted.force_interpreted = true;
  // A NULL comparison does not stop the interpreter's AND, but a scan
  // filter drops the row: the call must still see it.
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE u (v DOUBLE)"));
  NLQ_ASSERT_OK(db_->ExecuteCommand("INSERT INTO u VALUES (NULL), (5)"));
  const struct {
    const char* sql;
    bool ok;
  } kCases[] = {
      {"SELECT CASE WHEN v < 100 THEN fail_above(v, 150) ELSE 0 END FROM t",
       true},
      {"SELECT CASE WHEN v < 100 THEN fail_above(v, 150) ELSE 0.5 END FROM t",
       true},
      {"SELECT v > 100 OR fail_above(v, 150) > 0 FROM t", true},
      {"SELECT i FROM t WHERE v * 1 < 100 AND fail_above(v, 150) > 0", true},
      {"SELECT i FROM t WHERE v < 100 AND fail_above(v, 150) > 0", true},
      {"SELECT count(*) FROM t WHERE v < 100 AND fail_above(v, 150) > 0",
       true},
      {"SELECT i FROM t WHERE fail_above(v, 150) > 0 AND v < 100", false},
      {"SELECT sum(v) FROM t WHERE fail_above(v, 150) > 0 AND v < 100", false},
      {"SELECT count(*) FROM u WHERE v > 10 AND fail_above(1, 0) > 0", false},
  };
  for (const auto& c : kCases) {
    auto oracle = db_->Execute(c.sql, interpreted);
    EXPECT_EQ(oracle.ok(), c.ok) << c.sql << ": " << oracle.status().ToString();
    auto compiled = db_->Execute(c.sql);
    EXPECT_EQ(compiled.status().code(), oracle.status().code())
        << c.sql << ": " << compiled.status().ToString();
    if (compiled.ok() && oracle.ok()) {
      EXPECT_EQ(compiled->num_rows(), oracle->num_rows()) << c.sql;
    }
  }
  // A call in the first conjunct still compiles, with no conjunct
  // pushed into the scan ahead of it.
  ExpectCompiled("SELECT i FROM t WHERE fail_above(v, 150) > 0 AND v < 100",
                 "VectorFilter ((fail_above(v, 150) > 0) AND (v < 100); "
                 "compiled");
}

TEST_F(EngineErrorsTest, GroupedSpanUdfStatusMatchesInterpreted) {
  // One partition, rows in insertion order: the first row of every
  // scan batch belongs to group 3, whose w is always NULL. The
  // compiled plan's first per-group span call therefore has every row
  // compacted away and must still fail on the bad kind, exactly where
  // the row path's first Accumulate does.
  auto db = nlq::testing::MakeTestDatabase(/*num_partitions=*/1);
  NLQ_ASSERT_OK(
      db->ExecuteCommand("CREATE TABLE g (i BIGINT, v DOUBLE, w DOUBLE)"));
  std::string insert = "INSERT INTO g VALUES ";
  for (int i = 3; i < 3 + 3000; ++i) {
    if (i > 3) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ", " +
              (i % 4 == 3 ? std::string("NULL") : std::to_string(i / 2)) +
              ")";
  }
  NLQ_ASSERT_OK(db->ExecuteCommand(insert));
  QueryOptions interpreted;
  interpreted.force_interpreted = true;
  for (const char* sql :
       {"SELECT i % 4, nlq_list('bogus', v, w) FROM g GROUP BY i % 4",
        "SELECT i % 4, nlq_list('bogus', w, v) FROM g WHERE i % 4 = 3 "
        "GROUP BY i % 4",
        "SELECT i % 4, count(*), nlq_list('bogus', v) FROM g GROUP BY i % 4"}) {
    auto plan = db->Explain(sql);
    NLQ_ASSERT_OK(plan.status());
    EXPECT_NE(plan->find("VectorHashAggregate"), std::string::npos) << *plan;
    auto oracle = db->Execute(sql, interpreted);
    auto compiled = db->Execute(sql);
    ASSERT_FALSE(oracle.ok()) << sql;
    ASSERT_FALSE(compiled.ok()) << sql;
    EXPECT_EQ(oracle.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_EQ(compiled.status().ToString(), oracle.status().ToString())
        << sql;
  }
  // With a valid kind the all-NULL group keeps its fixed shape and
  // counts no row, bit for bit as on the row path.
  const char* ok_sql =
      "SELECT i % 4, nlq_list('triang', v, w), count(*) FROM g GROUP BY i % 4";
  auto oracle = db->Execute(ok_sql, interpreted);
  auto compiled = db->Execute(ok_sql);
  NLQ_ASSERT_OK(oracle.status());
  NLQ_ASSERT_OK(compiled.status());
  ASSERT_EQ(compiled->num_rows(), 4u);
  for (size_t r = 0; r < compiled->num_rows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(compiled->At(r, c).ToString(), oracle->At(r, c).ToString())
          << "row " << r << " column " << c;
    }
    if (compiled->At(r, 0).int_value() == 3) {
      EXPECT_EQ(compiled->At(r, 1).string_value().rfind("2|1|0|", 0), 0u)
          << compiled->At(r, 1).string_value();
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

TEST_F(EngineErrorsTest, NullsSortFirstAscending) {
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE s (v DOUBLE)"));
  NLQ_ASSERT_OK(
      db_->ExecuteCommand("INSERT INTO s VALUES (2), (NULL), (1)"));
  auto asc = db_->Execute("SELECT v FROM s ORDER BY v");
  ASSERT_TRUE(asc.ok());
  EXPECT_TRUE(asc->At(0, 0).is_null());
  EXPECT_DOUBLE_EQ(asc->GetDouble(1, 0), 1.0);
  auto desc = db_->Execute("SELECT v FROM s ORDER BY v DESC");
  ASSERT_TRUE(desc.ok());
  EXPECT_TRUE(desc->At(2, 0).is_null());
}

TEST_F(EngineErrorsTest, VarcharOrderingAndGroupKeys) {
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE names (s VARCHAR(8))"));
  NLQ_ASSERT_OK(db_->ExecuteCommand(
      "INSERT INTO names VALUES ('b'), ('a'), ('b'), ('c')"));
  auto grouped = db_->Execute(
      "SELECT s, count(*) FROM names GROUP BY s ORDER BY s");
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->num_rows(), 3u);
  EXPECT_EQ(grouped->At(0, 0).string_value(), "a");
  EXPECT_EQ(grouped->At(1, 0).string_value(), "b");
  EXPECT_EQ(grouped->At(1, 1).int_value(), 2);
}

TEST_F(EngineErrorsTest, VarcharComparisonInWhere) {
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE w (s VARCHAR(8))"));
  NLQ_ASSERT_OK(
      db_->ExecuteCommand("INSERT INTO w VALUES ('tx'), ('ca'), ('ny')"));
  NLQ_ASSERT_OK_AND_ASSIGN(
      double hits, db_->QueryDouble("SELECT count(*) FROM w WHERE s = 'tx'"));
  EXPECT_DOUBLE_EQ(hits, 1.0);
  NLQ_ASSERT_OK_AND_ASSIGN(
      double range,
      db_->QueryDouble("SELECT count(*) FROM w WHERE s > 'ca'"));
  EXPECT_DOUBLE_EQ(range, 2.0);
}

TEST_F(EngineErrorsTest, CaseWithoutElseYieldsNull) {
  auto result =
      db_->Execute("SELECT CASE WHEN 1 = 2 THEN 5 END");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->At(0, 0).is_null());
}

TEST_F(EngineErrorsTest, LimitZero) {
  auto result = db_->Execute("SELECT i FROM t LIMIT 0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(EngineErrorsTest, MinMaxOnIntKeepsIntType) {
  auto result = db_->Execute("SELECT min(i), max(i) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->At(0, 0).type(), DataType::kInt64);
  EXPECT_EQ(result->At(0, 0).int_value(), 1);
  EXPECT_EQ(result->At(0, 1).int_value(), 200);
}

TEST_F(EngineErrorsTest, VarcharCoercionRejected) {
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE c (v DOUBLE)"));
  EXPECT_FALSE(db_->Execute("INSERT INTO c VALUES ('abc')").ok());
}

TEST_F(EngineErrorsTest, OrPredicateNotPusheddown) {
  // OR across tables cannot be pushed to one side; result must still
  // be correct via the residual filter.
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE m (j BIGINT)"));
  NLQ_ASSERT_OK(db_->ExecuteCommand("INSERT INTO m VALUES (1), (2)"));
  auto result = db_->Execute(
      "SELECT count(*) FROM t, m WHERE m.j = 1 OR i = 1");
  ASSERT_TRUE(result.ok());
  // j=1 matches all 200 t-rows; j=2 matches only i=1 -> 201.
  EXPECT_EQ(result->At(0, 0).int_value(), 201);
}

TEST_F(EngineErrorsTest, ThreeWayCrossJoin) {
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE a (x BIGINT)"));
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE b (y BIGINT)"));
  NLQ_ASSERT_OK(db_->ExecuteCommand("INSERT INTO a VALUES (1), (2)"));
  NLQ_ASSERT_OK(db_->ExecuteCommand("INSERT INTO b VALUES (10), (20), (30)"));
  NLQ_ASSERT_OK_AND_ASSIGN(
      double count,
      db_->QueryDouble("SELECT count(*) FROM t, a, b"));
  EXPECT_DOUBLE_EQ(count, 200.0 * 2 * 3);
}

TEST_F(EngineErrorsTest, SelectFromEmptyTable) {
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE e (v DOUBLE)"));
  auto rows = db_->Execute("SELECT v, v * 2 FROM e");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 0u);
  auto grouped = db_->Execute("SELECT v, count(*) FROM e GROUP BY v");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->num_rows(), 0u);
}

TEST_F(EngineErrorsTest, OrderByAliasWorks) {
  auto result =
      db_->Execute("SELECT i, v * -1 AS neg FROM t ORDER BY neg LIMIT 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->At(0, 0).int_value(), 200);  // most negative neg
}

TEST_F(EngineErrorsTest, IntegerOverflowFreeModGrouping) {
  // Large ids with modulo grouping — exercises int64 arithmetic.
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE big (i BIGINT)"));
  NLQ_ASSERT_OK(db_->ExecuteCommand(
      "INSERT INTO big VALUES (9000000000000), (9000000000001)"));
  auto result = db_->Execute("SELECT i % 2, count(*) FROM big GROUP BY i % 2 "
                             "ORDER BY 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST_F(EngineErrorsTest, DivisionByZeroInAggregateIsNullNotError) {
  // 1/(i-1) is NULL for i=1; sum skips NULLs instead of failing.
  auto result = db_->Execute("SELECT count(*), sum(1 / (i - 1)) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->At(0, 0).int_value(), 200);
  EXPECT_FALSE(result->At(0, 1).is_null());
}

int64_t RowCount(Database* db, const std::string& table) {
  auto result = db->Execute("SELECT count(*) FROM " + table);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->At(0, 0).int_value() : -1;
}

// Every row is type-checked before the first one is appended: an
// INSERT that fails on a later row leaves the table as it was, whether
// its rows come from a SELECT or from VALUES.
TEST_F(EngineErrorsTest, FailedInsertAppendsNothing) {
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE s (i BIGINT, v VARCHAR)"));
  NLQ_ASSERT_OK(db_->ExecuteCommand(
      "INSERT INTO s VALUES (1, NULL), (2, NULL), (3, 'abc')"));
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE u (x DOUBLE)"));

  Status status = db_->ExecuteCommand("INSERT INTO u SELECT v FROM s");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "cannot coerce VARCHAR to DOUBLE for column 'x'");
  EXPECT_EQ(RowCount(db_.get(), "u"), 0);

  status = db_->ExecuteCommand("INSERT INTO u VALUES (NULL), ('abc')");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "cannot coerce VARCHAR to DOUBLE for column 'x'");
  EXPECT_EQ(RowCount(db_.get(), "u"), 0);

  // The NULLs alone coerce; a numeric value never goes into VARCHAR.
  NLQ_ASSERT_OK(
      db_->ExecuteCommand("INSERT INTO u SELECT v FROM s WHERE i < 3"));
  EXPECT_EQ(RowCount(db_.get(), "u"), 2);
  status = db_->ExecuteCommand("INSERT INTO s SELECT i, v * 2 FROM t");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "cannot coerce DOUBLE to VARCHAR for column 'v'");
  EXPECT_EQ(RowCount(db_.get(), "s"), 3);
}

// A CREATE TABLE … AS whose SELECT fails creates no table: the name
// stays free, whether the scan fails in a UDF, is cancelled, runs out
// of time or out of memory.
TEST_F(EngineErrorsTest, FailedCreateTableAsCreatesNothing) {
  QueryOptions cancelled;
  cancelled.cancel_token = std::make_shared<std::atomic<bool>>(true);
  QueryOptions deadline;
  deadline.timeout_ms = 1;
  QueryOptions small_budget;
  small_budget.memory_limit = 1024;
  struct Case {
    std::string select;
    QueryOptions options;
    StatusCode code;
  };
  const Case cases[] = {
      {"SELECT i, fail_above(v, 150) FROM t", QueryOptions(),
       StatusCode::kInternal},
      {"SELECT i, v FROM t", cancelled, StatusCode::kCancelled},
      {"SELECT i, sleepy(v) FROM t", deadline,
       StatusCode::kDeadlineExceeded},
      {"SELECT i, v FROM t", small_budget, StatusCode::kResourceExhausted},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.select);
    for (const bool interpreted : {false, true}) {
      QueryOptions options = c.options;
      options.force_interpreted = interpreted;
      auto result = db_->Execute("CREATE TABLE out AS " + c.select, options);
      EXPECT_EQ(result.status().code(), c.code) << result.status().ToString();
      EXPECT_FALSE(db_->catalog().HasTable("out"));
    }
  }
  NLQ_EXPECT_OK(db_->ExecuteCommand("CREATE TABLE out (x DOUBLE)"));
}

}  // namespace
}  // namespace nlq::engine
