// EXPLAIN ANALYZE and the per-query stats tree (DESIGN.md #10). The
// rendered plan is golden-tested byte-for-byte after timing redaction
// (row/batch/page counts are deterministic for a fixed table layout;
// wall times are not, so RedactTimings replaces them with <T>), and
// the operator actuals are asserted exactly: WHERE selectivity shows
// up as a row-count drop at the Filter/ColumnarScan, LIMIT early-exit
// as an under-count at the Limit node. Instrumentation must also be
// inert: disabling collect_query_stats changes no result bit and no
// status code.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "engine/database.h"
#include "engine/exec/plan.h"
#include "gen/datagen.h"
#include "tests/test_util.h"
#include "udf/udf.h"

namespace nlq::engine {
namespace {

using nlq::testing::MakeTestDatabase;
using storage::DataType;
using storage::Datum;

uint64_t CounterOf(const MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

const OperatorStatsSnapshot* FindOp(const QueryStatsSnapshot& s,
                                    const std::string& name) {
  for (const OperatorStatsSnapshot& op : s.operators) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

/// Bit-exact result rendering (same scheme as the equivalence tests).
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

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase(/*num_partitions=*/4, /*num_threads=*/3);
    NLQ_ASSERT_OK(db_->ExecuteCommand(
        "CREATE TABLE X (i BIGINT, X1 DOUBLE, X2 DOUBLE)"));
    // Single-row inserts: the partition layout (and with it every
    // deterministic count in the golden below) is fixed by insertion
    // order, so keep it explicit.
    for (int i = 0; i < 50; ++i) {
      NLQ_ASSERT_OK(db_->ExecuteCommand(
          StringPrintf("INSERT INTO X VALUES (%d, 1, 2)", i)));
    }
    // S has a selective column: X1 = i % 10, so "X1 > 6.5" keeps
    // exactly the 15 rows with i % 10 in {7, 8, 9}.
    NLQ_ASSERT_OK(db_->ExecuteCommand(
        "CREATE TABLE S (i BIGINT, X1 DOUBLE)"));
    for (int i = 0; i < 50; ++i) {
      NLQ_ASSERT_OK(db_->ExecuteCommand(
          StringPrintf("INSERT INTO S VALUES (%d, %d)", i, i % 10)));
    }
  }

  std::unique_ptr<Database> db_;
};

// ---------------------------------------------------------------------------
// Golden rendering
// ---------------------------------------------------------------------------

// Every count below is deterministic: 50 rows over 4 partitions give
// one batch (and one column chunk) per morsel stream; the Gather
// pipeline-breaker drains its inputs fully before Limit cuts the
// output to 5, so the under-count appears at the Limit node only. The
// statement runs the compiled columnar pipeline: the simple comparison
// is pushed into the scan and the projection is one bytecode program.
constexpr const char* kGolden =
    "Limit (5 rows) [rows=5 batches=1 time=<T> self=<T>]\n"
    "└─ Gather (4 stream(s), 4 worker(s)) [rows=50 batches=1 time=<T> "
    "self=<T>]\n"
    "   └─ VectorProject (1 column(s); compiled, 1 op(s)) [rows=50 batches=4 "
    "time=<T> self=<T>]\n"
    "      └─ ColumnarScan (X: 50 rows, 4 partitions, 1 of 3 column(s), "
    "batch 1024, morsel 16384 (4 morsel(s)), filter: (X1 > 0)) "
    "[rows=50 batches=4 time=<T> self=<T>]\n"
    "Totals: rows=5 pages_decoded=4 time=<T>\n";

constexpr const char* kAnalyzedQuery =
    "SELECT X1 FROM X WHERE X1 > 0 LIMIT 5";

TEST_F(ExplainAnalyzeTest, GoldenRedactedPlan) {
  NLQ_ASSERT_OK_AND_ASSIGN(std::string rendered,
                           db_->ExplainAnalyze(kAnalyzedQuery));
  EXPECT_EQ(exec::RedactTimings(rendered), kGolden);
}

TEST_F(ExplainAnalyzeTest, RedactedRenderingIsByteStable) {
  NLQ_ASSERT_OK_AND_ASSIGN(std::string first,
                           db_->ExplainAnalyze(kAnalyzedQuery));
  NLQ_ASSERT_OK_AND_ASSIGN(std::string second,
                           db_->ExplainAnalyze(kAnalyzedQuery));
  // Raw timings differ run to run; redacted output may not.
  EXPECT_EQ(exec::RedactTimings(first), exec::RedactTimings(second));
  // And the redaction really removed every volatile token.
  EXPECT_EQ(exec::RedactTimings(first).find("time=0"), std::string::npos);
  EXPECT_NE(first, exec::RedactTimings(first));
}

TEST_F(ExplainAnalyzeTest, StatementFormReturnsPlanColumn) {
  // EXPLAIN ANALYZE through plain Execute: one VARCHAR column named
  // "plan", one row per rendered line.
  NLQ_ASSERT_OK_AND_ASSIGN(
      ResultSet result,
      db_->Execute(std::string("EXPLAIN ANALYZE ") + kAnalyzedQuery));
  ASSERT_EQ(result.num_columns(), 1u);
  std::string joined;
  for (const auto& row : result.rows()) {
    joined += row[0].string_value();
    joined += "\n";
  }
  EXPECT_EQ(exec::RedactTimings(joined), kGolden);
}

// ---------------------------------------------------------------------------
// Exact actuals in the stats tree
// ---------------------------------------------------------------------------

TEST_F(ExplainAnalyzeTest, ScanActualsAreExact) {
  // Row-path actuals: force the interpreted plan (ParallelScan), the
  // shape this test pins down.
  QueryOptions interpreted;
  interpreted.force_interpreted = true;
  NLQ_ASSERT_OK(db_->Execute("SELECT X1 FROM X", interpreted).status());
  ASSERT_TRUE(db_->last_query_stats().has_value());
  const QueryStatsSnapshot& stats = *db_->last_query_stats();
  const OperatorStatsSnapshot* scan = FindOp(stats, "ParallelScan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->rows_out, 50u);
  EXPECT_EQ(scan->batches_out, 4u);  // one per morsel stream
  const OperatorStatsSnapshot* gather = FindOp(stats, "Gather");
  ASSERT_NE(gather, nullptr);
  EXPECT_EQ(gather->rows_out, 50u);
  EXPECT_EQ(stats.rows_returned, 50u);
  EXPECT_EQ(stats.pages_decoded, 4u);  // one block per partition
  // Every morsel was claimed by exactly one worker.
  uint64_t claims = 0;
  for (const uint64_t c : stats.worker_morsel_claims) claims += c;
  EXPECT_EQ(claims, 4u);
  EXPECT_GT(stats.wall_time_ns, 0u);
  EXPECT_NE(stats.query_id, 0u);
  // The interpreted plan vectorizes nothing.
  EXPECT_EQ(stats.rows_vectorized, 0u);
}

TEST_F(ExplainAnalyzeTest, VectorizedActualsAreExact) {
  // The default plan for the same statement is the compiled pipeline;
  // every scanned row passes through a vectorized operator exactly
  // once per pipeline stage (here: VectorProject).
  NLQ_ASSERT_OK(db_->Execute("SELECT X1 FROM X").status());
  ASSERT_TRUE(db_->last_query_stats().has_value());
  const QueryStatsSnapshot& stats = *db_->last_query_stats();
  const OperatorStatsSnapshot* scan = FindOp(stats, "ColumnarScan");
  const OperatorStatsSnapshot* project = FindOp(stats, "VectorProject");
  ASSERT_NE(scan, nullptr);
  ASSERT_NE(project, nullptr);
  EXPECT_EQ(scan->rows_out, 50u);
  EXPECT_EQ(project->rows_out, 50u);
  EXPECT_EQ(stats.rows_returned, 50u);
  EXPECT_EQ(stats.rows_vectorized, 50u);
}

TEST_F(ExplainAnalyzeTest, WhereSelectivityShowsAtTheFilter) {
  // Row-path shape: interpreted Filter above ParallelScan.
  QueryOptions interpreted;
  interpreted.force_interpreted = true;
  NLQ_ASSERT_OK(
      db_->Execute("SELECT X1 FROM S WHERE X1 > 6.5", interpreted).status());
  ASSERT_TRUE(db_->last_query_stats().has_value());
  const QueryStatsSnapshot& stats = *db_->last_query_stats();
  const OperatorStatsSnapshot* scan = FindOp(stats, "ParallelScan");
  const OperatorStatsSnapshot* filter = FindOp(stats, "Filter");
  ASSERT_NE(scan, nullptr);
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(scan->rows_out, 50u);    // pre-filter
  EXPECT_EQ(filter->rows_out, 15u);  // i % 10 in {7, 8, 9}
  EXPECT_EQ(stats.rows_returned, 15u);
}

TEST_F(ExplainAnalyzeTest, ColumnarPushdownSelectivityShowsAtTheScan) {
  NLQ_ASSERT_OK_AND_ASSIGN(
      ResultSet result, db_->Execute("SELECT count(*) FROM S WHERE X1 > 6.5"));
  EXPECT_EQ(result.At(0, 0).int_value(), 15);
  ASSERT_TRUE(db_->last_query_stats().has_value());
  const QueryStatsSnapshot& stats = *db_->last_query_stats();
  // The pushed-down comparison filters inside the columnar scan, so
  // the scan itself reports post-filter rows.
  const OperatorStatsSnapshot* scan = FindOp(stats, "ColumnarScan");
  const OperatorStatsSnapshot* agg = FindOp(stats, "VectorHashAggregate");
  ASSERT_NE(scan, nullptr);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(scan->rows_out, 15u);
  EXPECT_EQ(agg->rows_out, 1u);
}

TEST_F(ExplainAnalyzeTest, LimitEarlyExitUnderCounts) {
  NLQ_ASSERT_OK(db_->Execute("SELECT X1 FROM X LIMIT 5").status());
  ASSERT_TRUE(db_->last_query_stats().has_value());
  const QueryStatsSnapshot& stats = *db_->last_query_stats();
  const OperatorStatsSnapshot* limit = FindOp(stats, "Limit");
  const OperatorStatsSnapshot* gather = FindOp(stats, "Gather");
  ASSERT_NE(limit, nullptr);
  ASSERT_NE(gather, nullptr);
  EXPECT_EQ(limit->rows_out, 5u);
  // Gather is a pipeline breaker: it drained the full input before
  // Limit stopped pulling, so the under-count is visible as a drop
  // between adjacent operators.
  EXPECT_EQ(gather->rows_out, 50u);
  EXPECT_LT(limit->rows_out, gather->rows_out);
}

TEST_F(ExplainAnalyzeTest, ColumnarScanReadsItsChunksOnEveryRun) {
  // No state survives a statement: every run reads each partition's
  // one chunk again (two columns of a few rows: one block each), so
  // the block count repeats exactly.
  const char* kSql = "SELECT nlq_list('triang', X1, X2) FROM X";
  NLQ_ASSERT_OK(db_->Execute(kSql).status());
  ASSERT_TRUE(db_->last_query_stats().has_value());
  const QueryStatsSnapshot first = *db_->last_query_stats();
  EXPECT_EQ(first.pages_decoded, 4u);

  NLQ_ASSERT_OK(db_->Execute(kSql).status());
  const QueryStatsSnapshot again = *db_->last_query_stats();
  EXPECT_EQ(again.pages_decoded, first.pages_decoded);

  // The analyzed rendering of the columnar plan carries the actuals.
  NLQ_ASSERT_OK_AND_ASSIGN(std::string rendered, db_->ExplainAnalyze(kSql));
  EXPECT_NE(rendered.find("VectorHashAggregate"), std::string::npos);
  EXPECT_NE(rendered.find("rows=1 "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Grammar edges
// ---------------------------------------------------------------------------

TEST_F(ExplainAnalyzeTest, PlainExplainPlansWithoutExecuting) {
  NLQ_ASSERT_OK_AND_ASSIGN(ResultSet result,
                           db_->Execute("EXPLAIN SELECT X1 FROM X"));
  ASSERT_EQ(result.num_columns(), 1u);
  std::string joined;
  for (const auto& row : result.rows()) {
    joined += row[0].string_value();
    joined += "\n";
  }
  NLQ_ASSERT_OK_AND_ASSIGN(std::string direct,
                           db_->Explain("SELECT X1 FROM X"));
  EXPECT_EQ(joined, direct);
  // Plain EXPLAIN never executes: no actuals appear.
  EXPECT_EQ(joined.find("rows="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, ExplainRejectsNonSelect) {
  auto create = db_->Execute("EXPLAIN CREATE TABLE Z (a DOUBLE)");
  ASSERT_FALSE(create.ok());
  EXPECT_NE(create.status().message().find("SELECT"), std::string::npos);
  auto analyze = db_->Execute("EXPLAIN ANALYZE INSERT INTO X VALUES (1, 1, 1)");
  ASSERT_FALSE(analyze.ok());
  auto bare = db_->Execute("EXPLAIN");
  ASSERT_FALSE(bare.ok());
}

// ---------------------------------------------------------------------------
// Inert instrumentation
// ---------------------------------------------------------------------------

std::unique_ptr<Database> MakeDatabaseWithStats(bool collect) {
  DatabaseOptions options;
  options.num_partitions = 4;
  options.num_threads = 3;
  options.collect_query_stats = collect;
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(stats::RegisterAllStatsUdfs(&db->udfs()).ok());
  return db;
}

void FillDyadic(Database* db, size_t n) {
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "CREATE TABLE D (i BIGINT, X1 DOUBLE, X2 DOUBLE)"));
  for (size_t r = 0; r < n; ++r) {
    const double x1 =
        static_cast<double>(static_cast<int64_t>((r * 37) % 41) - 20) +
        static_cast<double>((r * 13) % 128) / 128.0;
    const double x2 =
        static_cast<double>(static_cast<int64_t>((r * 29) % 43) - 21) +
        static_cast<double>((r * 17) % 128) / 128.0;
    NLQ_ASSERT_OK(db->ExecuteCommand(
        StringPrintf("INSERT INTO D VALUES (%zu, %.7f, %.7f)", r, x1, x2)));
  }
}

TEST(InertInstrumentationTest, StatsDoNotChangeAnyResultBit) {
  auto with = MakeDatabaseWithStats(true);
  auto without = MakeDatabaseWithStats(false);
  FillDyadic(with.get(), 300);
  FillDyadic(without.get(), 300);
  const char* kQueries[] = {
      "SELECT nlq_list('triang', X1, X2) FROM D",
      "SELECT nlq_list('full', X1, X2) FROM D WHERE 0 = 0",
      "SELECT count(*), sum(X1), avg(X2), min(X1), max(X2) FROM D",
      "SELECT X1 FROM D WHERE X1 > 0 LIMIT 7",
  };
  for (const char* sql : kQueries) {
    NLQ_ASSERT_OK_AND_ASSIGN(ResultSet instrumented, with->Execute(sql));
    NLQ_ASSERT_OK_AND_ASSIGN(ResultSet bare, without->Execute(sql));
    EXPECT_EQ(ExactSignature(instrumented), ExactSignature(bare)) << sql;
    EXPECT_TRUE(with->last_query_stats().has_value());
    EXPECT_FALSE(without->last_query_stats().has_value());
  }
}

/// Scalar UDF that sleeps per row — slow enough to time out
/// deterministically (same device as cancellation_test).
class SlowPassUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "slow_pass";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }
  Status CheckArity(size_t num_args) const override {
    if (num_args != 1) {
      return Status::InvalidArgument("slow_pass takes 1 argument");
    }
    return Status::OK();
  }
  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    return args[0];
  }
};

TEST(InertInstrumentationTest, StatsDoNotChangeStatusCodes) {
  const MetricsSnapshot before = Database::GetMetricsSnapshot();
  for (const bool collect : {true, false}) {
    auto db = MakeDatabaseWithStats(collect);
    NLQ_ASSERT_OK(db->udfs().RegisterScalar(std::make_unique<SlowPassUdf>()));
    gen::MixtureOptions options;
    options.n = 4000;
    options.d = 2;
    options.seed = 99;
    NLQ_ASSERT_OK(gen::GenerateDataSetTable(db.get(), "X", options).status());
    // The UDF runs compiled: the deadline must fire between its
    // 256-row call slices.
    auto plan = db->Explain("SELECT slow_pass(X1) FROM X");
    NLQ_ASSERT_OK(plan.status());
    EXPECT_NE(plan->find("VectorProject"), std::string::npos) << *plan;
    QueryOptions q;
    q.timeout_ms = 20;
    auto result = db->Execute("SELECT slow_pass(X1) FROM X", q);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << "collect_query_stats=" << collect;
  }
  // Outcome counters in the global registry tick regardless of
  // per-query stats collection.
  const MetricsSnapshot after = Database::GetMetricsSnapshot();
  EXPECT_GE(CounterOf(after, "queries.deadline_exceeded"),
            CounterOf(before, "queries.deadline_exceeded") + 2);
  EXPECT_GT(CounterOf(after, "queries.started"),
            CounterOf(before, "queries.started"));
}

TEST(InertInstrumentationTest, RegistryAccountsOutcomesAndLatency) {
  const MetricsSnapshot before = Database::GetMetricsSnapshot();
  auto db = MakeDatabaseWithStats(true);
  FillDyadic(db.get(), 50);
  NLQ_ASSERT_OK(db->Execute("SELECT X1 FROM D").status());
  const MetricsSnapshot after = Database::GetMetricsSnapshot();
  EXPECT_GE(CounterOf(after, "queries.ok"),
            CounterOf(before, "queries.ok") + 1);
  EXPECT_GE(CounterOf(after, "query.rows_returned"),
            CounterOf(before, "query.rows_returned") + 50);
  auto it = after.histograms.find("query.latency");
  ASSERT_NE(it, after.histograms.end());
  EXPECT_GT(it->second.count, 0u);
  EXPECT_GT(it->second.sum_nanos, 0u);
  // The snapshot serializes without crashing and mentions the metric.
  const std::string json = after.ToJson();
  EXPECT_NE(json.find("\"query.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"queries.ok\""), std::string::npos);
}

}  // namespace
}  // namespace nlq::engine
