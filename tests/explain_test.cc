// Tests for Database::Explain — the physical plan-tree printout that
// exposes the engine's §3.6-style pushdown decisions without
// executing the query. Format (documented in DESIGN.md §6): one node
// per line, root first, children indented under "└─ ".

#include <gtest/gtest.h>

#include "engine/database.h"
#include "stats/scoring.h"
#include "stats/sqlgen.h"
#include "tests/test_util.h"

namespace nlq::engine {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Threads pinned: EXPLAIN prints worker counts, and the goldens
    // must not depend on the machine's core count.
    db_ = nlq::testing::MakeTestDatabase(/*num_partitions=*/4,
                                         /*num_threads=*/3);
    NLQ_ASSERT_OK(db_->ExecuteCommand(
        "CREATE TABLE X (i BIGINT, X1 DOUBLE, X2 DOUBLE)"));
    for (int i = 1; i <= 50; ++i) {
      NLQ_ASSERT_OK(db_->ExecuteCommand(
          "INSERT INTO X VALUES (" + std::to_string(i) + ", 1, 2)"));
    }
    NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE M (j BIGINT, c DOUBLE)"));
    NLQ_ASSERT_OK(
        db_->ExecuteCommand("INSERT INTO M VALUES (1, 10), (2, 20), (3, 30)"));
  }

  std::string Plan(const std::string& sql) {
    auto plan = db_->Explain(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : "";
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExplainTest, SimpleScanIsFullTree) {
  // A bare column projection compiles and runs the columnar pipeline.
  const std::string plan = Plan("SELECT X1 FROM X");
  EXPECT_EQ(plan,
            "Gather (4 stream(s), 4 worker(s))\n"
            "└─ VectorProject (1 column(s); compiled, 1 op(s))\n"
            "   └─ ColumnarScan (X: 50 rows, 4 partitions, 1 of 3 "
            "column(s), batch 1024, morsel 16384 (4 morsel(s)))\n");
}

TEST_F(ExplainTest, ForceInterpretedPlansTheRowPath) {
  QueryOptions interpreted;
  interpreted.force_interpreted = true;
  auto plan = db_->Explain("SELECT X1 FROM X", interpreted);
  NLQ_ASSERT_OK(plan.status());
  EXPECT_EQ(*plan,
            "Gather (4 stream(s), 4 worker(s))\n"
            "└─ Project (1 column(s))\n"
            "   └─ ParallelScan (X: 50 rows, 4 partitions, batch 1024, "
            "morsel 16384 (4 morsel(s)))\n");
}

TEST_F(ExplainTest, ShowsPushdownDecision) {
  const std::string sql =
      "SELECT X1, m1.c FROM X, M m1, M m2 "
      "WHERE m1.j = 1 AND m2.j = 2 AND X1 > 0";
  // Pushed predicates shrink each materialized side to one row, so
  // both are broadcast as constants into the columnar pipeline: the
  // scan names them with their pushed predicates, and the driver-only
  // conjunct becomes a scan filter.
  const std::string plan = Plan(sql);
  EXPECT_EQ(plan,
            "Gather (4 stream(s), 4 worker(s))\n"
            "└─ VectorProject (2 column(s); compiled, 2 op(s))\n"
            "   └─ ColumnarScan (X: 50 rows, 4 partitions, 1 of 3 "
            "column(s), batch 1024, morsel 16384 (4 morsel(s)), filter: "
            "(X1 > 0), broadcast: M AS m1 (1 row after pushdown: "
            "(m1.j = 1)), M AS m2 (1 row after pushdown: (m2.j = 2)))\n");
  // The interpreted oracle keeps the pushed-down cross joins and the
  // residual row-path filter.
  QueryOptions interpreted;
  interpreted.force_interpreted = true;
  auto row_plan = db_->Explain(sql, interpreted);
  NLQ_ASSERT_OK(row_plan.status());
  EXPECT_NE(row_plan->find("CrossJoin (M AS m1: materialized, 1 rows after "
                           "pushdown: (m1.j = 1))"),
            std::string::npos)
      << *row_plan;
  EXPECT_NE(row_plan->find("CrossJoin (M AS m2: materialized, 1 rows after "
                           "pushdown: (m2.j = 2))"),
            std::string::npos);
  EXPECT_NE(row_plan->find("Filter ((X1 > 0))"), std::string::npos)
      << *row_plan;
}

TEST_F(ExplainTest, BroadcastRowPathHasNoCrossJoin) {
  // A VARCHAR result does not compile, so the statement runs the row
  // path; the one-row table stays broadcast there, with no CrossJoin.
  const std::string sql =
      "SELECT pack_point(X1, m1.c) FROM X, M m1 WHERE m1.j = 1 AND X1 > 0";
  EXPECT_EQ(Plan(sql),
            "Gather (4 stream(s), 4 worker(s))\n"
            "└─ Project (1 column(s))\n"
            "   └─ Filter ((X1 > 0))\n"
            "      └─ ParallelScan (X: 50 rows, 4 partitions, batch 1024, "
            "morsel 16384 (4 morsel(s)), broadcast: M AS m1 (1 row after "
            "pushdown: (m1.j = 1)))\n");
  QueryOptions interpreted;
  interpreted.force_interpreted = true;
  auto row_plan = db_->Explain(sql, interpreted);
  NLQ_ASSERT_OK(row_plan.status());
  EXPECT_NE(row_plan->find("CrossJoin (M AS m1: materialized, 1 rows"),
            std::string::npos)
      << *row_plan;
  auto broadcast = db_->Execute(sql);
  auto joined = db_->Execute(sql, interpreted);
  NLQ_ASSERT_OK(broadcast.status());
  NLQ_ASSERT_OK(joined.status());
  ASSERT_EQ(broadcast->num_rows(), 50u);
  ASSERT_EQ(joined->num_rows(), 50u);
  for (size_t r = 0; r < 50; ++r) {
    EXPECT_EQ(broadcast->rows()[r][0].string_value(),
              joined->rows()[0][0].string_value());
  }
}

TEST_F(ExplainTest, MultiRowSmallTableKeepsTheCrossJoin) {
  // M holds three rows: nothing to broadcast, so the default plan is
  // the row path's cross join (whose nodes carry no compiled programs).
  const std::string plan = Plan("SELECT X1 * c FROM X, M");
  EXPECT_NE(plan.find("CrossJoin (M AS M: materialized, 3 rows)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Project (1 column(s))"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("compiled"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Columnar"), std::string::npos) << plan;
}

TEST_F(ExplainTest, AggregatePlanCountsUdfCalls) {
  const std::string plan = Plan(
      "SELECT i % 2, nlq_list('diag', X1, X2), sum(X1) FROM X GROUP BY i % 2");
  EXPECT_NE(plan.find("HashAggregate (1 group key(s), 2 aggregate(s), "
                      "1 aggregate UDF call(s)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("merge: 4 partial state(s) per group, 4 worker(s)"),
            std::string::npos);
  // The aggregate is a pipeline breaker: no separate Gather above it.
  EXPECT_EQ(plan.find("Gather"), std::string::npos);
}

TEST_F(ExplainTest, GlobalAggregateCountsColumnLaneBuiltins) {
  // The paper's wide SUM query at d = 33: its 33 sum(Xa) and 561
  // sum(Xa * Xb) read their columns on lanes, sum(1.0) runs the VM.
  std::vector<std::string> cols = stats::DimensionColumns(32);
  cols.push_back("Y");
  std::string ddl = "CREATE TABLE W (i BIGINT";
  for (const std::string& c : cols) ddl += ", " + c + " DOUBLE";
  NLQ_ASSERT_OK(db_->ExecuteCommand(ddl + ")"));
  const std::string wide =
      Plan(stats::NlqSqlQuery("W", cols, stats::MatrixKind::kLowerTriangular));
  EXPECT_NE(wide.find("VectorHashAggregate (0 group key(s), 595 aggregate(s), "
                      "594 on column lanes; merge:"),
            std::string::npos)
      << wide;
  // SUM/AVG/COUNT of a DOUBLE column or a product of two count; a
  // BIGINT column, an expression, MIN and a grouped statement do not.
  EXPECT_NE(Plan("SELECT sum(X1), avg(X1 * X2), count(X2), sum(i), "
                 "sum(X1 + X2), min(X1), count(*) FROM X")
                .find("7 aggregate(s), 3 on column lanes;"),
            std::string::npos);
  EXPECT_EQ(Plan("SELECT i % 2, sum(X1) FROM X GROUP BY i % 2")
                .find("column lanes"),
            std::string::npos);
  // A UDF-only statement has nothing on column lanes.
  EXPECT_EQ(Plan("SELECT nlq_list('triang', X1, X2) FROM X")
                .find("column lanes"),
            std::string::npos);
}

TEST_F(ExplainTest, HavingAndSortAndLimitShown) {
  const std::string plan = Plan(
      "SELECT i % 2, count(*) FROM X GROUP BY i % 2 "
      "HAVING count(*) > 1 ORDER BY 1 DESC LIMIT 5");
  EXPECT_NE(plan.find("having: (count(*) > 1)"), std::string::npos) << plan;
  // The LIMIT hint turns the sort into a bounded partial sort.
  EXPECT_NE(plan.find("Sort (1 key(s), partial top 5)"), std::string::npos);
  EXPECT_NE(plan.find("Limit (5 rows)"), std::string::npos);
  // Root-first ordering: Limit above Sort above HashAggregate.
  EXPECT_LT(plan.find("Limit"), plan.find("Sort"));
  EXPECT_LT(plan.find("Sort"), plan.find("HashAggregate"));
}

TEST_F(ExplainTest, ConstantInput) {
  const std::string plan = Plan("SELECT 1 + 1");
  EXPECT_NE(plan.find("ConstantInput (no FROM)"), std::string::npos) << plan;
}

TEST_F(ExplainTest, ExplainDoesNotExecute) {
  // Explaining a query with a failing UDF argument must succeed —
  // nothing is evaluated.
  const std::string plan =
      Plan("SELECT sqrt(X1) FROM X WHERE X1 / 0 > 1");
  EXPECT_FALSE(plan.empty());
}

TEST_F(ExplainTest, RejectsNonSelect) {
  EXPECT_FALSE(db_->Explain("DROP TABLE X").ok());
  EXPECT_FALSE(db_->Explain("not sql at all").ok());
  EXPECT_FALSE(db_->Explain("SELECT z FROM missing").ok());
}

TEST_F(ExplainTest, NlqScoringPlanIsCompact) {
  // The paper's k-way aliased cross join stays k rows per side after
  // pushdown, never k^k: each aliased copy is pre-filtered to exactly
  // one centroid row, which the compiled plan broadcasts and the
  // interpreted plan cross-joins.
  NLQ_ASSERT_OK(db_->ExecuteCommand(
      "CREATE TABLE C (j BIGINT, X1 DOUBLE, X2 DOUBLE)"));
  for (int j = 1; j <= 3; ++j) {
    NLQ_ASSERT_OK(db_->ExecuteCommand(
        "INSERT INTO C VALUES (" + std::to_string(j) + ", 0, 0)"));
  }
  const std::string sql = stats::KMeansScoreUdfQuery("X", "C", 2, 3);
  const std::string plan = Plan(sql);
  QueryOptions interpreted;
  interpreted.force_interpreted = true;
  auto row_plan = db_->Explain(sql, interpreted);
  NLQ_ASSERT_OK(row_plan.status());
  EXPECT_NE(plan.find("VectorProject"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("CrossJoin"), std::string::npos) << plan;
  for (int j = 1; j <= 3; ++j) {
    const std::string c = "C" + std::to_string(j);
    EXPECT_NE(plan.find("C AS " + c + " (1 row after pushdown: (" + c +
                        ".j = " + std::to_string(j) + "))"),
              std::string::npos)
        << plan;
    EXPECT_NE(row_plan->find("AS " + c + ": materialized, 1 rows"),
              std::string::npos)
        << *row_plan;
  }
}

}  // namespace
}  // namespace nlq::engine
