#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "engine/database.h"
#include "gen/datagen.h"
#include "tests/test_util.h"
#include "udf/udf.h"

namespace nlq::engine {
namespace {

using storage::DataType;
using storage::Datum;

/// Rows the slow UDF has processed across all queries — how tests
/// observe that a cancelled/timed-out query did NOT run to completion.
std::atomic<uint64_t> g_slow_rows{0};

/// Scalar UDF that sleeps per row: turns any scan into a query slow
/// enough to cancel or time out deterministically.
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
    g_slow_rows.fetch_add(1, std::memory_order_relaxed);
    return args[0];
  }
};

constexpr uint64_t kRows = 4000;

class CancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = nlq::testing::MakeTestDatabase(/*num_partitions=*/4);
    NLQ_ASSERT_OK(db_->udfs().RegisterScalar(std::make_unique<SlowPassUdf>()));
    gen::MixtureOptions options;
    options.n = kRows;
    options.d = 2;
    options.seed = 99;
    NLQ_ASSERT_OK(gen::GenerateDataSetTable(db_.get(), "X", options).status());
    g_slow_rows = 0;
  }

  std::unique_ptr<Database> db_;
};

// kRows * 50us of sleep ≈ 200 ms of work (divided by the worker
// count); a deadline tens of milliseconds out always fires first.
constexpr const char* kSlowQuery = "SELECT slow_pass(X1) FROM X";

/// The slow UDF runs compiled, through the span call opcode: the
/// statement must stay cancellable between its 256-row call slices.
void ExpectCompiledCall(Database* db) {
  auto plan = db->Explain(kSlowQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("VectorProject"), std::string::npos) << *plan;
}

TEST_F(CancellationTest, DeadlineExceededWithoutCompleting) {
  ExpectCompiledCall(db_.get());
  QueryOptions q;
  q.timeout_ms = 20;
  auto result = db_->Execute(kSlowQuery, q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(g_slow_rows.load(), kRows) << "query ran to completion anyway";

  // The engine stays usable: the next statement starts clean.
  auto after = db_->Execute("SELECT X1 FROM X");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().num_rows(), kRows);
}

TEST_F(CancellationTest, DatabaseDefaultTimeoutApplies) {
  DatabaseOptions options;
  options.num_partitions = 4;
  options.default_timeout_ms = 20;
  Database db(options);
  NLQ_ASSERT_OK(db.udfs().RegisterScalar(std::make_unique<SlowPassUdf>()));
  gen::MixtureOptions gen_options;
  gen_options.n = kRows;
  gen_options.d = 2;
  gen_options.seed = 99;
  NLQ_ASSERT_OK(gen::GenerateDataSetTable(&db, "X", gen_options).status());
  ExpectCompiledCall(&db);

  auto result = db.Execute(kSlowQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // timeout_ms = 0 overrides the database default to "no deadline".
  QueryOptions no_deadline;
  no_deadline.timeout_ms = 0;
  auto full = db.Execute(kSlowQuery, no_deadline);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.value().num_rows(), kRows);
}

TEST_F(CancellationTest, CancelFromAnotherThread) {
  ExpectCompiledCall(db_.get());
  // The canceller watches for the statement to start (last_query_id
  // becomes nonzero), then cancels it mid-flight.
  Status cancel_status;
  std::thread canceller([&] {
    while (db_->last_query_id() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cancel_status = db_->Cancel(db_->last_query_id());
  });
  auto result = db_->Execute(kSlowQuery);
  canceller.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  NLQ_EXPECT_OK(cancel_status);
  EXPECT_LT(g_slow_rows.load(), kRows);

  auto after = db_->Execute("SELECT X1 FROM X");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().num_rows(), kRows);
}

TEST_F(CancellationTest, CancelUnknownIdReturnsNotFound) {
  EXPECT_EQ(db_->Cancel(424242).code(), StatusCode::kNotFound);
  // A finished query is no longer cancellable either.
  NLQ_ASSERT_OK(db_->Execute("SELECT X1 FROM X").status());
  EXPECT_EQ(db_->Cancel(db_->last_query_id()).code(), StatusCode::kNotFound);
}

TEST_F(CancellationTest, MemoryBudgetStopsRunawayQuery) {
  QueryOptions q;
  q.memory_limit = 4096;  // far below kRows of materialized rows
  auto result = db_->Execute("SELECT X1, X2 FROM X", q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  // Unlimited (the default) succeeds, and the engine is clean.
  auto full = db_->Execute("SELECT X1, X2 FROM X");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.value().num_rows(), kRows);
}

TEST_F(CancellationTest, UdafHeapChargedAgainstBudget) {
  // Each aggregate-UDF partial allocates a 64 KB heap segment; a
  // 16 KB budget cannot admit even one.
  QueryOptions q;
  q.memory_limit = 16 * 1024;
  auto result = db_->Execute("SELECT nlq_list('triang', X1, X2) FROM X", q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  QueryOptions roomy;
  roomy.memory_limit = 64 * 1024 * 1024;
  auto ok = db_->Execute("SELECT nlq_list('triang', X1, X2) FROM X", roomy);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().num_rows(), 1u);
}

TEST_F(CancellationTest, ColumnCacheFallsBackToStreamingUnderBudget) {
  // kRows doubles are ~32 KB of column per dimension, twice the 16 KB
  // budget: the columnar scan reads the chunks in place and charges
  // nothing for them, so the statement succeeds — and the answer
  // matches the unlimited run exactly.
  auto unlimited = db_->QueryDouble("SELECT SUM(X1) FROM X");
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();

  QueryOptions q;
  q.memory_limit = 16 * 1024;
  auto budgeted = db_->Execute("SELECT SUM(X1) FROM X", q);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  ASSERT_EQ(budgeted.value().num_rows(), 1u);
  EXPECT_EQ(budgeted.value().GetDouble(0, 0),
            unlimited.value());  // bitwise: same scan order
}

TEST_F(CancellationTest, LifecycleOptionsDoNotPerturbResults) {
  // A generous deadline and budget must leave successful results
  // bit-identical to an unconstrained run, across thread counts.
  std::string baseline;
  for (const size_t threads : {1u, 2u, 4u}) {
    auto db = nlq::testing::MakeTestDatabase(4, threads);
    gen::MixtureOptions options;
    options.n = kRows;
    options.d = 2;
    options.seed = 99;
    NLQ_ASSERT_OK(gen::GenerateDataSetTable(db.get(), "X", options).status());
    QueryOptions q;
    q.timeout_ms = 60'000;
    q.memory_limit = 256 * 1024 * 1024;
    auto result = db->Execute("SELECT nlq_list('triang', X1, X2) FROM X", q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().num_rows(), 1u);
    const std::string got = result.value().rows()[0][0].string_value();
    if (baseline.empty()) {
      baseline = got;
    } else {
      EXPECT_EQ(got, baseline) << "results diverged at " << threads
                               << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// The registration-ordering guarantee (see Database::Cancel): a
// statement's cancel token is registered BEFORE its id is published
// through last_query_id(). These tests race the canceller into the
// narrow window right after publication, where the statement may not
// have reached its first cancellation poll yet.
// ---------------------------------------------------------------------------

TEST_F(CancellationTest, CancelRightAfterIdPublishedNeverNotFound) {
  // Repeat to stress the startup window: the canceller fires the
  // instant it sees a fresh id, often before the first morsel runs.
  // Before the ordering fix, this intermittently hit NotFound (id
  // published, token not yet registered) and the statement ran to
  // completion despite the "successful" cancel attempt.
  for (int round = 0; round < 12; ++round) {
    const uint64_t prev_id = db_->last_query_id();
    Status cancel_status = Status::Internal("canceller never fired");
    std::thread canceller([&] {
      while (db_->last_query_id() == prev_id) {
        std::this_thread::yield();
      }
      cancel_status = db_->Cancel(db_->last_query_id());
    });
    auto result = db_->Execute(kSlowQuery);
    canceller.join();

    NLQ_EXPECT_OK(cancel_status);
    ASSERT_FALSE(result.ok()) << "round " << round;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << "round " << round;
  }

  auto after = db_->Execute("SELECT X1 FROM X");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().num_rows(), kRows);
}

TEST_F(CancellationTest, PreFlippedTokenCancelsAtFirstPoll) {
  // A token flipped before Execute even starts models the server's
  // pending_cancel (cancel arrives while the statement is queued in
  // admission): the statement must die at its first poll, not run.
  QueryOptions q;
  q.cancel_token = std::make_shared<std::atomic<bool>>(true);
  auto result = db_->Execute(kSlowQuery, q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(g_slow_rows.load(), kRows) << "statement ran to completion";

  // The token is externally owned and one statement's cancellation
  // must not leak: a fresh statement with its own (unflipped) token
  // runs normally.
  QueryOptions clean;
  clean.cancel_token = std::make_shared<std::atomic<bool>>(false);
  auto after = db_->Execute("SELECT X1 FROM X", clean);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().num_rows(), kRows);
}

}  // namespace
}  // namespace nlq::engine
