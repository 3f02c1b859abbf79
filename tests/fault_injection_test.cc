#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/failpoint.h"
#include "connect/odbc_sim.h"
#include "engine/database.h"
#include "engine/exec/executor.h"
#include "engine/exec/view_registry.h"
#include "engine/parser.h"
#include "gen/datagen.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "udf/heap_segment.h"

namespace nlq {
namespace {

using storage::Datum;
using storage::Row;
using storage::Schema;
using storage::Table;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Failpoint registry mechanics — Check() is compiled in every build
// configuration, so these run even without -DNLQ_FAILPOINTS.
// ---------------------------------------------------------------------------

class FailpointMechanicsTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DeactivateAll(); }
};

TEST_F(FailpointMechanicsTest, UnarmedPointIsOk) {
  NLQ_EXPECT_OK(failpoint::Check("never_armed"));
  EXPECT_EQ(failpoint::HitCount("never_armed"), 0);
}

TEST_F(FailpointMechanicsTest, SkipThenFireThenExhaust) {
  failpoint::Activate("fp", Status::Internal("injected"), /*skip=*/1,
                      /*fire_count=*/2);
  NLQ_EXPECT_OK(failpoint::Check("fp"));  // skipped
  EXPECT_EQ(failpoint::Check("fp").code(), StatusCode::kInternal);
  EXPECT_EQ(failpoint::Check("fp").code(), StatusCode::kInternal);
  NLQ_EXPECT_OK(failpoint::Check("fp"));  // exhausted
  EXPECT_EQ(failpoint::HitCount("fp"), 4);
}

TEST_F(FailpointMechanicsTest, DeactivateDisarms) {
  failpoint::Activate("fp", Status::IOError("injected"));
  EXPECT_EQ(failpoint::Check("fp").code(), StatusCode::kIOError);
  failpoint::Deactivate("fp");
  NLQ_EXPECT_OK(failpoint::Check("fp"));
}

TEST_F(FailpointMechanicsTest, RearmingResetsState) {
  failpoint::Activate("fp", Status::Internal("a"), 0, 1);
  EXPECT_FALSE(failpoint::Check("fp").ok());
  failpoint::Activate("fp", Status::NotFound("b"));
  EXPECT_EQ(failpoint::HitCount("fp"), 0);  // re-arm resets the counter
  EXPECT_EQ(failpoint::Check("fp").code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Injected faults through the engine — need the check sites compiled
// in (cmake -DNLQ_FAILPOINTS=ON); skip everywhere else.
// ---------------------------------------------------------------------------

constexpr uint64_t kRows = 1500;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::BuiltWithFailpoints()) {
      GTEST_SKIP() << "build lacks NLQ_FAILPOINTS; fault sites compiled out";
    }
    failpoint::DeactivateAll();
    db_ = nlq::testing::MakeTestDatabase(/*num_partitions=*/4);
    gen::MixtureOptions options;
    options.n = kRows;
    options.d = 2;
    options.seed = 77;
    NLQ_ASSERT_OK(gen::GenerateDataSetTable(db_.get(), "X", options).status());
  }

  void TearDown() override { failpoint::DeactivateAll(); }

  /// The post-fault invariant every test re-checks: the engine accepts
  /// and correctly answers the next statement.
  void ExpectEngineRecovered() {
    auto after = db_->Execute("SELECT X1 FROM X");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after.value().num_rows(), kRows);
  }

  std::unique_ptr<engine::Database> db_;
};

TEST_F(FaultInjectionTest, PageDecodeFaultFailsQuery) {
  failpoint::Activate("page_decode", Status::IOError("injected decode fault"));
  auto result = db_->Execute("SELECT X1 FROM X");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("injected decode fault"),
            std::string::npos);
  EXPECT_GE(failpoint::HitCount("page_decode"), 1);

  failpoint::Deactivate("page_decode");
  ExpectEngineRecovered();
}

TEST_F(FaultInjectionTest, PartitionScanFaultFailsQuery) {
  failpoint::Activate("partition_scan",
                      Status::Internal("injected scan fault"));
  auto result = db_->Execute("SELECT X1, X2 FROM X");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_GE(failpoint::HitCount("partition_scan"), 1);

  failpoint::Deactivate("partition_scan");
  ExpectEngineRecovered();
}

TEST_F(FaultInjectionTest, UdfAccumulateFaultFailsAggregate) {
  failpoint::Activate("udf_accumulate",
                      Status::Internal("injected ROW-phase fault"));
  auto result = db_->Execute("SELECT nlq_list('triang', X1, X2) FROM X");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("ROW-phase"), std::string::npos);
  EXPECT_GE(failpoint::HitCount("udf_accumulate"), 1);

  failpoint::Deactivate("udf_accumulate");
  auto ok = db_->Execute("SELECT nlq_list('triang', X1, X2) FROM X");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ExpectEngineRecovered();
}

TEST_F(FaultInjectionTest, UdfMergeFaultFailsAggregate) {
  // 4 partitions → at least 4 partial states, so the MERGE phase
  // always runs.
  failpoint::Activate("udf_merge",
                      Status::Internal("injected MERGE-phase fault"));
  auto result = db_->Execute("SELECT nlq_list('triang', X1, X2) FROM X");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("MERGE-phase"), std::string::npos);
  EXPECT_GE(failpoint::HitCount("udf_merge"), 1);

  failpoint::Deactivate("udf_merge");
  ExpectEngineRecovered();
}

TEST_F(FaultInjectionTest, PartialAggregatesDiscardedCleanlyUnderAsan) {
  // The real assertion is ASan/LSan: a fault mid-aggregation must not
  // leak the partial UDF heap segments or group states. Fire the
  // accumulate fault late (skip most hits) so plenty of partial state
  // exists when the query unwinds.
  failpoint::Activate("udf_accumulate", Status::Internal("late fault"),
                      /*skip=*/3);
  auto result = db_->Execute("SELECT nlq_list('full', X1, X2) FROM X");
  ASSERT_FALSE(result.ok());
  failpoint::DeactivateAll();

  auto ok = db_->Execute("SELECT nlq_list('full', X1, X2) FROM X");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(FaultInjectionTest, GroupedUdfAccumulateFaultFreesEveryPartialState) {
  // Under GROUP BY, nlq_list takes one AccumulateSpans call per group
  // of a scan batch. A fault on a late call fails the statement with
  // the injected status, and unwinding frees every partial group
  // state: of the statement's memory charges (one 64 KiB UDF heap
  // segment per stream and group, plus a small group-table entry) only
  // the entries are left. The statement runs under a context this test
  // owns so its tracker can be read afterwards.
  const std::string sql =
      "SELECT i % 16, nlq_list('triang', X1, X2) FROM X GROUP BY i % 16";
  NLQ_ASSERT_OK_AND_ASSIGN(engine::Statement stmt,
                           engine::ParseStatement(sql));
  QueryContext ctx;
  MemoryTracker tracker;
  ctx.set_memory(&tracker);
  engine::exec::Planner planner(&db_->catalog(), &db_->udfs(), &db_->pool(),
                                storage::RowBatch::kDefaultCapacity,
                                db_->options().morsel_rows, &ctx);
  NLQ_ASSERT_OK_AND_ASSIGN(engine::exec::PhysicalPlan plan,
                           planner.Plan(*stmt.select));
  ASSERT_EQ(plan.root->name(), std::string("VectorHashAggregate"));

  failpoint::Activate("udf_accumulate",
                      Status::Internal("injected grouped ROW-phase fault"),
                      /*skip=*/20);
  auto result = engine::exec::ExecutePlan(plan, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("injected grouped ROW-phase"),
            std::string::npos);
  EXPECT_GE(failpoint::HitCount("udf_accumulate"), 21);
  EXPECT_GE(tracker.peak(), 16 * udf::kDefaultHeapCapacity);
  EXPECT_LT(tracker.used(), udf::kDefaultHeapCapacity);
  failpoint::Deactivate("udf_accumulate");

  // The next statement answers exactly like the row path.
  auto ok = db_->Execute(sql);
  NLQ_ASSERT_OK(ok.status());
  engine::QueryOptions interpreted;
  interpreted.force_interpreted = true;
  auto oracle = db_->Execute(sql, interpreted);
  NLQ_ASSERT_OK(oracle.status());
  ASSERT_EQ(ok->num_rows(), 16u);
  ASSERT_EQ(oracle->num_rows(), 16u);
  for (size_t r = 0; r < ok->num_rows(); ++r) {
    EXPECT_EQ(ok->At(r, 1).string_value(), oracle->At(r, 1).string_value());
  }
  ExpectEngineRecovered();
}

TEST_F(FaultInjectionTest, ExprCompileFaultForcesInterpretedFallback) {
  // Unlike every other site, an armed expr_compile fault never fails
  // the statement: compilation failure IS the interpreted fallback.
  const char* kSql = "SELECT X1 * 2.0 + X2 FROM X WHERE X1 + X2 > -1000";
  auto compiled = db_->Execute(kSql);
  NLQ_ASSERT_OK(compiled.status());

  failpoint::Activate("expr_compile",
                      Status::Internal("injected compile fault"));
  auto plan = db_->Explain(kSql);
  NLQ_ASSERT_OK(plan.status());
  EXPECT_EQ(plan->find("compiled"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("Vector"), std::string::npos) << *plan;
  auto fallback = db_->Execute(kSql);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_GE(failpoint::HitCount("expr_compile"), 1);

  // The interpreted result is bit-identical to the compiled one.
  ASSERT_EQ(fallback->num_rows(), compiled->num_rows());
  for (size_t r = 0; r < compiled->num_rows(); ++r) {
    const double a = compiled->At(r, 0).double_value();
    const double b = fallback->At(r, 0).double_value();
    uint64_t abits = 0, bbits = 0;
    std::memcpy(&abits, &a, sizeof(abits));
    std::memcpy(&bbits, &b, sizeof(bbits));
    ASSERT_EQ(abits, bbits) << "row " << r;
  }

  // Disarmed, the planner compiles again.
  failpoint::Deactivate("expr_compile");
  auto plan_after = db_->Explain(kSql);
  NLQ_ASSERT_OK(plan_after.status());
  EXPECT_NE(plan_after->find("VectorProject"), std::string::npos)
      << *plan_after;
  ExpectEngineRecovered();
}

TEST_F(FaultInjectionTest, DiskIoFaultFailsSaveAndLoad) {
  const std::string path = TempPath("fault_disk_io.pages");
  Table table(Schema::DataSet(1));
  for (int i = 0; i < 100; ++i) {
    table.AppendRowUnchecked({Datum::Int64(i), Datum::Double(i * 0.5)});
  }

  failpoint::Activate("disk_io", Status::IOError("injected disk fault"));
  EXPECT_EQ(table.SaveToFile(path).code(), StatusCode::kIOError);
  failpoint::Deactivate("disk_io");
  // The failed save left no partial file to load as a shorter table.
  EXPECT_EQ(Table(Schema::DataSet(1)).LoadFromFile(path).code(),
            StatusCode::kNotFound);
  NLQ_ASSERT_OK(table.SaveToFile(path));

  Table loaded(Schema::DataSet(1));
  failpoint::Activate("disk_io", Status::IOError("injected disk fault"));
  EXPECT_EQ(loaded.LoadFromFile(path).code(), StatusCode::kIOError);
  failpoint::Deactivate("disk_io");
  NLQ_ASSERT_OK(loaded.LoadFromFile(path));
  EXPECT_EQ(loaded.num_rows(), 100u);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, OdbcExportRetriesTransientFaultAndSucceeds) {
  const std::string path = TempPath("fault_odbc_retry.csv");
  auto table = db_->catalog().GetTable("X");
  ASSERT_TRUE(table.ok());

  // Two transient faults, then the link holds: the default policy
  // (3 attempts) rides them out.
  failpoint::Activate("odbc_export", Status::IOError("injected link drop"),
                      /*skip=*/0, /*fire_count=*/2);
  connect::OdbcExporter exporter;
  auto result = exporter.ExportTable(**table, path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().attempts, 3);
  EXPECT_EQ(result.value().rows, kRows);
  EXPECT_EQ(failpoint::HitCount("odbc_export"), 3);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, OdbcExportGivesUpAfterMaxAttempts) {
  const std::string path = TempPath("fault_odbc_dead.csv");
  auto table = db_->catalog().GetTable("X");
  ASSERT_TRUE(table.ok());

  failpoint::Activate("odbc_export", Status::IOError("injected dead link"));
  connect::OdbcExporter exporter;
  auto result = exporter.ExportTable(**table, path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(failpoint::HitCount("odbc_export"), 3);  // attempts are bounded
  failpoint::Deactivate("odbc_export");

  auto retry = exporter.ExportTable(**table, path);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.value().attempts, 1);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, NonIoErrorsAreNotRetried) {
  const std::string path = TempPath("fault_odbc_hard.csv");
  auto table = db_->catalog().GetTable("X");
  ASSERT_TRUE(table.ok());

  failpoint::Activate("odbc_export", Status::Internal("injected hard fault"));
  connect::OdbcExporter exporter;
  auto result = exporter.ExportTable(**table, path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(failpoint::HitCount("odbc_export"), 1);  // no second attempt
}

TEST_F(FaultInjectionTest, PageDecompressFaultFailsSpilledScanCleanly) {
  // Spill X, then poison the codec decode path: the query must unwind
  // with the injected error (no crash, no partial result) and succeed
  // once disarmed — the buffer pool and segment stay usable.
  NLQ_ASSERT_OK(db_->SpillTable("X"));
  failpoint::Activate("page_decompress",
                      Status::Corruption("injected decompress fault"));
  auto result = db_->Execute("SELECT X1 FROM X");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("injected decompress fault"),
            std::string::npos);
  EXPECT_GE(failpoint::HitCount("page_decompress"), 1);

  failpoint::Deactivate("page_decompress");
  ExpectEngineRecovered();
}

TEST_F(FaultInjectionTest, TransientDecompressFaultFailsOneStatementOnly) {
  // Fire exactly once: the hit statement fails, the very next one
  // re-reads the same chunk successfully (failed chunk loads must not
  // poison the pool or the scan state).
  NLQ_ASSERT_OK(db_->SpillTable("X"));
  failpoint::Activate("page_decompress", Status::IOError("transient"),
                      /*skip=*/0, /*fire_count=*/1);
  auto result = db_->Execute("SELECT nlq_list('triang', X1, X2) FROM X");
  ASSERT_FALSE(result.ok());
  ExpectEngineRecovered();
}

TEST_F(FaultInjectionTest, DiskIoFaultFailsSpilledScanCleanly) {
  // The same contract one layer down: a read fault under the buffer
  // pool surfaces as the statement's error and leaves no poisoned
  // frame behind.
  NLQ_ASSERT_OK(db_->SpillTable("X"));
  failpoint::Activate("disk_io", Status::IOError("injected spill read fault"));
  auto result = db_->Execute("SELECT X1 FROM X");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);

  failpoint::Deactivate("disk_io");
  ExpectEngineRecovered();
}

TEST_F(FaultInjectionTest, ViewMaintenanceFaultDegradesToRescanNotWrongResults) {
  // A fault in the view's delta/seed accumulation must never fail the
  // statement or change a bit of its result: the registry drops the
  // poisoned entry and the statement degrades to a plain full rescan.
  const char* kSql = "SELECT nlq_list('triang', X1, X2) FROM X";
  auto baseline = db_->Execute(kSql);  // db_ has no view maintenance
  NLQ_ASSERT_OK(baseline.status());

  engine::DatabaseOptions options;
  options.num_partitions = 4;
  options.enable_view_maintenance = true;
  engine::Database vdb(options);
  NLQ_ASSERT_OK(stats::RegisterAllStatsUdfs(&vdb.udfs()));
  gen::MixtureOptions gen_options;
  gen_options.n = kRows;
  gen_options.d = 2;
  gen_options.seed = 77;  // same rows as db_'s X
  NLQ_ASSERT_OK(gen::GenerateDataSetTable(&vdb, "X", gen_options).status());

  failpoint::Activate("view_maintenance",
                      Status::Internal("injected view fault"));
  auto degraded = vdb.Execute(kSql);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_GE(failpoint::HitCount("view_maintenance"), 1);
  EXPECT_EQ(degraded->At(0, 0).string_value(),
            baseline->At(0, 0).string_value());
  // The half-seeded entry was dropped, not kept.
  ASSERT_NE(vdb.view_registry(), nullptr);
  EXPECT_EQ(vdb.view_registry()->num_views(), 0u);
  ASSERT_TRUE(vdb.last_query_stats().has_value());
  EXPECT_EQ(vdb.last_query_stats()->view_rebuilds, 1u);

  // Disarmed, the same statement seeds the view and still matches.
  failpoint::Deactivate("view_maintenance");
  auto seeded = vdb.Execute(kSql);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  EXPECT_EQ(seeded->At(0, 0).string_value(),
            baseline->At(0, 0).string_value());
  EXPECT_EQ(vdb.view_registry()->num_views(), 1u);
}

TEST_F(FaultInjectionTest, ViewRefreshFaultDegradesToTheNodesOwnScan) {
  // A fault in a delta refresh of a served view: the aggregate node
  // must fall back to its own scan, bit for bit the no-views answer,
  // with the rebuild counted and the poisoned entry dropped. The
  // pushed-down filter empties whole morsels on the way.
  const char* kSql =
      "SELECT nlq_list('triang', X1, X2), sum(X1), count(*) FROM X "
      "WHERE i >= 700";
  auto bits = [](const engine::ResultSet& r) {
    std::string out = r.At(0, 0).string_value() + "|";
    const double sum = r.At(0, 1).double_value();
    uint64_t b = 0;
    std::memcpy(&b, &sum, sizeof(b));
    return out + std::to_string(b) + "|" +
           std::to_string(r.At(0, 2).int_value());
  };

  // Small morsels so the filter empties whole ones; the baseline
  // database has the same grid (and so the same merge order), views
  // off.
  engine::DatabaseOptions options;
  options.num_partitions = 4;
  options.morsel_rows = 64;
  engine::Database pdb(options);
  options.enable_view_maintenance = true;
  engine::Database vdb(options);
  gen::MixtureOptions gen_options;
  gen_options.n = kRows;
  gen_options.d = 2;
  gen_options.seed = 77;
  const char* kAppend =
      "INSERT INTO X VALUES (5000, 0.5, 1.0), (5001, -1.5, 2.5)";
  for (engine::Database* db : {&pdb, &vdb}) {
    NLQ_ASSERT_OK(stats::RegisterAllStatsUdfs(&db->udfs()));
    NLQ_ASSERT_OK(gen::GenerateDataSetTable(db, "X", gen_options).status());
    NLQ_ASSERT_OK(db->Execute(kSql).status());  // seeds vdb's view
    NLQ_ASSERT_OK(db->ExecuteCommand(kAppend));
  }
  ASSERT_EQ(vdb.view_registry()->num_views(), 1u);
  auto baseline = pdb.Execute(kSql);
  NLQ_ASSERT_OK(baseline.status());

  NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, vdb.Explain(kSql));
  EXPECT_NE(plan.find("VectorHashAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("view=fresh delta=2"), std::string::npos) << plan;

  failpoint::Activate("view_maintenance",
                      Status::Internal("injected refresh fault"));
  auto degraded = vdb.Execute(kSql);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_GE(failpoint::HitCount("view_maintenance"), 1);
  EXPECT_EQ(bits(*degraded), bits(*baseline));
  ASSERT_TRUE(vdb.last_query_stats().has_value());
  EXPECT_EQ(vdb.last_query_stats()->view_rebuilds, 1u);
  EXPECT_EQ(vdb.last_query_stats()->view_hits, 0u);
  EXPECT_EQ(vdb.view_registry()->num_views(), 0u);

  // Disarmed, the next statement reseeds and still matches.
  failpoint::Deactivate("view_maintenance");
  NLQ_ASSERT_OK_AND_ASSIGN(plan, vdb.Explain(kSql));
  EXPECT_NE(plan.find("view=stale (seeding"), std::string::npos) << plan;
  auto reseeded = vdb.Execute(kSql);
  ASSERT_TRUE(reseeded.ok()) << reseeded.status().ToString();
  EXPECT_EQ(bits(*reseeded), bits(*baseline));
  EXPECT_EQ(vdb.view_registry()->num_views(), 1u);
}

TEST_F(FaultInjectionTest, ColumnCacheFillFaultSurfaces) {
  // Columnar aggregates read resident chunks through the same
  // ChunkCursor load — the page_decode site covers that path too.
  failpoint::Activate("page_decode", Status::IOError("injected chunk fault"));
  auto result = db_->Execute("SELECT SUM(X1) FROM X");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);

  failpoint::Deactivate("page_decode");
  auto ok = db_->Execute("SELECT SUM(X1) FROM X");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(FaultInjectionTest, CancelBeforeFirstScanPollNeverReachesTheScan) {
  // Uses partition_scan purely as a HIT COUNTER: armed with a huge
  // skip it never fires, but HitCount() reports how many scan batches
  // ran. Both scan paths poll CheckAlive() immediately BEFORE the
  // partition_scan site, so a statement whose token was flipped
  // before execution (the server's queued-cancel case: registered,
  // never yet polling) must die at its very first poll — the scan
  // site is never reached and the counter stays at zero.
  failpoint::Activate("partition_scan", Status::Internal("counter only"),
                      /*skip=*/1 << 30, /*fire_count=*/0);
  engine::QueryOptions q;
  q.cancel_token = std::make_shared<std::atomic<bool>>(true);
  auto result = db_->Execute("SELECT X1, X2 FROM X", q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(failpoint::HitCount("partition_scan"), 0)
      << "a scan batch ran after the statement was already cancelled";

  failpoint::Deactivate("partition_scan");
  ExpectEngineRecovered();
}

}  // namespace
}  // namespace nlq
