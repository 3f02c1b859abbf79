// Maintained sufficient-statistic views (DESIGN.md §13): an eligible
// global n,L,Q aggregate keeps per-morsel partials registered across
// statements, so a model rebuild after appending k rows accumulates
// only those k rows (O(delta)) instead of rescanning all n. These
// tests pin the three contracts the feature stands on:
//   1. bit-identity — the view-backed result equals the plain
//      columnar rescan exactly, across worker-thread counts {1,2,4}
//      and partition layouts {1,2,4,7}, through repeated append +
//      refresh rounds that extend tail morsels mid-stream, on dyadic
//      data and on full-mantissa data whose sums see any change in
//      accumulation or merge order;
//   2. O(delta) work — a refresh after k appended rows accumulates k
//      rows (view_delta_rows) and decodes a small suffix of pages,
//      not the whole table;
//   3. safe degradation — staleness (Clear/spill/DROP), memory
//      pressure, and eviction drop the registry state, and the
//      statement's own scan answers, never a wrong or missing result; a
//      spilled or partly spilled table reseeds once and is then served
//      like a resident one.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "engine/database.h"
#include "engine/exec/view_registry.h"
#include "stats/sqlgen.h"
#include "storage/partitioned_table.h"
#include "tests/test_util.h"

namespace nlq::engine {
namespace {

using storage::Datum;
using storage::Row;

std::string Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return StringPrintf("%016llx", static_cast<unsigned long long>(bits));
}

/// Renders a result set so "equal" means byte-identical, not close.
std::string ResultSignature(const ResultSet& result) {
  std::string out;
  for (const auto& row : result.rows()) {
    for (const Datum& v : row) {
      if (v.is_null()) {
        out += "NULL,";
        continue;
      }
      switch (v.type()) {
        case storage::DataType::kDouble:
          out += "d:" + Bits(v.double_value()) + ",";
          break;
        case storage::DataType::kInt64:
          out += StringPrintf("i:%lld,", static_cast<long long>(v.int_value()));
          break;
        case storage::DataType::kVarchar:
          out += "s:" + v.string_value() + ",";
          break;
      }
    }
    out += "\n";
  }
  return out;
}

std::unique_ptr<Database> MakeViewDb(size_t partitions, size_t threads,
                                     bool views, uint64_t morsel_rows = 256) {
  DatabaseOptions options;
  options.num_partitions = partitions;
  options.num_threads = threads;
  options.morsel_rows = morsel_rows;
  options.enable_view_maintenance = views;
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(stats::RegisterAllStatsUdfs(&db->udfs()).ok());
  return db;
}

/// Deterministic dyadic cell: a pure function of (row, column), so
/// paired databases filled over different statement sequences still
/// hold identical rows.
double CellValue(size_t r, size_t c) {
  const int64_t k = static_cast<int64_t>((r * 37 + c * 131 + 7) % 4096) - 2048;
  return static_cast<double>(k) / 256.0;
}

/// Appends rows [begin, end) of the deterministic stream to T(i, X1, X2).
void AppendRows(Database* db, size_t begin, size_t end) {
  std::string insert;
  for (size_t r = begin; r < end; ++r) {
    if (insert.empty()) insert = "INSERT INTO T VALUES ";
    insert += StringPrintf("(%zu, %.8f, %.8f)", r, CellValue(r, 1),
                           CellValue(r, 2));
    if ((r + 1 - begin) % 128 == 0 || r + 1 == end) {
      NLQ_ASSERT_OK(db->ExecuteCommand(insert));
      insert.clear();
    } else {
      insert += ", ";
    }
  }
}

void CreateT(Database* db) {
  NLQ_ASSERT_OK(
      db->ExecuteCommand("CREATE TABLE T (i BIGINT, X1 DOUBLE, X2 DOUBLE)"));
}

const char* kQueries[] = {
    "SELECT nlq_list('triang', X1, X2) FROM T",
    "SELECT nlq_list('full', X1, X2) FROM T WHERE X1 > -4.0",
    "SELECT nlq_list('diag', X2) FROM T WHERE i < 700",
    "SELECT count(*), sum(X1), min(X1), max(X2) FROM T",
};

// ---------------------------------------------------------------------------
// 1. Bit-identity across threads and partitions, through append rounds
// ---------------------------------------------------------------------------

TEST(ViewMaintenanceTest, BitIdenticalToRescanAcrossThreadsAndPartitions) {
  const size_t kPartitions[] = {1, 2, 4, 7};
  const size_t kThreads[] = {1, 2, 4};
  // Append bursts chosen to extend tail morsels mid-stream (morsel
  // size 256, initial fill not a multiple of it) and to cross morsel
  // boundaries on the second round.
  const size_t kInitial = 777;
  const size_t kBurst1 = 123;
  const size_t kBurst2 = 300;
  for (const size_t parts : kPartitions) {
    // Per-query signatures of the first thread count; later thread
    // counts must reproduce them bit for bit.
    std::vector<std::vector<std::string>> baseline;
    for (const size_t threads : kThreads) {
      SCOPED_TRACE(StringPrintf("partitions=%zu threads=%zu", parts, threads));
      auto vdb = MakeViewDb(parts, threads, /*views=*/true);
      auto pdb = MakeViewDb(parts, threads, /*views=*/false);
      CreateT(vdb.get());
      CreateT(pdb.get());
      AppendRows(vdb.get(), 0, kInitial);
      AppendRows(pdb.get(), 0, kInitial);

      std::vector<std::vector<std::string>> sigs;
      const size_t bounds[] = {kInitial, kInitial + kBurst1,
                               kInitial + kBurst1 + kBurst2};
      size_t filled = kInitial;
      for (const size_t bound : bounds) {
        AppendRows(vdb.get(), filled, bound);
        AppendRows(pdb.get(), filled, bound);
        filled = bound;
        std::vector<std::string> round;
        for (const char* sql : kQueries) {
          auto viewed = vdb->Execute(sql);
          auto rescan = pdb->Execute(sql);
          NLQ_ASSERT_OK(viewed.status());
          NLQ_ASSERT_OK(rescan.status());
          EXPECT_EQ(ResultSignature(*viewed), ResultSignature(*rescan))
              << sql;
          round.push_back(ResultSignature(*viewed));
        }
        sigs.push_back(std::move(round));
      }

      // The statements really served the registry: every query shape
      // is registered and the refresh rounds were hits.
      ASSERT_NE(vdb->view_registry(), nullptr);
      EXPECT_EQ(vdb->view_registry()->num_views(),
                sizeof(kQueries) / sizeof(kQueries[0]));
      ASSERT_TRUE(vdb->last_query_stats().has_value());
      EXPECT_EQ(vdb->last_query_stats()->view_hits, 1u);

      if (baseline.empty()) {
        baseline = sigs;
      } else {
        // Thread count must not change one bit of any round.
        EXPECT_EQ(sigs, baseline);
      }
    }
  }
}

/// Full-mantissa cell: sums of these round, so the result bits change
/// with the order rows accumulate or partials merge — which the dyadic
/// CellValue, whose every sum is exact, cannot show.
double MantissaCell(size_t r, size_t c) {
  return std::sin(0.37 * static_cast<double>(r) + static_cast<double>(c)) *
         1000.0;
}

void AppendMantissaRows(Database* db, size_t begin, size_t end) {
  std::string insert;
  for (size_t r = begin; r < end; ++r) {
    insert += insert.empty() ? "INSERT INTO T VALUES " : ", ";
    insert += StringPrintf("(%zu, %.17g, %.17g)", r, MantissaCell(r, 1),
                           MantissaCell(r, 2));
    if ((r + 1 - begin) % 128 == 0 || r + 1 == end) {
      NLQ_ASSERT_OK(db->ExecuteCommand(insert));
      insert.clear();
    }
  }
}

TEST(ViewMaintenanceTest, FullMantissaAppendRoundsStayBitIdentical) {
  // A seed, then three append rounds on 64-row morsels: each round
  // extends tail morsels part of the way and opens new ones. A refresh
  // must continue each stored partial's accumulation exactly where it
  // stopped and fold in grid order, or the rounded sums differ from
  // the views-off twin's.
  const size_t kPartitions[] = {1, 2, 4, 7};
  const size_t kThreads[] = {1, 2, 4};
  constexpr uint64_t kMorselRows = 64;
  const size_t kBounds[] = {500, 800, 1150, 1600};
  for (const size_t parts : kPartitions) {
    for (const size_t threads : kThreads) {
      SCOPED_TRACE(StringPrintf("partitions=%zu threads=%zu", parts, threads));
      auto vdb = MakeViewDb(parts, threads, /*views=*/true, kMorselRows);
      auto pdb = MakeViewDb(parts, threads, /*views=*/false, kMorselRows);
      CreateT(vdb.get());
      CreateT(pdb.get());
      NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * table,
                               vdb->catalog().GetTable("T"));
      size_t filled = 0;
      for (const size_t bound : kBounds) {
        std::vector<uint64_t> before;
        for (size_t p = 0; p < parts; ++p) {
          before.push_back(table->partition(p).num_rows());
        }
        AppendMantissaRows(vdb.get(), filled, bound);
        AppendMantissaRows(pdb.get(), filled, bound);
        if (filled > 0) {
          // Some partition's tail morsel was partly full and is now
          // full, with rows past it in a new morsel.
          bool extends_and_opens = false;
          for (size_t p = 0; p < parts; ++p) {
            const uint64_t tail_end =
                (before[p] / kMorselRows + 1) * kMorselRows;
            extends_and_opens |= before[p] % kMorselRows != 0 &&
                                 table->partition(p).num_rows() > tail_end;
          }
          EXPECT_TRUE(extends_and_opens) << "round to " << bound;
        }
        for (const char* sql : kQueries) {
          NLQ_ASSERT_OK_AND_ASSIGN(ResultSet viewed, vdb->Execute(sql));
          NLQ_ASSERT_OK_AND_ASSIGN(ResultSet plain, pdb->Execute(sql));
          EXPECT_EQ(ResultSignature(viewed), ResultSignature(plain))
              << sql << " after " << bound << " rows";
          const QueryStatsSnapshot& stats = *vdb->last_query_stats();
          EXPECT_EQ(stats.view_hits, filled > 0 ? 1u : 0u) << sql;
          if (filled > 0) {
            EXPECT_EQ(stats.view_delta_rows, bound - filled) << sql;
          }
        }
        filled = bound;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. O(delta) refresh work
// ---------------------------------------------------------------------------

TEST(ViewMaintenanceTest, RefreshAfterAppendDoesDeltaWorkOnly) {
  auto db = MakeViewDb(/*partitions=*/4, /*threads=*/4, /*views=*/true,
                       /*morsel_rows=*/1024);
  CreateT(db.get());
  const size_t kN = 20000;
  const size_t kDelta = 64;
  AppendRows(db.get(), 0, kN);
  const char* kSql = "SELECT nlq_list('triang', X1, X2) FROM T";

  // Seeding statement: a full accumulate, counted as a miss/rebuild.
  NLQ_ASSERT_OK(db->Execute(kSql).status());
  ASSERT_TRUE(db->last_query_stats().has_value());
  const auto seed_stats = *db->last_query_stats();
  EXPECT_EQ(seed_stats.view_misses, 1u);
  EXPECT_EQ(seed_stats.view_rebuilds, 1u);
  EXPECT_EQ(seed_stats.view_hits, 0u);
  ASSERT_GT(seed_stats.pages_decoded, 0u);
  EXPECT_GT(db->view_registry()->state_bytes(), 0u);

  // Refresh after k appended rows: the accumulate visits exactly the
  // k new rows and reads only the tail chunks they landed in, not the
  // table.
  AppendRows(db.get(), kN, kN + kDelta);
  NLQ_ASSERT_OK(db->Execute(kSql).status());
  const auto delta_stats = *db->last_query_stats();
  EXPECT_EQ(delta_stats.view_hits, 1u);
  EXPECT_EQ(delta_stats.view_misses, 0u);
  EXPECT_EQ(delta_stats.view_rebuilds, 0u);
  EXPECT_EQ(delta_stats.view_delta_rows, kDelta);
  EXPECT_LT(delta_stats.pages_decoded, seed_stats.pages_decoded / 4)
      << "refresh read " << delta_stats.pages_decoded << " of "
      << seed_stats.pages_decoded << " blocks";

  // A second refresh with nothing appended is pure merge: zero rows,
  // zero blocks.
  NLQ_ASSERT_OK(db->Execute(kSql).status());
  const auto idle_stats = *db->last_query_stats();
  EXPECT_EQ(idle_stats.view_hits, 1u);
  EXPECT_EQ(idle_stats.view_delta_rows, 0u);
  EXPECT_EQ(idle_stats.pages_decoded, 0u);
}

// ---------------------------------------------------------------------------
// 3. EXPLAIN annotations and staleness transitions
// ---------------------------------------------------------------------------

TEST(ViewMaintenanceTest, ExplainTracksFreshStaleIneligible) {
  auto db = MakeViewDb(/*partitions=*/2, /*threads=*/2, /*views=*/true);
  // Views-off twin: the 505 rows this test appends to `db` in two
  // steps, in the same partitions.
  auto pdb = MakeViewDb(/*partitions=*/2, /*threads=*/2, /*views=*/false);
  CreateT(db.get());
  CreateT(pdb.get());
  AppendRows(db.get(), 0, 500);
  AppendRows(pdb.get(), 0, 505);
  const char* kSql = "SELECT nlq_list('triang', X1, X2) FROM T";

  // Unregistered: the plan seeds.
  NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(kSql));
  EXPECT_NE(plan.find("VectorHashAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("view=stale (seeding 500 row(s))"), std::string::npos)
      << plan;

  // Seeded: fresh with zero delta, then with the appended delta.
  NLQ_ASSERT_OK(db->Execute(kSql).status());
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find("view=fresh delta=0 of 500 row(s)"), std::string::npos)
      << plan;
  AppendRows(db.get(), 500, 505);
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find("view=fresh delta=5 of 505 row(s)"), std::string::npos)
      << plan;

  // A destructive mutation (Clear bumps the partition's epoch): the
  // first probe observes staleness, drops the entry and leaves the
  // aggregate on its own scan; the next statement reseeds.
  NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * table,
                           db->catalog().GetTable("T"));
  table->partition(0).Clear();
  NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * twin,
                           pdb->catalog().GetTable("T"));
  twin->partition(0).Clear();
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find("VectorHashAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("view=stale"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("seeding"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("view=fresh"), std::string::npos) << plan;
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find("view=stale (seeding"), std::string::npos) << plan;

  // A spilled table is served like a resident one: the spill drops
  // the table's views, the next statement reseeds from the spilled
  // chunks, and the one after it is a fresh hit — both with the
  // views-off answer, bit for bit.
  NLQ_ASSERT_OK(db->SpillTable("T"));
  EXPECT_EQ(db->view_registry()->num_views(), 0u);
  const unsigned long long rows = table->num_rows();
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find(StringPrintf("view=stale (seeding %llu row(s))", rows)),
            std::string::npos)
      << plan;
  NLQ_ASSERT_OK_AND_ASSIGN(ResultSet plain, pdb->Execute(kSql));
  NLQ_ASSERT_OK_AND_ASSIGN(ResultSet seeded, db->Execute(kSql));
  EXPECT_EQ(ResultSignature(seeded), ResultSignature(plain));
  EXPECT_EQ(db->last_query_stats()->view_rebuilds, 1u);
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find(StringPrintf("view=fresh delta=0 of %llu row(s)", rows)),
            std::string::npos)
      << plan;
  NLQ_ASSERT_OK_AND_ASSIGN(ResultSet served, db->Execute(kSql));
  EXPECT_EQ(ResultSignature(served), ResultSignature(plain));
  EXPECT_EQ(db->last_query_stats()->view_hits, 1u);
  EXPECT_EQ(db->view_registry()->num_views(), 1u);

  // Grouped n,L,Q aggregates are recognized but not maintained.
  const std::string grouped = stats::NlqUdfQueryGrouped(
      "T", {"X1", "X2"}, stats::MatrixKind::kLowerTriangular,
      stats::ParamStyle::kList, "i % 3");
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(grouped));
  EXPECT_NE(plan.find("view=ineligible (group-by)"), std::string::npos)
      << plan;
}

TEST(ViewMaintenanceTest, PartlySpilledTableSeedsOnceThenServesFresh) {
  // One resident partition beside three spilled ones (a partition
  // cleared after the spill reverts to resident chunks), with later
  // appends landing in the spilled partitions' resident tails as well:
  // every view shape seeds once, then each statement is a fresh hit
  // that reads only the appended rows, bit-identical to views off.
  auto vdb = MakeViewDb(/*partitions=*/4, /*threads=*/2, /*views=*/true);
  auto pdb = MakeViewDb(/*partitions=*/4, /*threads=*/2, /*views=*/false);
  for (Database* db : {vdb.get(), pdb.get()}) {
    CreateT(db);
    AppendRows(db, 0, 1500);
    NLQ_ASSERT_OK(db->SpillTable("T"));
    NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * table,
                             db->catalog().GetTable("T"));
    table->partition(0).Clear();
    AppendRows(db, 1500, 1700);
  }
  NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * table,
                           vdb->catalog().GetTable("T"));
  ASSERT_FALSE(table->partition(0).is_spilled());
  ASSERT_GT(table->partition(0).num_rows(), 0u);
  for (size_t p = 1; p < table->num_partitions(); ++p) {
    ASSERT_TRUE(table->partition(p).is_spilled()) << "partition " << p;
    ASSERT_GT(table->partition(p).num_rows(),
              table->partition(p).spill()->num_rows())
        << "partition " << p << " has no resident tail";
  }

  auto expect_plain = [&](const char* sql, const ResultSet& viewed) {
    auto plain = pdb->Execute(sql);
    NLQ_ASSERT_OK(plain.status());
    EXPECT_EQ(ResultSignature(viewed), ResultSignature(*plain)) << sql;
  };
  for (const char* sql : kQueries) {
    NLQ_ASSERT_OK_AND_ASSIGN(ResultSet seeded, vdb->Execute(sql));
    expect_plain(sql, seeded);
    EXPECT_EQ(vdb->last_query_stats()->view_rebuilds, 1u) << sql;

    NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, vdb->Explain(sql));
    EXPECT_NE(plan.find("view=fresh delta=0"), std::string::npos) << plan;
    NLQ_ASSERT_OK_AND_ASSIGN(ResultSet served, vdb->Execute(sql));
    expect_plain(sql, served);
    EXPECT_EQ(vdb->last_query_stats()->view_hits, 1u) << sql;
    EXPECT_EQ(vdb->last_query_stats()->view_rebuilds, 0u) << sql;
  }

  AppendRows(vdb.get(), 1700, 1740);
  AppendRows(pdb.get(), 1700, 1740);
  for (const char* sql : kQueries) {
    NLQ_ASSERT_OK_AND_ASSIGN(ResultSet refreshed, vdb->Execute(sql));
    expect_plain(sql, refreshed);
    EXPECT_EQ(vdb->last_query_stats()->view_hits, 1u) << sql;
    EXPECT_EQ(vdb->last_query_stats()->view_delta_rows, 40u) << sql;
  }
}

TEST(ViewMaintenanceTest, DropTableInvalidatesEagerly) {
  auto db = MakeViewDb(/*partitions=*/4, /*threads=*/2, /*views=*/true);
  CreateT(db.get());
  AppendRows(db.get(), 0, 300);
  const char* kSql = "SELECT nlq_list('diag', X1) FROM T";
  NLQ_ASSERT_OK(db->Execute(kSql).status());
  EXPECT_EQ(db->view_registry()->num_views(), 1u);

  // DROP must drop the view too: a recreated table with different
  // rows can never alias the old entry.
  NLQ_ASSERT_OK(db->ExecuteCommand("DROP TABLE T"));
  EXPECT_EQ(db->view_registry()->num_views(), 0u);
  CreateT(db.get());
  AppendRows(db.get(), 1000, 1200);  // different rows under the same name

  auto pdb = MakeViewDb(/*partitions=*/4, /*threads=*/2, /*views=*/false);
  CreateT(pdb.get());
  AppendRows(pdb.get(), 1000, 1200);
  auto viewed = db->Execute(kSql);
  auto rescan = pdb->Execute(kSql);
  NLQ_ASSERT_OK(viewed.status());
  NLQ_ASSERT_OK(rescan.status());
  EXPECT_EQ(ResultSignature(*viewed), ResultSignature(*rescan));
}

// ---------------------------------------------------------------------------
// 4. Degradation under memory pressure, and the view cap
// ---------------------------------------------------------------------------

TEST(ViewMaintenanceTest, TinyViewMemoryBudgetDegradesToRescan) {
  DatabaseOptions options;
  options.num_partitions = 4;
  options.num_threads = 2;
  options.enable_view_maintenance = true;
  options.view_memory_limit = 1024;  // far below one UDF heap segment
  auto db = std::make_unique<Database>(options);
  NLQ_ASSERT_OK(stats::RegisterAllStatsUdfs(&db->udfs()));
  CreateT(db.get());
  AppendRows(db.get(), 0, 400);

  auto pdb = MakeViewDb(/*partitions=*/4, /*threads=*/2, /*views=*/false);
  CreateT(pdb.get());
  AppendRows(pdb.get(), 0, 400);

  // Seeding cannot fit the budget: the statement must still succeed —
  // degraded to a plain rescan — with the poisoned entry dropped.
  const char* kSql = "SELECT nlq_list('full', X1, X2) FROM T";
  auto viewed = db->Execute(kSql);
  auto rescan = pdb->Execute(kSql);
  NLQ_ASSERT_OK(viewed.status());
  NLQ_ASSERT_OK(rescan.status());
  EXPECT_EQ(ResultSignature(*viewed), ResultSignature(*rescan));
  EXPECT_EQ(db->view_registry()->num_views(), 0u);
  EXPECT_EQ(db->view_registry()->state_bytes(), 0u);
  ASSERT_TRUE(db->last_query_stats().has_value());
  EXPECT_EQ(db->last_query_stats()->view_rebuilds, 1u);
}

TEST(ViewMaintenanceTest, ViewCapEvictsLeastRecentlyServed) {
  DatabaseOptions options;
  options.num_partitions = 2;
  options.num_threads = 2;
  options.enable_view_maintenance = true;
  options.max_maintained_views = 2;
  auto db = std::make_unique<Database>(options);
  NLQ_ASSERT_OK(stats::RegisterAllStatsUdfs(&db->udfs()));
  CreateT(db.get());
  AppendRows(db.get(), 0, 200);

  NLQ_ASSERT_OK(db->Execute("SELECT nlq_list('diag', X1) FROM T").status());
  NLQ_ASSERT_OK(db->Execute("SELECT nlq_list('diag', X2) FROM T").status());
  NLQ_ASSERT_OK(
      db->Execute("SELECT nlq_list('triang', X1, X2) FROM T").status());
  EXPECT_EQ(db->view_registry()->num_views(), 2u);

  // The survivor entries still serve fresh hits.
  NLQ_ASSERT_OK(
      db->Execute("SELECT nlq_list('triang', X1, X2) FROM T").status());
  EXPECT_EQ(db->last_query_stats()->view_hits, 1u);
}

// ---------------------------------------------------------------------------
// 5. Views off by default
// ---------------------------------------------------------------------------

TEST(ViewMaintenanceTest, BroadcastAggregatesFollowTheModelTable) {
  // A one-row model table M is broadcast into the pipeline as
  // constants. An aggregate over a broadcast value must return the new
  // answer after M changes — views key nothing on M, so only the plan
  // may carry its value — and M of two rows goes back to a CrossJoin.
  auto db = MakeViewDb(/*partitions=*/2, /*threads=*/2, /*views=*/true);
  auto plain = MakeViewDb(/*partitions=*/2, /*threads=*/2, /*views=*/false);
  const char* kScaled = "SELECT sum(X1 * M.w), count(*) FROM T, M";
  const char* kShaped = "SELECT count(*), nlq_list('diag', X1, X2) FROM T, M";
  auto set_m = [&](const std::string& rows) {
    for (Database* d : {db.get(), plain.get()}) {
      NLQ_ASSERT_OK(d->ExecuteCommand("DROP TABLE M"));
      NLQ_ASSERT_OK(d->ExecuteCommand("CREATE TABLE M (w DOUBLE)"));
      NLQ_ASSERT_OK(d->ExecuteCommand("INSERT INTO M VALUES " + rows));
    }
  };
  auto expect_same = [&](const char* sql) -> std::string {
    auto got = db->Execute(sql);
    auto want = plain->Execute(sql);
    EXPECT_TRUE(got.ok() && want.ok()) << sql;
    if (!got.ok() || !want.ok()) return "";
    EXPECT_EQ(ResultSignature(*got), ResultSignature(*want)) << sql;
    return ResultSignature(*got);
  };
  for (Database* d : {db.get(), plain.get()}) {
    CreateT(d);
    AppendRows(d, 0, 400);
    NLQ_ASSERT_OK(d->ExecuteCommand("CREATE TABLE M (w DOUBLE)"));
    NLQ_ASSERT_OK(d->ExecuteCommand("INSERT INTO M VALUES (2.0)"));
  }

  NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(kShaped));
  EXPECT_NE(plan.find("broadcast: M AS M (1 row)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("view=stale (seeding 400 row(s))"), std::string::npos)
      << plan;
  const std::string scaled_2 = expect_same(kScaled);
  const std::string shaped_1 = expect_same(kShaped);
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kShaped));
  EXPECT_NE(plan.find("view=fresh"), std::string::npos) << plan;

  // A new value in the one-row table: the scaled sum follows it, the
  // view-served shape does not depend on it.
  set_m("(3.0)");
  EXPECT_NE(expect_same(kScaled), scaled_2);
  EXPECT_EQ(expect_same(kShaped), shaped_1);

  // Two rows: the cross join doubles every row, on the row path.
  set_m("(3.0), (5.0)");
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kShaped));
  EXPECT_NE(plan.find("CrossJoin"), std::string::npos) << plan;
  expect_same(kScaled);
  EXPECT_NE(expect_same(kShaped), shaped_1);

  // Back to one row, after appends: the view serves the delta.
  set_m("(3.0)");
  for (Database* d : {db.get(), plain.get()}) AppendRows(d, 400, 450);
  EXPECT_NE(expect_same(kScaled), scaled_2);
  expect_same(kShaped);
}

TEST(ViewMaintenanceTest, DisabledByDefault) {
  auto db = nlq::testing::MakeTestDatabase(2);
  EXPECT_EQ(db->view_registry(), nullptr);
  NLQ_ASSERT_OK(
      db->ExecuteCommand("CREATE TABLE T (i BIGINT, X1 DOUBLE, X2 DOUBLE)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO T VALUES (1, 1.0, 2.0)"));
  NLQ_ASSERT_OK_AND_ASSIGN(
      std::string plan, db->Explain("SELECT nlq_list('diag', X1) FROM T"));
  EXPECT_EQ(plan.find("view="), std::string::npos) << plan;
  EXPECT_NE(plan.find("VectorHashAggregate"), std::string::npos) << plan;
}

}  // namespace
}  // namespace nlq::engine
