// Differential/property suite (DESIGN.md #10): the same statistical
// query must produce *bit-identical* sufficient statistics on every
// execution path the engine has — the paper's "long" SQL query
// (Section 3.4), the aggregate-UDF row path (Figure 3) and the fused
// columnar fast path — and match an external C++ oracle that
// recomputes (n, L, Q) straight from the storage layer, mirroring the
// engine's morsel grid and morsel-index merge order. Every case is
// additionally swept across worker-thread counts {1, 2, 4}; the
// thread count must never change a single output bit, because the
// morsel grid (and therefore the merge order) depends only on the
// partition layout and morsel size, never on scheduling.
//
// Tables are generated from a seeded PRNG with dyadic-rational cell
// values (exact through SQL text round-trips), mixed NULL densities,
// row counts straddling the 1024-row decode batch, 1–8 partitions and
// morsel sizes that split partitions mid-stream. NULL placement picks
// the comparison set:
//   - NULLs confined to an unused padding column: all four paths are
//     comparable (the SQL query's sum(1.0) n-term counts every
//     surviving row, which equals the UDF count when no dimension is
//     NULL);
//   - NULLs inside the dimensions: the wide SQL query's per-column /
//     per-product NULL skipping diverges from the UDFs' documented
//     skip-row policy by design, so those cases compare the three
//     skip-row paths (UDF row, UDF columnar, oracle) only.
//
// The suite runs in four modes: plain, NLQ_TEST_SPILL=1 (half-spilled
// tables behind a minimum-size buffer pool), NLQ_TEST_VIEWS=1
// (eligible aggregates served from maintained views) and both at once
// (views seeded from and served over the half-spilled tables); every
// mode must reproduce the same bits.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "engine/database.h"
#include "engine/exec/morsel.h"
#include "stats/nlq_kernel.h"
#include "stats/scoring.h"
#include "stats/sqlgen.h"
#include "stats/sufstats.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/partitioned_table.h"
#include "tests/test_util.h"

namespace nlq::engine {
namespace {

using stats::MatrixKind;
using stats::SufStats;
using storage::Datum;
using storage::Row;

// ---------------------------------------------------------------------------
// Bit-exact signatures
// ---------------------------------------------------------------------------

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

/// Bit pattern of every statistic a SufStats carries. Min/max are
/// optional because the wide SQL query does not compute them.
std::string SufSignature(const SufStats& s, bool with_minmax) {
  std::string out = "n:" + Bits(s.n()) + "\n";
  const size_t d = s.d();
  for (size_t a = 0; a < d; ++a) {
    out += StringPrintf("L%zu:", a) + Bits(s.L(a)) + "\n";
  }
  for (size_t a = 0; a < d; ++a) {
    const size_t b_end = s.kind() == MatrixKind::kFull ? d : a + 1;
    for (size_t b = 0; b < b_end; ++b) {
      if (s.kind() == MatrixKind::kDiagonal && b != a) continue;
      out += StringPrintf("Q%zu_%zu:", a, b) + Bits(s.Q(a, b)) + "\n";
    }
  }
  if (with_minmax) {
    for (size_t a = 0; a < d; ++a) {
      out += StringPrintf("m%zu:", a) + Bits(s.Min(a)) + "," + Bits(s.Max(a)) +
             "\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Case generation
// ---------------------------------------------------------------------------

struct TableConfig {
  size_t partitions;
  size_t rows;
  size_t d;
  MatrixKind kind;
  uint64_t morsel_rows;   // 0 = partition-granular morsels
  unsigned null_pct;      // per-cell NULL probability in percent
  bool nulls_in_dims;     // false: NULLs only in the padding column
  uint64_t seed;
};

// Row counts straddle the 1024-row scan batch and the 4096-row column
// chunk; morsel sizes split partitions into several streams (the
// pre-existing equivalence tests only ever ran one morsel per
// partition); partition counts include layouts that divide the rows
// unevenly.
const TableConfig kConfigs[] = {
    // Four-path cases: dimensions stay NULL-free.
    {1, 0, 2, MatrixKind::kLowerTriangular, 16384, 0, false, 101},
    {1, 1, 1, MatrixKind::kDiagonal, 16384, 0, false, 102},
    {2, 1, 3, MatrixKind::kFull, 0, 0, false, 103},
    {2, 7, 2, MatrixKind::kLowerTriangular, 64, 0, false, 104},
    {3, 100, 4, MatrixKind::kFull, 256, 0, false, 105},
    {4, 100, 1, MatrixKind::kDiagonal, 64, 25, false, 106},
    {4, 1023, 2, MatrixKind::kLowerTriangular, 16384, 0, false, 107},
    {4, 1024, 2, MatrixKind::kFull, 1024, 0, false, 108},
    {4, 1025, 3, MatrixKind::kLowerTriangular, 256, 10, false, 109},
    {5, 511, 4, MatrixKind::kDiagonal, 128, 0, false, 110},
    {7, 777, 3, MatrixKind::kFull, 0, 20, false, 111},
    {8, 1200, 4, MatrixKind::kLowerTriangular, 1024, 0, false, 112},
    {8, 64, 2, MatrixKind::kDiagonal, 64, 0, false, 113},
    {6, 300, 3, MatrixKind::kLowerTriangular, 96, 15, false, 114},
    {3, 1024, 1, MatrixKind::kFull, 0, 0, false, 115},
    {2, 1025, 4, MatrixKind::kFull, 512, 0, false, 116},
    // Three-path cases: NULLs land inside the dimensions, exercising
    // the skip-row policy (and its columnar compaction) under WHERE.
    {1, 50, 2, MatrixKind::kLowerTriangular, 16384, 30, true, 201},
    {2, 100, 3, MatrixKind::kFull, 64, 20, true, 202},
    {4, 1023, 2, MatrixKind::kDiagonal, 256, 10, true, 203},
    {4, 1024, 3, MatrixKind::kLowerTriangular, 1024, 35, true, 204},
    {5, 1025, 4, MatrixKind::kFull, 0, 15, true, 205},
    {7, 777, 1, MatrixKind::kLowerTriangular, 128, 50, true, 206},
    {8, 1200, 2, MatrixKind::kDiagonal, 16384, 5, true, 207},
    {3, 7, 4, MatrixKind::kLowerTriangular, 64, 80, true, 208},
    // Chunk-boundary cases: partitions straddle the 4096-row column
    // chunk and the morsel sizes do not divide it, so morsels start
    // mid-chunk and cross chunk boundaries.
    {1, 4097, 2, MatrixKind::kLowerTriangular, 1000, 0, false, 117},
    {2, 16600, 3, MatrixKind::kFull, 5000, 10, true, 209},
};

const char* KindName(MatrixKind kind) {
  switch (kind) {
    case MatrixKind::kDiagonal:
      return "diag";
    case MatrixKind::kLowerTriangular:
      return "triang";
    case MatrixKind::kFull:
      return "full";
  }
  return "?";
}

/// Cell values are dyadic rationals k/256 with |k| < 2^15: at most 8
/// fractional decimal digits, so "%.8f" round-trips them exactly
/// through SQL text and back into the same double.
double NextCell(Random* rng) {
  const int64_t k =
      static_cast<int64_t>(rng->NextUint64(1u << 16)) - (1 << 15);
  return static_cast<double>(k) / 256.0;
}

/// Rows per INSERT statement (the last one takes the remainder).
constexpr size_t kInsertBatchRows = 128;

/// Builds the batched INSERT statements for `cfg` — regenerated
/// identically for every thread-count variant so all databases hold
/// the same rows in the same partition layout.
std::vector<std::string> BuildInserts(const TableConfig& cfg) {
  Random rng(cfg.seed);
  std::vector<std::string> statements;
  std::string insert;
  for (size_t r = 0; r < cfg.rows; ++r) {
    if (insert.empty()) insert = "INSERT INTO T VALUES ";
    insert += StringPrintf("(%zu", r);
    for (size_t c = 0; c < cfg.d + 1; ++c) {  // d dimensions + padding
      const bool dim = c < cfg.d;
      const double v = NextCell(&rng);  // always drawn: keeps streams aligned
      const bool null_here = cfg.null_pct > 0 &&
                             (dim ? cfg.nulls_in_dims : !cfg.nulls_in_dims) &&
                             rng.NextUint64(100) < cfg.null_pct;
      if (null_here) {
        insert += ", NULL";
      } else {
        insert += StringPrintf(", %.8f", v);
      }
    }
    insert += ")";
    if ((r + 1) % kInsertBatchRows == 0 || r + 1 == cfg.rows) {
      statements.push_back(insert);
      insert.clear();
    } else {
      insert += ", ";
    }
  }
  return statements;
}

/// NLQ_TEST_SPILL=1 (the CI spill-smoke job) runs the entire suite
/// against tables spilled halfway through their load, behind a
/// minimum-size buffer pool: the first ceil(half) of the INSERT
/// batches lands in compressed spilled chunks, the rest in the
/// resident tail behind them, so every query streams chunks through
/// the pool's eviction and, on a table of more than one batch, then
/// reads resident ones — often within one morsel.
/// The suite's cross-path bit-equality checks double as the
/// mixed-residency differential: the oracle reads the same table
/// through BatchScanner, so a single flipped bit anywhere in the
/// codec/pool stack or the spilled/resident seam fails the run.
bool SpillSmoke() {
  const char* v = std::getenv("NLQ_TEST_SPILL");
  return v != nullptr && v[0] == '1';
}

/// NLQ_TEST_VIEWS=1 (the CI views-smoke job) re-runs the suite with
/// maintained-view registration enabled: every eligible aggregate is
/// executed twice — the first statement seeds the view's per-morsel
/// partials, the second serves the registered entry — and both must be
/// bit-identical to the views-off columnar result, which the row path
/// and the external oracle already pin. Together with NLQ_TEST_SPILL
/// the views seed from, and are served over, the half-spilled tables.
bool ViewsSmoke() {
  const char* v = std::getenv("NLQ_TEST_VIEWS");
  return v != nullptr && v[0] == '1';
}

void CreateAndFill(Database* db, const TableConfig& cfg,
                   const std::vector<std::string>& inserts) {
  std::string create = "CREATE TABLE T (i BIGINT";
  for (size_t a = 0; a < cfg.d; ++a) {
    create += StringPrintf(", X%zu DOUBLE", a + 1);
  }
  create += ", PAD DOUBLE)";
  NLQ_ASSERT_OK(db->ExecuteCommand(create));
  if (!SpillSmoke()) {
    for (const std::string& insert : inserts) {
      NLQ_ASSERT_OK(db->ExecuteCommand(insert));
    }
    return;
  }
  // The first ceil(half) of the batches are spilled, the rest append to
  // the resident tail; a one-batch table spills whole, and a table with
  // no batches still spills (empty segments).
  const size_t spilled_batches = (inserts.size() + 1) / 2;
  for (size_t b = 0; b < spilled_batches; ++b) {
    NLQ_ASSERT_OK(db->ExecuteCommand(inserts[b]));
  }
  NLQ_ASSERT_OK(db->SpillTable("T"));
  for (size_t b = spilled_batches; b < inserts.size(); ++b) {
    NLQ_ASSERT_OK(db->ExecuteCommand(inserts[b]));
  }
  auto table = db->catalog().GetTable("T");
  NLQ_ASSERT_OK(table.status());
  uint64_t spilled_rows = 0;
  for (size_t p = 0; p < (*table)->num_partitions(); ++p) {
    spilled_rows += (*table)->partition(p).spill()->num_rows();
  }
  EXPECT_EQ(spilled_rows,
            std::min<uint64_t>(cfg.rows, spilled_batches * kInsertBatchRows));
}

std::unique_ptr<Database> MakeDiffDatabase(const TableConfig& cfg,
                                           size_t num_threads) {
  DatabaseOptions options;
  options.num_partitions = cfg.partitions;
  options.num_threads = num_threads;
  options.morsel_rows = cfg.morsel_rows;
  if (SpillSmoke()) {
    // Smallest legal pool: every config's table is then larger than
    // the frame set, so scans must evict and re-read continuously.
    options.buffer_pool_bytes =
        storage::kPageSize * storage::BufferPool::kMinFrames;
  }
  options.enable_view_maintenance = ViewsSmoke();
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(stats::RegisterAllStatsUdfs(&db->udfs()).ok());
  return db;
}

/// One WHERE clause plus the oracle's row-level rendering of it. A
/// NULL operand makes the SQL comparison UNKNOWN, which drops the row
/// on every engine path; the predicates mirror that with an explicit
/// is_null() check.
struct WhereVariant {
  std::string suffix;  // "" or " WHERE ..."
  std::function<bool(const Row&)> pred;
};

std::vector<WhereVariant> BuildWheres(const TableConfig& cfg) {
  std::vector<WhereVariant> wheres;
  wheres.push_back({"", [](const Row&) { return true; }});
  wheres.push_back({" WHERE X1 > -8.0", [](const Row& row) {
                      return !row[1].is_null() && row[1].AsDouble() > -8.0;
                    }});
  const int64_t cutoff =
      cfg.rows == 0 ? 1 : static_cast<int64_t>(cfg.rows * 3 / 4);
  wheres.push_back(
      {StringPrintf(" WHERE i < %lld", static_cast<long long>(cutoff)),
       [cutoff](const Row& row) { return row[0].int_value() < cutoff; }});
  // Rows land in partitions in id order, so this pushed-down
  // comparison empties every partition's leading morsels whole: the
  // scan skips them, the first state to merge comes from a later
  // morsel, and a maintained view folds empty partials.
  const int64_t half = static_cast<int64_t>(cfg.rows / 2);
  wheres.push_back(
      {StringPrintf(" WHERE i >= %lld", static_cast<long long>(half)),
       [half](const Row& row) { return row[0].int_value() >= half; }});
  return wheres;
}

/// Per-statement override planning the pure interpreted row path: no
/// fused fast path, no vector pipeline, no compiled programs. This is
/// the suite's oracle-side execution mode.
QueryOptions Interpreted() {
  QueryOptions options;
  options.force_interpreted = true;
  return options;
}

// ---------------------------------------------------------------------------
// External oracle: recomputes SufStats straight from the storage
// layer, outside the exec layer entirely, mirroring the engine's
// accumulation structure — one partial per morsel of the same grid
// BuildMorselGrid hands the scan nodes, merged in morsel-index order
// (how both aggregate nodes fold their per-stream partials).
// ---------------------------------------------------------------------------

void ComputeOracle(const storage::PartitionedTable& table,
                   const TableConfig& cfg, const WhereVariant& where,
                   SufStats* out, uint64_t* surviving) {
  const std::vector<exec::Morsel> grid =
      exec::BuildMorselGrid(table, cfg.morsel_rows);
  SufStats total(cfg.d, cfg.kind);
  bool first = true;
  uint64_t n_survive = 0;
  std::vector<double> x(cfg.d);
  for (const exec::Morsel& m : grid) {
    SufStats part(cfg.d, cfg.kind);
    storage::BatchScanner scanner =
        table.ScanPartitionBatches(m.partition, m.begin, m.end);
    storage::RowBatch batch;
    while (scanner.Next(&batch)) {
      for (size_t r = 0; r < batch.size(); ++r) {
        const Row& row = batch.row(r);
        if (!where.pred(row)) continue;
        bool null_dim = false;
        for (size_t a = 0; a < cfg.d; ++a) null_dim |= row[1 + a].is_null();
        if (null_dim) continue;  // the UDFs' skip-row policy
        for (size_t a = 0; a < cfg.d; ++a) x[a] = row[1 + a].double_value();
        part.Update(x.data());
        ++n_survive;
      }
    }
    NLQ_ASSERT_OK(scanner.status());
    if (first) {
      total = part;
      first = false;
    } else {
      NLQ_ASSERT_OK(total.Merge(part));
    }
  }
  *out = total;
  *surviving = n_survive;
}

// ---------------------------------------------------------------------------
// One differential case
// ---------------------------------------------------------------------------

struct CaseSigs {
  std::string row;  // UDF, forced interpreted row path
  std::string col;  // UDF, columnar fast path
  std::string sql;  // wide SQL query (empty when not comparable)
};

void RunCase(Database* db, const TableConfig& cfg, const WhereVariant& where,
             const SufStats& oracle, uint64_t surviving, CaseSigs* sigs) {
  const std::vector<std::string> cols = stats::DimensionColumns(cfg.d);
  const std::string udf_sql =
      stats::NlqUdfQuery("T", cols, cfg.kind, stats::ParamStyle::kList) +
      where.suffix;

  auto columnar = db->Execute(udf_sql);
  auto rowpath = db->Execute(udf_sql, Interpreted());
  NLQ_ASSERT_OK(columnar.status());
  NLQ_ASSERT_OK(rowpath.status());

  // The two executions must really take different paths, or this test
  // degenerates into comparing a path with itself.
  auto col_plan = db->Explain(udf_sql);
  auto row_plan = db->Explain(udf_sql, Interpreted());
  NLQ_ASSERT_OK(col_plan.status());
  NLQ_ASSERT_OK(row_plan.status());
  if (ViewsSmoke()) {
    // The execution above seeded the view; the plan now serves it.
    EXPECT_NE(col_plan->find("VectorHashAggregate"), std::string::npos)
        << udf_sql << "\n"
        << *col_plan;
    EXPECT_NE(col_plan->find("view=fresh"), std::string::npos)
        << udf_sql << "\n"
        << *col_plan;
  } else {
    EXPECT_NE(col_plan->find("VectorHashAggregate"), std::string::npos)
        << udf_sql << "\n"
        << *col_plan;
  }
  EXPECT_EQ(row_plan->find("Columnar"), std::string::npos)
      << udf_sql << "\n"
      << *row_plan;

  sigs->col = ResultSignature(*columnar);
  sigs->row = ResultSignature(*rowpath);
  EXPECT_EQ(sigs->col, sigs->row) << udf_sql;

  if (ViewsSmoke()) {
    // Fresh-hit pass: the registered view (zero delta) must reproduce
    // the seeding statement's bytes exactly.
    auto again = db->Execute(udf_sql);
    NLQ_ASSERT_OK(again.status());
    EXPECT_EQ(ResultSignature(*again), sigs->col) << udf_sql;
  }

  // Decoded UDF result vs the external oracle, bit for bit. Skipped
  // when no row survived: a never-accumulated UDF state finalizes as
  // the documented d=0 empty statistics, which carries no shape to
  // compare (the cross-path and cross-thread equalities above still
  // pin its exact bytes).
  if (surviving > 0) {
    NLQ_ASSERT_OK_AND_ASSIGN(
        SufStats decoded,
        SufStats::FromPackedString(rowpath->At(0, 0).string_value()));
    EXPECT_EQ(SufSignature(decoded, /*with_minmax=*/true),
              SufSignature(oracle, /*with_minmax=*/true))
        << udf_sql;
  }

  // The paper's wide SQL query, decoded back into SufStats. Only when
  // the dimensions are NULL-free (otherwise its per-column NULL
  // skipping legitimately diverges from skip-row) and at least one
  // row survived (SUM over nothing is NULL, which has no bit pattern
  // to compare).
  if (!cfg.nulls_in_dims && surviving > 0) {
    const std::string wide_sql =
        stats::NlqSqlQuery("T", cols, cfg.kind) + where.suffix;
    auto wide = db->Execute(wide_sql);
    NLQ_ASSERT_OK(wide.status());
    sigs->sql = ResultSignature(*wide);
    NLQ_ASSERT_OK_AND_ASSIGN(
        SufStats from_sql,
        stats::SufStatsFromWideRow(*wide, 0, cfg.d, cfg.kind));
    EXPECT_EQ(SufSignature(from_sql, /*with_minmax=*/false),
              SufSignature(oracle, /*with_minmax=*/false))
        << wide_sql;
  }
}

TEST(DifferentialQueryTest, AllPathsBitIdenticalAcrossThreads) {
  const size_t kThreads[] = {1, 2, 4};
  size_t cases = 0;
  for (const TableConfig& cfg : kConfigs) {
    const std::vector<std::string> inserts = BuildInserts(cfg);
    const std::vector<WhereVariant> wheres = BuildWheres(cfg);
    std::vector<CaseSigs> baseline(wheres.size());
    for (size_t t = 0; t < 3; ++t) {
      auto db = MakeDiffDatabase(cfg, kThreads[t]);
      CreateAndFill(db.get(), cfg, inserts);
      auto table = db->catalog().GetTable("T");
      NLQ_ASSERT_OK(table.status());
      for (size_t w = 0; w < wheres.size(); ++w) {
        SCOPED_TRACE(StringPrintf(
            "seed=%llu threads=%zu kind=%s where=[%s]",
            static_cast<unsigned long long>(cfg.seed), kThreads[t],
            KindName(cfg.kind), wheres[w].suffix.c_str()));
        SufStats oracle;
        uint64_t surviving = 0;
        ComputeOracle(**table, cfg, wheres[w], &oracle, &surviving);
        CaseSigs sigs;
        RunCase(db.get(), cfg, wheres[w], oracle, surviving, &sigs);
        if (t == 0) {
          baseline[w] = sigs;
        } else {
          // Thread count must not change one bit of any path.
          EXPECT_EQ(sigs.row, baseline[w].row);
          EXPECT_EQ(sigs.col, baseline[w].col);
          EXPECT_EQ(sigs.sql, baseline[w].sql);
        }
        ++cases;
      }
    }
  }
  // The issue's floor: this suite is only meaningful at volume.
  EXPECT_GE(cases, 200u);
}

// The paper's second parameter-passing style (Figure 3's packed
// string) runs through pack_point + nlq_string instead of nlq_list;
// both must produce the identical packed statistics.
TEST(DifferentialQueryTest, StringStyleMatchesListStyle) {
  const size_t kPick[] = {4, 8, 18, 21};  // indexes into kConfigs
  for (const size_t idx : kPick) {
    const TableConfig& cfg = kConfigs[idx];
    SCOPED_TRACE(StringPrintf("seed=%llu",
                              static_cast<unsigned long long>(cfg.seed)));
    auto db = MakeDiffDatabase(cfg, /*num_threads=*/2);
    CreateAndFill(db.get(), cfg, BuildInserts(cfg));
    const std::vector<std::string> cols = stats::DimensionColumns(cfg.d);
    const std::string list_sql =
        stats::NlqUdfQuery("T", cols, cfg.kind, stats::ParamStyle::kList);
    const std::string string_sql =
        stats::NlqUdfQuery("T", cols, cfg.kind, stats::ParamStyle::kString);
    auto list_result = db->Execute(list_sql, Interpreted());
    auto string_result = db->Execute(string_sql, Interpreted());
    NLQ_ASSERT_OK(list_result.status());
    NLQ_ASSERT_OK(string_result.status());
    EXPECT_EQ(ResultSignature(*list_result), ResultSignature(*string_result));
  }
}

// Builtin SQL aggregates against the same oracle: COUNT is the
// surviving-row count, SUM/MIN/MAX over X1 are the oracle's L(0),
// Min(0), Max(0) — bit for bit, on both paths.
TEST(DifferentialQueryTest, BuiltinAggregatesMatchOracle) {
  for (const TableConfig& cfg : kConfigs) {
    if (cfg.nulls_in_dims || cfg.rows == 0) continue;
    SCOPED_TRACE(StringPrintf("seed=%llu",
                              static_cast<unsigned long long>(cfg.seed)));
    auto db = MakeDiffDatabase(cfg, /*num_threads=*/4);
    CreateAndFill(db.get(), cfg, BuildInserts(cfg));
    auto table = db->catalog().GetTable("T");
    NLQ_ASSERT_OK(table.status());
    const std::vector<WhereVariant> wheres = BuildWheres(cfg);
    for (const WhereVariant& where : wheres) {
      SufStats oracle;
      uint64_t surviving = 0;
      ComputeOracle(**table, cfg, where, &oracle, &surviving);
      if (surviving == 0) continue;
      const std::string sql =
          "SELECT count(*), sum(X1), min(X1), max(X1) FROM T" + where.suffix;
      auto columnar = db->Execute(sql);
      auto rowpath = db->Execute(sql, Interpreted());
      NLQ_ASSERT_OK(columnar.status());
      NLQ_ASSERT_OK(rowpath.status());
      EXPECT_EQ(ResultSignature(*columnar), ResultSignature(*rowpath)) << sql;
      EXPECT_EQ(columnar->At(0, 0).int_value(),
                static_cast<int64_t>(surviving));
      EXPECT_EQ(Bits(columnar->At(0, 1).double_value()), Bits(oracle.L(0)));
      EXPECT_EQ(Bits(columnar->At(0, 2).double_value()), Bits(oracle.Min(0)));
      EXPECT_EQ(Bits(columnar->At(0, 3).double_value()), Bits(oracle.Max(0)));

      // Statements that reference no column outside WHERE: the scan
      // projects nothing but the filter's columns (without WHERE,
      // nothing at all) and still counts every surviving row.
      for (const std::string& bare :
           {"SELECT count(*) FROM T" + where.suffix,
            "SELECT 2.5 * 4, 7 FROM T" + where.suffix}) {
        NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(bare));
        EXPECT_NE(plan.find("ColumnarScan"), std::string::npos) << plan;
        auto compiled = db->Execute(bare);
        auto interpreted = db->Execute(bare, Interpreted());
        NLQ_ASSERT_OK(compiled.status());
        NLQ_ASSERT_OK(interpreted.status());
        EXPECT_EQ(ResultSignature(*compiled), ResultSignature(*interpreted))
            << bare;
      }
      NLQ_ASSERT_OK_AND_ASSIGN(
          ResultSet counted, db->Execute("SELECT count(*) FROM T" + where.suffix));
      EXPECT_EQ(counted.At(0, 0).int_value(), static_cast<int64_t>(surviving));
    }
  }
}

// ---------------------------------------------------------------------------
// Segment models (GROUP BY) and scoring statements through the
// compiled pipeline: the vectorized plans (VectorHashAggregate, and
// VectorProject with one-row model tables broadcast) must match the
// forced interpreted row path and the external oracle bit for bit,
// across worker-thread counts {1, 2, 4}.
// ---------------------------------------------------------------------------

/// Per-group oracle mirroring the engine's structure exactly: one
/// partial map per morsel of the same grid, folded into the total in
/// morsel-index order (how both aggregate nodes merge their streams).
void ComputeGroupedOracle(const storage::PartitionedTable& table,
                          const TableConfig& cfg, int64_t modulus,
                          std::map<int64_t, SufStats>* out) {
  const std::vector<exec::Morsel> grid =
      exec::BuildMorselGrid(table, cfg.morsel_rows);
  std::map<int64_t, SufStats> total;
  std::vector<double> x(cfg.d);
  for (const exec::Morsel& m : grid) {
    std::map<int64_t, SufStats> part;
    storage::BatchScanner scanner =
        table.ScanPartitionBatches(m.partition, m.begin, m.end);
    storage::RowBatch batch;
    while (scanner.Next(&batch)) {
      for (size_t r = 0; r < batch.size(); ++r) {
        const Row& row = batch.row(r);
        bool null_dim = false;
        for (size_t a = 0; a < cfg.d; ++a) null_dim |= row[1 + a].is_null();
        if (null_dim) continue;
        for (size_t a = 0; a < cfg.d; ++a) x[a] = row[1 + a].double_value();
        const int64_t g = row[0].int_value() % modulus;
        auto it = part.find(g);
        if (it == part.end()) {
          it = part.emplace(g, SufStats(cfg.d, cfg.kind)).first;
        }
        it->second.Update(x.data());
      }
    }
    NLQ_ASSERT_OK(scanner.status());
    for (auto& [g, stats] : part) {
      auto it = total.find(g);
      if (it == total.end()) {
        total.emplace(g, stats);
      } else {
        NLQ_ASSERT_OK(it->second.Merge(stats));
      }
    }
  }
  *out = std::move(total);
}

/// One grouped differential case: a table layout and the modulus of
/// its `GROUP BY i % m` key.
struct GroupedCase {
  TableConfig cfg;
  int64_t modulus;
};

// NULL-free layouts straddling batch and morsel boundaries; NULLs
// inside the dimensions (each group's rows go through the skip-row
// compaction, and some group's rows all compact away in a batch);
// i % 97, which splits a 1024-row scan batch into ~10-row group spans
// and leaves groups absent from short morsels' batches; the 'diag'
// kind the K-means step uses; and wider d, so every register-tile
// shape of the AVX2 kernel runs under the grouped path.
const GroupedCase kGroupedCases[] = {
    {kConfigs[4], 3},
    {kConfigs[7], 3},
    {kConfigs[11], 3},
    {kConfigs[15], 3},
    {kConfigs[17], 3},
    {kConfigs[19], 3},
    {kConfigs[23], 3},
    {kConfigs[3], 97},
    {kConfigs[11], 97},
    {kConfigs[25], 97},
    {kConfigs[9], 3},
    {kConfigs[18], 97},
    {{4, 3000, 9, MatrixKind::kLowerTriangular, 1024, 10, true, 301}, 97},
    {{3, 2500, 13, MatrixKind::kFull, 512, 0, false, 302}, 7},
    {{2, 2200, 11, MatrixKind::kDiagonal, 4096, 5, true, 303}, 16},
};

TEST(DifferentialQueryTest, GroupedBuildsMatchOracleAcrossThreads) {
  const size_t kThreads[] = {1, 2, 4};
  const stats::NlqKernelMode kModes[] = {stats::NlqKernelMode::kScalar,
                                         stats::NlqKernelMode::kSimd};
  for (const GroupedCase& gc : kGroupedCases) {
    const TableConfig& cfg = gc.cfg;
    const std::string key = StringPrintf("i %% %lld",
                                         static_cast<long long>(gc.modulus));
    const std::vector<std::string> inserts = BuildInserts(cfg);
    const std::vector<std::string> cols = stats::DimensionColumns(cfg.d);
    const std::string udf_sql = stats::NlqUdfQueryGrouped(
        "T", cols, cfg.kind, stats::ParamStyle::kList, key);
    const std::string wide_sql =
        stats::NlqSqlQueryGrouped("T", cols, cfg.kind, key);
    std::string baseline;
    for (const size_t threads : kThreads) {
      SCOPED_TRACE(StringPrintf(
          "seed=%llu threads=%zu kind=%s group by %s",
          static_cast<unsigned long long>(cfg.seed), threads,
          KindName(cfg.kind), key.c_str()));
      auto db = MakeDiffDatabase(cfg, threads);
      CreateAndFill(db.get(), cfg, inserts);

      // The default plan is the compiled pipeline; forced interpreted
      // is the row-path oracle. Identical output, including group
      // order.
      auto compiled = db->Execute(udf_sql);
      auto interpreted = db->Execute(udf_sql, Interpreted());
      NLQ_ASSERT_OK(compiled.status());
      NLQ_ASSERT_OK(interpreted.status());
      EXPECT_EQ(ResultSignature(*compiled), ResultSignature(*interpreted))
          << udf_sql;
      auto wide_compiled = db->Execute(wide_sql);
      auto wide_interpreted = db->Execute(wide_sql, Interpreted());
      NLQ_ASSERT_OK(wide_compiled.status());
      NLQ_ASSERT_OK(wide_interpreted.status());
      EXPECT_EQ(ResultSignature(*wide_compiled),
                ResultSignature(*wide_interpreted))
          << wide_sql;

      // Each kernel variant reproduces the default plan's bits.
      for (const stats::NlqKernelMode mode : kModes) {
        stats::SetNlqKernelMode(mode);
        auto pinned = db->Execute(udf_sql);
        stats::SetNlqKernelMode(stats::NlqKernelMode::kAuto);
        NLQ_ASSERT_OK(pinned.status());
        EXPECT_EQ(ResultSignature(*pinned), ResultSignature(*compiled))
            << udf_sql << " under " << stats::NlqKernelVariant();
      }

      // Both statements really vectorize (and the oracle run doesn't).
      NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(udf_sql));
      EXPECT_NE(plan.find("VectorHashAggregate"), std::string::npos) << plan;
      NLQ_ASSERT_OK_AND_ASSIGN(std::string row_plan,
                               db->Explain(udf_sql, Interpreted()));
      EXPECT_EQ(row_plan.find("Vector"), std::string::npos) << row_plan;

      // Against the external per-group oracle, bit for bit. A group
      // whose every row holds a NULL dimension has no oracle entry: the
      // UDF fixed its shape but counted no row.
      auto table = db->catalog().GetTable("T");
      NLQ_ASSERT_OK(table.status());
      std::map<int64_t, SufStats> oracle;
      ComputeGroupedOracle(**table, cfg, gc.modulus, &oracle);
      size_t matched = 0;
      for (size_t r = 0; r < compiled->num_rows(); ++r) {
        const int64_t g = compiled->At(r, 0).int_value();
        NLQ_ASSERT_OK_AND_ASSIGN(
            SufStats decoded,
            SufStats::FromPackedString(compiled->At(r, 1).string_value()));
        if (decoded.n() == 0) {
          EXPECT_EQ(oracle.count(g), 0u) << "group " << g;
          continue;
        }
        ASSERT_TRUE(oracle.count(g)) << "unexpected group " << g;
        EXPECT_EQ(SufSignature(decoded, /*with_minmax=*/true),
                  SufSignature(oracle.at(g), /*with_minmax=*/true))
            << "group " << g;
        ++matched;
      }
      EXPECT_EQ(matched, oracle.size());
      // The wide SQL query skips NULLs per column and per product, not
      // per row, so it meets the oracle only on NULL-free dimensions.
      for (size_t r = 0; !cfg.nulls_in_dims && r < wide_compiled->num_rows();
           ++r) {
        const int64_t g = wide_compiled->At(r, 0).int_value();
        NLQ_ASSERT_OK_AND_ASSIGN(
            SufStats from_sql,
            stats::SufStatsFromWideRow(*wide_compiled, r, cfg.d, cfg.kind,
                                       /*first_col=*/1));
        EXPECT_EQ(SufSignature(from_sql, /*with_minmax=*/false),
                  SufSignature(oracle.at(g), /*with_minmax=*/false))
            << "group " << g;
      }

      // Thread count must not change one bit of either path.
      const std::string sig =
          ResultSignature(*compiled) + ResultSignature(*wide_compiled);
      if (baseline.empty()) {
        baseline = sig;
      } else {
        EXPECT_EQ(sig, baseline);
      }
    }
  }
}

/// Model tables of the paper's scoring statements, as exact dyadic
/// values: BETA(b0, b1..bd) and M(X1..Xd) hold one row; C(j, X1..Xd)
/// holds `k` rows — PCA's Lambda and K-means' centroids, one row per
/// `Cj.j = j` alias after pushdown; BETA2 is BETA with a second row.
std::vector<std::string> ModelTableCommands(size_t d, size_t k) {
  std::string beta_cols = "b0 DOUBLE", beta_row = "0.5";
  std::string x_cols, m_row;
  for (size_t a = 1; a <= d; ++a) {
    beta_cols += StringPrintf(", b%zu DOUBLE", a);
    beta_row += StringPrintf(", %.8f", 0.25 * static_cast<double>(a));
    x_cols += StringPrintf(", X%zu DOUBLE", a);
    m_row += StringPrintf("%s%.8f", a > 1 ? ", " : "",
                          0.125 * static_cast<double>(a) - 0.5);
  }
  std::string c_rows;
  for (size_t j = 1; j <= k; ++j) {
    c_rows += StringPrintf("%s(%zu", j > 1 ? ", " : "", j);
    for (size_t a = 1; a <= d; ++a) {
      c_rows += StringPrintf(", %.8f", 8.0 * static_cast<double>(j) -
                                           12.0 + 0.75 * static_cast<double>(a));
    }
    c_rows += ")";
  }
  return {"CREATE TABLE BETA (" + beta_cols + ")",
          "INSERT INTO BETA VALUES (" + beta_row + ")",
          "CREATE TABLE BETA2 (" + beta_cols + ")",
          "INSERT INTO BETA2 VALUES (" + beta_row + "), (" + beta_row + ")",
          "CREATE TABLE M (" + x_cols.substr(2) + ")",
          "INSERT INTO M VALUES (" + m_row + ")",
          "CREATE TABLE C (j BIGINT" + x_cols + ")",
          "INSERT INTO C VALUES " + c_rows};
}

/// The byte image of every partition of `table` as Table::SaveToFile
/// writes it: values, NULL slots and bitmaps, the rows each partition
/// holds, in order, and where its chunks are cut.
std::string TableImage(const storage::PartitionedTable& table) {
  const std::string path = ::testing::TempDir() + "/nlq_diff_image_" +
                           std::to_string(::getpid());
  std::string image;
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    NLQ_EXPECT_OK(table.partition(p).SaveToFile(path));
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    image += StringPrintf("[partition %zu: %zu rows, %zu bytes]", p,
                          static_cast<size_t>(table.partition(p).num_rows()),
                          bytes.size());
    image += bytes;
  }
  ::unlink(path.c_str());
  return image;
}

std::string TableImage(Database* db, const std::string& table) {
  auto t = db->catalog().GetTable(table);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.ok() ? TableImage(**t) : "";
}

/// The writer's oracle: `rows` coerced to `schema` value by value
/// (NULL keeps its slot, numbers cast across DOUBLE and BIGINT) and
/// appended one at a time through PartitionedTable::AppendRow, which
/// routes by Datum::KeyHash, into a fresh table of `partitions`
/// partitions — how CREATE TABLE … AS and INSERT … SELECT used to fill
/// a table from a gathered result.
std::string RowAppendImage(const storage::Schema& schema, size_t partitions,
                           const std::vector<Row>& rows) {
  storage::PartitionedTable table(schema, partitions);
  for (const Row& row : rows) {
    Row coerced(row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      const storage::DataType want = schema.column(c).type;
      if (row[c].is_null()) {
        coerced[c] = Datum::Null(want);
      } else if (row[c].type() == want) {
        coerced[c] = row[c];
      } else if (want == storage::DataType::kDouble) {
        coerced[c] = Datum::Double(row[c].AsDouble());
      } else {
        coerced[c] = Datum::Int64(static_cast<int64_t>(row[c].AsDouble()));
      }
    }
    NLQ_EXPECT_OK(table.AppendRow(coerced));
  }
  return TableImage(table);
}

/// Runs `compiled_sql` and `interpreted_sql` — the same write into two
/// tables — compiled and under Interpreted() respectively; they must
/// agree on the outcome and, when both succeed, on the byte images of
/// `compiled_table` and `interpreted_table`, which must also equal
/// `oracle` when one is given. Returns a digest of the image for the
/// cross-thread comparison.
std::string CompareWrites(Database* db, const std::string& compiled_sql,
                          const std::string& interpreted_sql,
                          const std::string& compiled_table,
                          const std::string& interpreted_table,
                          const std::string& oracle = "") {
  SCOPED_TRACE(compiled_sql);
  const Status compiled = db->Execute(compiled_sql).status();
  const Status interpreted =
      db->Execute(interpreted_sql, Interpreted()).status();
  EXPECT_EQ(compiled.ToString(), interpreted.ToString());
  if (!compiled.ok()) return compiled.ToString() + "\n";
  const std::string image = TableImage(db, compiled_table);
  EXPECT_TRUE(image == TableImage(db, interpreted_table))
      << compiled_table << " and " << interpreted_table << " differ";
  EXPECT_TRUE(oracle.empty() || image == oracle)
      << compiled_table << " differs from row-at-a-time appends";
  return StringPrintf("%zu bytes, hash %zx\n", image.size(),
                      std::hash<std::string>()(image));
}

void DropIfExists(Database* db, const std::string& table) {
  if (db->catalog().HasTable(table)) {
    NLQ_EXPECT_OK(db->ExecuteCommand("DROP TABLE " + table));
  }
}

/// `sql` with the pushed predicate `C1.j = 1` turned into one that
/// empties C1.
std::string EmptyFirstCentroid(std::string sql) {
  const size_t at = sql.find("C1.j = 1");
  EXPECT_NE(at, std::string::npos) << sql;
  return sql.replace(at, 8, "C1.j = 99");
}

// The paper's scoring statements and the K-means step cross-join X
// with model tables that hold one row after pushdown. The compiled
// plan broadcasts those rows as constants into the columnar pipeline
// (scalar UDFs through the span call opcode); the interpreted oracle
// keeps the CrossJoin. Both must agree bit for bit, across thread
// counts, with and without NULLs in the dimensions. Model tables of 0
// or 2 rows keep the CrossJoin on both.
TEST(DifferentialQueryTest, ScoringProjectionsMatchAcrossThreads) {
  const size_t kThreads[] = {1, 2, 4};
  const size_t kPick[] = {4, 8, 15, 19};  // 19: NULLs inside the dimensions
  constexpr size_t kClusters = 3;
  for (const size_t idx : kPick) {
    const TableConfig& cfg = kConfigs[idx];
    const size_t d = cfg.d;
    const std::vector<std::string> inserts = BuildInserts(cfg);
    const std::vector<std::string> broadcast_sqls = {
        stats::LinRegScoreUdfQuery("T", "BETA", d),
        stats::LinRegScoreSqlQuery("T", "BETA", d),
        stats::PcaScoreUdfQuery("T", "M", "C", d, kClusters),
        stats::PcaScoreSqlQuery("T", "M", "C", d, kClusters),
        stats::KMeansScoreUdfQuery("T", "C", d, kClusters),
        stats::KMeansDistancesSqlQuery("T", "C", d, kClusters),
        stats::KMeansIterationQuery("T", "C", d, kClusters)};
    const std::string empty_score =
        EmptyFirstCentroid(stats::KMeansScoreUdfQuery("T", "C", d, kClusters));
    const std::string empty_iteration =
        EmptyFirstCentroid(stats::KMeansIterationQuery("T", "C", d, kClusters));
    const std::string empty_global =
        "SELECT count(*), sum(T.X1) FROM T, C C1 WHERE C1.j = 99";
    const std::vector<std::string> join_sqls = {
        stats::LinRegScoreUdfQuery("T", "BETA2", d), empty_score,
        empty_iteration, empty_global};
    // The pure-projection flavor (no join) runs the vector pipeline.
    const std::string proj_sql = "SELECT i, X1 * X1 + 0.5 FROM T";
    std::string baseline;
    for (const size_t threads : kThreads) {
      SCOPED_TRACE(StringPrintf(
          "seed=%llu threads=%zu",
          static_cast<unsigned long long>(cfg.seed), threads));
      auto db = MakeDiffDatabase(cfg, threads);
      CreateAndFill(db.get(), cfg, inserts);
      for (const std::string& command : ModelTableCommands(d, kClusters)) {
        NLQ_ASSERT_OK(db->ExecuteCommand(command));
      }

      for (const std::string& sql : broadcast_sqls) {
        NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(sql));
        EXPECT_TRUE(plan.find("VectorProject") != std::string::npos ||
                    plan.find("VectorHashAggregate") != std::string::npos)
            << plan;
        EXPECT_EQ(plan.find("CrossJoin"), std::string::npos) << plan;
        NLQ_ASSERT_OK_AND_ASSIGN(std::string row_plan,
                                 db->Explain(sql, Interpreted()));
        EXPECT_NE(row_plan.find("CrossJoin"), std::string::npos) << row_plan;
      }
      for (const std::string& sql : join_sqls) {
        NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(sql));
        EXPECT_NE(plan.find("CrossJoin"), std::string::npos) << plan;
      }
      NLQ_ASSERT_OK_AND_ASSIGN(std::string proj_plan, db->Explain(proj_sql));
      EXPECT_NE(proj_plan.find("VectorProject"), std::string::npos)
          << proj_plan;

      std::string sig;
      std::vector<std::string> all = broadcast_sqls;
      all.insert(all.end(), join_sqls.begin(), join_sqls.end());
      all.push_back(proj_sql);
      for (const std::string& sql : all) {
        SCOPED_TRACE(sql);
        auto compiled = db->Execute(sql);
        auto interpreted = db->Execute(sql, Interpreted());
        NLQ_ASSERT_OK(compiled.status());
        NLQ_ASSERT_OK(interpreted.status());
        EXPECT_EQ(ResultSignature(*compiled), ResultSignature(*interpreted))
            << sql;
        sig += ResultSignature(*compiled);
      }
      // An empty model table empties a projection and a grouped
      // aggregate, and leaves one empty-input global group.
      NLQ_ASSERT_OK_AND_ASSIGN(ResultSet none, db->Execute(empty_score));
      EXPECT_EQ(none.num_rows(), 0u);
      NLQ_ASSERT_OK_AND_ASSIGN(ResultSet no_groups,
                               db->Execute(empty_iteration));
      EXPECT_EQ(no_groups.num_rows(), 0u);
      NLQ_ASSERT_OK_AND_ASSIGN(ResultSet one_group, db->Execute(empty_global));
      ASSERT_EQ(one_group.num_rows(), 1u);
      EXPECT_EQ(one_group.At(0, 0).int_value(), 0);
      EXPECT_TRUE(one_group.At(0, 1).is_null());
      // The table writer: every statement above as CREATE TABLE … AS,
      // plus keys holding NULL, -0.0 / +0.0, NaN (inf - inf) and BIGINT
      // values, which route rows through the lane and row paths alike;
      // both must match the row-at-a-time appends it replaced.
      std::vector<std::string> writes = all;
      writes.push_back("SELECT X1 * 0.0 AS k, i FROM T");
      writes.push_back("SELECT X1 / (i % 3) AS k, X1 FROM T");
      writes.push_back(
          "SELECT exp(1000 * (i % 2)) - exp(1000 * (i % 2)) AS k, X1 FROM T");
      writes.push_back("SELECT i % 7 - 3 AS k, X1 * X1 AS q FROM T");
      for (const std::string& sql : writes) {
        NLQ_ASSERT_OK_AND_ASSIGN(ResultSet rows,
                                 db->Execute(sql, Interpreted()));
        sig += CompareWrites(
            db.get(), "CREATE TABLE OUTC AS " + sql,
            "CREATE TABLE OUTI AS " + sql, "OUTC", "OUTI",
            RowAppendImage(rows.schema(), cfg.partitions, rows.rows()));
        DropIfExists(db.get(), "OUTC");
        DropIfExists(db.get(), "OUTI");
      }
      // A DOUBLE result into a BIGINT key column: truncated first, then
      // routed by the truncated value.
      const std::string into_bigint = "SELECT X1 * 3.7, i FROM T";
      for (const std::string name : {"OUTC", "OUTI"}) {
        NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE " + name +
                                         " (k BIGINT, v DOUBLE)"));
      }
      NLQ_ASSERT_OK_AND_ASSIGN(ResultSet bigint_rows,
                               db->Execute(into_bigint, Interpreted()));
      NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * bigint_table,
                               db->catalog().GetTable("OUTC"));
      sig += CompareWrites(
          db.get(), "INSERT INTO OUTC " + into_bigint,
          "INSERT INTO OUTI " + into_bigint, "OUTC", "OUTI",
          RowAppendImage(bigint_table->schema(), cfg.partitions,
                         bigint_rows.rows()));
      // INSERT … SELECT behind a spilled table's short last chunk, and
      // into its own source table, which is read as of the statement's
      // start: the table doubles.
      for (const std::string name : {"OUTC", "OUTI"}) {
        NLQ_ASSERT_OK(db->ExecuteCommand("DROP TABLE " + name));
        NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE " + name +
                                         " AS SELECT * FROM T"));
        NLQ_ASSERT_OK(db->SpillTable(name));
      }
      std::string rest;
      for (size_t a = 2; a <= d; ++a) rest += StringPrintf(", X%zu", a);
      rest += ", PAD";
      const std::string appended =
          " SELECT i, X1 * X1 + 0.5" + rest + " FROM T";
      sig += CompareWrites(db.get(), "INSERT INTO OUTC" + appended,
                           "INSERT INTO OUTI" + appended, "OUTC", "OUTI");
      const std::string self_insert =
          " SELECT i + 100000, X1 * 2 + 1" + rest + " FROM ";
      sig += CompareWrites(
          db.get(), "INSERT INTO OUTC" + self_insert + "OUTC",
          "INSERT INTO OUTI" + self_insert + "OUTI", "OUTC", "OUTI");
      NLQ_ASSERT_OK_AND_ASSIGN(ResultSet doubled,
                               db->Execute("SELECT count(*) FROM OUTC"));
      EXPECT_EQ(doubled.At(0, 0).int_value(),
                static_cast<int64_t>(4 * cfg.rows));
      DropIfExists(db.get(), "OUTC");
      DropIfExists(db.get(), "OUTI");
      if (baseline.empty()) {
        baseline = sig;
      } else {
        EXPECT_EQ(sig, baseline);
      }
    }
  }
}

}  // namespace
}  // namespace nlq::engine
