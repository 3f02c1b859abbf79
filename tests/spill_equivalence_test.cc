// Larger-than-RAM storage: a spilled table must be indistinguishable
// from the resident one to every query — bit-identical results across
// row/columnar paths, thread counts and kernel variants — while the
// buffer pool's MemoryTracker proves the storage layer stayed inside
// its frame budget and its counters account for every page a scan
// read. This is the acceptance suite for the compressed spill +
// buffer pool stack (DESIGN.md §12).

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"
#include "gen/datagen.h"
#include "stats/nlq_kernel.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace nlq::engine {
namespace {

using storage::DataType;
using storage::Datum;

/// Bit-exact rendering of a result set (doubles as bit patterns).
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
          char buf[32];
          std::snprintf(buf, sizeof buf, "d:%016llx,",
                        static_cast<unsigned long long>(bits));
          out += buf;
          break;
        }
        case DataType::kInt64:
          out += "i:" + std::to_string(v.int_value()) + ",";
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

std::unique_ptr<Database> MakeDb(size_t partitions, size_t threads,
                                 uint64_t pool_bytes, uint64_t rows,
                                 size_t d, uint64_t seed = 4242) {
  DatabaseOptions options;
  options.num_partitions = partitions;
  options.num_threads = threads;
  options.buffer_pool_bytes = pool_bytes;
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(stats::RegisterAllStatsUdfs(&db->udfs()).ok());
  gen::MixtureOptions gen_options;
  gen_options.n = rows;
  gen_options.d = d;
  gen_options.seed = seed;
  EXPECT_TRUE(gen::GenerateDataSetTable(db.get(), "X", gen_options).ok());
  return db;
}

std::string RunSignature(Database* db, const char* sql,
                         bool interpreted = false) {
  QueryOptions q;
  q.force_interpreted = interpreted;
  auto result = db->Execute(sql, q);
  EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  if (!result.ok()) return "<error>";
  return ExactSignature(*result);
}

// The query mix covers every scanner the spill path rewired: the
// columnar aggregate fast path (nlq_list), plain columnar builtins,
// the compiled projection pipeline, and (forced) the interpreted row
// path.
const char* kQueries[] = {
    "SELECT nlq_list('full', X1, X2, X3) FROM X",
    "SELECT count(*), sum(X1), avg(X2), min(X3), max(X1) FROM X",
    "SELECT X1, X2 FROM X WHERE X1 > 0 LIMIT 20",
    "SELECT nlq_list('triang', X1, X2) FROM X WHERE X2 > -1000",
};

TEST(SpillEquivalenceTest, SpilledMatchesResidentBitExactEveryPath) {
  auto db = MakeDb(/*partitions=*/4, /*threads=*/3,
                   /*pool_bytes=*/storage::kPageSize * 16,
                   /*rows=*/20000, /*d=*/3);
  std::vector<std::string> resident, resident_row;
  for (const char* sql : kQueries) {
    resident.push_back(RunSignature(db.get(), sql));
    resident_row.push_back(RunSignature(db.get(), sql, /*interpreted=*/true));
  }

  NLQ_ASSERT_OK(db->SpillTable("X"));
  for (size_t i = 0; i < std::size(kQueries); ++i) {
    EXPECT_EQ(RunSignature(db.get(), kQueries[i]), resident[i])
        << kQueries[i];
    EXPECT_EQ(RunSignature(db.get(), kQueries[i], /*interpreted=*/true),
              resident_row[i])
        << kQueries[i] << " (interpreted)";
  }
  // The pool actually served the spilled scans.
  ASSERT_NE(db->buffer_pool(), nullptr);
  const storage::BufferPoolStats stats = db->buffer_pool()->GetStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(SpillEquivalenceTest, ThreadCountDoesNotChangeSpilledResults) {
  // Same data, same spill, 1 vs 3 workers: morsel boundaries depend
  // only on (partition, offset), so results must match bit for bit.
  auto db1 = MakeDb(4, 1, storage::kPageSize * 16, 20000, 3);
  auto db3 = MakeDb(4, 3, storage::kPageSize * 16, 20000, 3);
  NLQ_ASSERT_OK(db1->SpillTable("X"));
  NLQ_ASSERT_OK(db3->SpillTable("X"));
  for (const char* sql : kQueries) {
    EXPECT_EQ(RunSignature(db1.get(), sql), RunSignature(db3.get(), sql))
        << sql;
  }
}

TEST(SpillEquivalenceTest, KernelVariantsAreBitIdenticalOnSpilledScans) {
  auto db = MakeDb(4, 3, storage::kPageSize * 16, 20000, 4);
  NLQ_ASSERT_OK(db->SpillTable("X"));
  const char* kSql = "SELECT nlq_list('full', X1, X2, X3, X4) FROM X";

  stats::SetNlqKernelMode(stats::NlqKernelMode::kScalar);
  EXPECT_STREQ(stats::NlqKernelVariant(), "scalar");
  const std::string scalar = RunSignature(db.get(), kSql);

  stats::SetNlqKernelMode(stats::NlqKernelMode::kSimd);
  const std::string simd = RunSignature(db.get(), kSql);

  stats::SetNlqKernelMode(stats::NlqKernelMode::kAuto);
  EXPECT_EQ(scalar, simd);
}

TEST(SpillEquivalenceTest, SpilledTableTakesAppendsAndSpillIsIdempotent) {
  // INSERT into a spilled table lands in a resident tail chunk behind
  // the spilled ones: every scan must match a resident twin holding
  // the same rows, bit for bit.
  auto db = MakeDb(4, 2, storage::kPageSize * 16, 5000, 2);
  auto twin = MakeDb(4, 2, storage::kPageSize * 16, 5000, 2);
  NLQ_ASSERT_OK(db->SpillTable("X"));
  for (const char* insert :
       {"INSERT INTO X VALUES (5000, 2.0, 3.0), (5001, -1.5, NULL), "
        "(5002, 0.25, 4.0)",
        "INSERT INTO X SELECT i + 100000, X2, X1 FROM X WHERE X1 > 0"}) {
    NLQ_ASSERT_OK(db->ExecuteCommand(insert));
    NLQ_ASSERT_OK(twin->ExecuteCommand(insert));
  }
  const char* kChecks[] = {
      "SELECT count(*) FROM X",
      "SELECT nlq_list('triang', X1, X2) FROM X",
  };
  for (const char* sql : kChecks) {
    const std::string resident = RunSignature(twin.get(), sql);
    EXPECT_EQ(RunSignature(db.get(), sql), resident) << sql;
    EXPECT_EQ(RunSignature(db.get(), sql, /*interpreted=*/true), resident)
        << sql << " (interpreted)";
  }
  auto count = db->Execute("SELECT count(*) FROM X");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_GT(count->At(0, 0).int_value(), 5003);

  // Re-spilling is a no-op, not an error; the data stays intact.
  NLQ_ASSERT_OK(db->SpillTable("X"));
  for (const char* sql : kChecks) {
    EXPECT_EQ(RunSignature(db.get(), sql), RunSignature(twin.get(), sql))
        << sql << " (after re-spill)";
  }

  // Unknown tables still say NotFound.
  EXPECT_EQ(db->SpillTable("NOPE").code(), StatusCode::kNotFound);

  // DROP + CREATE resurrects a table under the same name.
  NLQ_ASSERT_OK(db->ExecuteCommand("DROP TABLE X"));
  NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE X (i BIGINT, X1 DOUBLE)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO X VALUES (1, 2.0)"));
}

TEST(SpillEquivalenceTest, VarcharTableSpillsAndReadsBackOnTheRowPath) {
  // VARCHAR columns spill in the plain string block: a table of empty,
  // NULL and varied-length strings over several chunks per partition
  // reads back through the pool exactly as its resident form, on the
  // row path that serves VARCHAR expressions.
  auto db = MakeDb(2, 2, storage::kPageSize * 16, 10, 1);
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "CREATE TABLE V (i BIGINT, s VARCHAR, x DOUBLE)"));
  NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * table,
                           db->catalog().GetTable("V"));
  for (int64_t r = 0; r < 20000; ++r) {
    Datum s = r % 7 == 0   ? Datum::Null(DataType::kVarchar)
              : r % 7 == 1 ? Datum::Varchar("")
                           : Datum::Varchar(std::string(
                                 static_cast<size_t>(r % 97),
                                 static_cast<char>('a' + r % 26)));
    NLQ_ASSERT_OK(table->AppendRow(
        {Datum::Int64(r), std::move(s), Datum::Double(r * 0.25)}));
  }
  const char* kChecks[] = {
      "SELECT i, s, x FROM V",
      "SELECT i, s FROM V WHERE s IS NULL OR s = '' OR s > 'w'",
      "SELECT count(*), sum(x) FROM V WHERE s IS NOT NULL",
  };
  std::vector<std::string> resident;
  for (const char* sql : kChecks) {
    resident.push_back(RunSignature(db.get(), sql, /*interpreted=*/true));
  }

  NLQ_ASSERT_OK(db->SpillTable("V"));
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    ASSERT_TRUE(table->partition(p).is_spilled()) << "partition " << p;
  }
  for (size_t i = 0; i < std::size(kChecks); ++i) {
    EXPECT_EQ(RunSignature(db.get(), kChecks[i], /*interpreted=*/true),
              resident[i])
        << kChecks[i] << " (interpreted)";
    EXPECT_EQ(RunSignature(db.get(), kChecks[i]), resident[i]) << kChecks[i];
  }
}

TEST(SpillEquivalenceTest, BudgetFallbackNoteNamesTheConsumer) {
  // Resident table, tiny memory budget: two columns of 20k rows × 4
  // partitions are ~480 KB of column data, far past 100 KB, yet the
  // scan reads the chunks in place and charges nothing for them — the
  // statement succeeds with the unlimited run's answer.
  auto db = MakeDb(4, 2, storage::kPageSize * 16, 20000, 2);
  const char* kSql = "SELECT sum(X1) FROM X";
  const std::string unlimited = RunSignature(db.get(), kSql);
  QueryOptions q;
  q.memory_limit = 100 * 1024;
  auto result = db->Execute(kSql, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ExactSignature(*result), unlimited);
}

TEST(SpillEquivalenceTest, TenTimesPoolBudgetScansWithBoundedMemory) {
  // The tentpole claim: a table ≥ 10× the pool budget streams through
  // a fixed frame set, answers bit-identically to the resident run,
  // and the pool's MemoryTracker peak proves the bound.
  const uint64_t kPool = storage::kPageSize * storage::BufferPool::kMinFrames;
  auto db = MakeDb(/*partitions=*/4, /*threads=*/3, kPool,
                   /*rows=*/350000, /*d=*/4);
  const char* kSql = "SELECT nlq_list('full', X1, X2, X3, X4) FROM X";
  const std::string resident = RunSignature(db.get(), kSql);

  NLQ_ASSERT_OK(db->SpillTable("X"));
  ASSERT_NE(db->buffer_pool(), nullptr);

  // The spilled image really is ≥ 10× the pool budget (mixture doubles
  // are incompressible, so plain blocks dominate).
  NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * table,
                           db->catalog().GetTable("X"));
  uint64_t spilled_bytes = 0;
  uint64_t spilled_pages = 0;
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    ASSERT_TRUE(table->partition(p).is_spilled());
    const storage::SpillSegment& seg = *table->partition(p).spill();
    spilled_bytes += seg.compressed_bytes();
    for (size_t c = 0; c < seg.num_chunks(); ++c) {
      spilled_pages += seg.chunk(c).pages;
    }
  }
  EXPECT_GE(spilled_bytes, 10 * db->buffer_pool()->budget_bytes())
      << "table too small to prove the larger-than-pool claim";
  // The default 16,384-row morsels are whole chunks, so the morsel
  // grid hands every chunk to exactly one worker.
  ASSERT_EQ(db->options().morsel_rows % storage::kChunkRows, 0u);

  EXPECT_EQ(RunSignature(db.get(), kSql), resident);

  // Frame memory never exceeded the budget (whole frames only).
  EXPECT_LE(db->buffer_pool()->tracker().peak(),
            db->buffer_pool()->budget_bytes());
  // Exact accounting, whatever the thread schedule: the one scan pins
  // every page of every chunk once, and nothing else pins or loads a
  // page, so each pin is a miss; once the frame set is full each miss
  // evicts one cached page (the working set had to turn over).
  const storage::BufferPoolStats stats = db->buffer_pool()->GetStats();
  EXPECT_EQ(stats.misses, spilled_pages);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, stats.misses - db->buffer_pool()->num_frames());
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace nlq::engine
