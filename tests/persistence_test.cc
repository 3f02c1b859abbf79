#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "engine/persistence.h"
#include "gen/datagen.h"
#include "stats/describe.h"
#include "stats/miner.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace nlq::engine {
namespace {

std::string SnapshotDir(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SchemaSerializationTest, RoundTrips) {
  const storage::Schema schema = storage::Schema::DataSet(3, true);
  NLQ_ASSERT_OK_AND_ASSIGN(storage::Schema back,
                           DeserializeSchema(SerializeSchema(schema)));
  EXPECT_TRUE(schema == back);
}

TEST(SchemaSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeSchema("").ok());
  EXPECT_FALSE(DeserializeSchema("noseparator").ok());
  EXPECT_FALSE(DeserializeSchema("a:FLOATY").ok());
  EXPECT_FALSE(DeserializeSchema(":DOUBLE").ok());
}

TEST(PersistenceTest, SaveLoadRoundTripPreservesData) {
  const std::string dir = SnapshotDir("snapshot_roundtrip");
  auto db = nlq::testing::MakeTestDatabase(/*num_partitions=*/3);
  gen::MixtureOptions options;
  options.n = 2000;
  options.d = 4;
  options.seed = 1234;
  NLQ_ASSERT_OK(gen::GenerateDataSetTable(db.get(), "X", options).status());
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "CREATE TABLE META (k VARCHAR(16), v DOUBLE)"));
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "INSERT INTO META VALUES ('version', 1), ('rows', 2000)"));

  NLQ_ASSERT_OK(SaveDatabase(*db, dir));

  // Reload into a fresh database with a DIFFERENT default partition
  // count; the manifest must win.
  auto db2 = nlq::testing::MakeTestDatabase(/*num_partitions=*/8);
  NLQ_ASSERT_OK(LoadDatabase(db2.get(), dir));

  NLQ_ASSERT_OK_AND_ASSIGN(double rows,
                           db2->QueryDouble("SELECT count(*) FROM X"));
  EXPECT_DOUBLE_EQ(rows, 2000.0);
  NLQ_ASSERT_OK_AND_ASSIGN(
      double version,
      db2->QueryDouble("SELECT v FROM META WHERE k = 'version'"));
  EXPECT_DOUBLE_EQ(version, 1.0);

  auto table = db2->catalog().GetTable("X");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_partitions(), 3u);

  // Statistics recomputed after reload match the original exactly
  // (same partitioning, same per-partition row order).
  stats::WarehouseMiner m1(db.get());
  stats::WarehouseMiner m2(db2.get());
  NLQ_ASSERT_OK_AND_ASSIGN(
      stats::SufStats s1,
      m1.ComputeSufStats("X", stats::DimensionColumns(4),
                         stats::MatrixKind::kFull,
                         stats::ComputeVia::kUdfList));
  NLQ_ASSERT_OK_AND_ASSIGN(
      stats::SufStats s2,
      m2.ComputeSufStats("X", stats::DimensionColumns(4),
                         stats::MatrixKind::kFull,
                         stats::ComputeVia::kUdfList));
  EXPECT_EQ(s1.MaxAbsDiff(s2), 0.0);
}

TEST(PersistenceTest, LoadReplacesExistingTable) {
  const std::string dir = SnapshotDir("snapshot_replace");
  auto db = nlq::testing::MakeTestDatabase();
  NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE T (v DOUBLE)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO T VALUES (1), (2)"));
  NLQ_ASSERT_OK(SaveDatabase(*db, dir));

  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO T VALUES (3)"));
  NLQ_ASSERT_OK_AND_ASSIGN(double before,
                           db->QueryDouble("SELECT count(*) FROM T"));
  EXPECT_DOUBLE_EQ(before, 3.0);

  NLQ_ASSERT_OK(LoadDatabase(db.get(), dir));
  NLQ_ASSERT_OK_AND_ASSIGN(double after,
                           db->QueryDouble("SELECT count(*) FROM T"));
  EXPECT_DOUBLE_EQ(after, 2.0);
}

/// Bit-exact rendering of a table's rows in partition order (doubles
/// as bit patterns, NULLs by type).
std::string TableSignature(Database* db, const std::string& name) {
  auto table = db->catalog().GetTable(name);
  EXPECT_TRUE(table.ok()) << name;
  if (!table.ok()) return "<missing>";
  auto rows = (*table)->ReadAllRows();
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return "<error>";
  std::string out;
  for (const storage::Row& row : *rows) {
    for (const storage::Datum& v : row) {
      if (v.is_null()) {
        out += "N,";
      } else if (v.type() == storage::DataType::kDouble) {
        uint64_t bits = 0;
        const double d = v.double_value();
        std::memcpy(&bits, &d, sizeof(bits));
        out += std::to_string(bits) + ",";
      } else if (v.type() == storage::DataType::kInt64) {
        out += std::to_string(v.int_value()) + ",";
      } else {
        out += "'" + v.string_value() + "',";
      }
    }
    out += "\n";
  }
  return out;
}

TEST(PersistenceTest, SpilledTablesSaveAndLoadBitIdentical) {
  // One resident and one spilled table (its spilled chunks plus a
  // resident tail appended after the spill) save in the one snapshot
  // format, and a fresh database loads them back bit for bit.
  const std::string dir = SnapshotDir("snapshot_spilled");
  auto db = nlq::testing::MakeTestDatabase(/*num_partitions=*/3);
  NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE A (i BIGINT, x DOUBLE)"));
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "INSERT INTO A VALUES (1, 0.5), (2, NULL), (3, -0.0)"));
  gen::MixtureOptions options;
  options.n = 9000;  // three partitions of ~3000 rows: partial chunks
  options.d = 2;
  options.seed = 77;
  NLQ_ASSERT_OK(gen::GenerateDataSetTable(db.get(), "B", options).status());

  // Save once while both are resident, then grow both and spill B: the
  // second save must rewrite every table, spilled or not.
  NLQ_ASSERT_OK(SaveDatabase(*db, dir));
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO A VALUES (4, 1e300)"));
  NLQ_ASSERT_OK(db->SpillTable("B"));
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "INSERT INTO B VALUES (9000, NULL, 2.25), (9001, -3.5, 0.125)"));
  NLQ_ASSERT_OK(SaveDatabase(*db, dir));

  auto db2 = nlq::testing::MakeTestDatabase(/*num_partitions=*/3);
  NLQ_ASSERT_OK(LoadDatabase(db2.get(), dir));
  for (const char* name : {"A", "B"}) {
    EXPECT_EQ(TableSignature(db2.get(), name), TableSignature(db.get(), name))
        << name;
  }
  NLQ_ASSERT_OK_AND_ASSIGN(double a_rows,
                           db2->QueryDouble("SELECT count(*) FROM A"));
  EXPECT_DOUBLE_EQ(a_rows, 4.0);
  NLQ_ASSERT_OK_AND_ASSIGN(double b_rows,
                           db2->QueryDouble("SELECT count(*) FROM B"));
  EXPECT_DOUBLE_EQ(b_rows, 9002.0);
}

TEST(PersistenceTest, FailedSaveLeavesThePreviousSnapshotWhole) {
  // A save that fails on a later table must not leave earlier tables
  // rewritten behind the old manifest: the directory still loads as the
  // previous snapshot, and no staged file is left behind.
  const std::string dir = SnapshotDir("snapshot_failed_save");
  auto db = nlq::testing::MakeTestDatabase(/*num_partitions=*/2);
  NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE A (i BIGINT, x DOUBLE)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO A VALUES (1, 0.5), (2, 1.5)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE Z (i BIGINT, s VARCHAR)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO Z VALUES (1, 'z')"));
  NLQ_ASSERT_OK(SaveDatabase(*db, dir));
  const std::string a_saved = TableSignature(db.get(), "A");
  const std::string z_saved = TableSignature(db.get(), "Z");

  // A and Z grow; a directory sitting on Z's second staging path makes
  // Z's save fail after A's partitions and Z's first were written.
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO A VALUES (3, 2.5)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO Z VALUES (2, 'zz')"));
  const std::string blocker = dir + "/z.1.pages.tmp";
  std::filesystem::create_directories(blocker);
  ASSERT_TRUE(std::filesystem::is_directory(blocker));
  EXPECT_EQ(SaveDatabase(*db, dir).code(), StatusCode::kIOError);
  std::filesystem::remove(blocker);

  auto db2 = nlq::testing::MakeTestDatabase(/*num_partitions=*/2);
  NLQ_ASSERT_OK(LoadDatabase(db2.get(), dir));
  EXPECT_EQ(TableSignature(db2.get(), "A"), a_saved);
  EXPECT_EQ(TableSignature(db2.get(), "Z"), z_saved);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST(PersistenceTest, LargeStringsAndSpecialValuesSaveAndLoadBitIdentical) {
  // Strings of 64 KB and more, empty and NULL strings, and NULL, NaN
  // and ±0 doubles reload bit for bit.
  const std::string dir = SnapshotDir("snapshot_special_values");
  auto db = nlq::testing::MakeTestDatabase(/*num_partitions=*/2);
  NLQ_ASSERT_OK(db->ExecuteCommand(
      "CREATE TABLE S (i BIGINT, x DOUBLE, s VARCHAR)"));
  NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * table,
                           db->catalog().GetTable("S"));
  const double kDoubles[] = {0.0, -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::infinity(), 1e300};
  for (int64_t r = 0; r < 40; ++r) {
    storage::Row row(3);
    row[0] = r % 9 == 4 ? storage::Datum::Null(storage::DataType::kInt64)
                        : storage::Datum::Int64(r - 20);
    row[1] = r % 6 == 5 ? storage::Datum::Null(storage::DataType::kDouble)
                        : storage::Datum::Double(kDoubles[r % 5]);
    if (r % 7 == 0) {
      row[2] = storage::Datum::Null(storage::DataType::kVarchar);
    } else if (r % 7 == 1) {
      row[2] = storage::Datum::Varchar("");
    } else {
      row[2] = storage::Datum::Varchar(std::string(
          (size_t{64} << 10) + static_cast<size_t>(r) * 1000,
          static_cast<char>('a' + r % 26)));
    }
    NLQ_ASSERT_OK(table->AppendRow(row));
  }
  NLQ_ASSERT_OK(SaveDatabase(*db, dir));

  auto db2 = nlq::testing::MakeTestDatabase(/*num_partitions=*/2);
  NLQ_ASSERT_OK(LoadDatabase(db2.get(), dir));
  EXPECT_EQ(TableSignature(db2.get(), "S"), TableSignature(db.get(), "S"));
  NLQ_ASSERT_OK_AND_ASSIGN(
      double nulls,
      db2->QueryDouble("SELECT count(*) FROM S WHERE s IS NULL"));
  EXPECT_DOUBLE_EQ(nulls, 6.0);
}

TEST(PersistenceTest, TruncatedPartitionFileFailsToLoad) {
  // A partition file cut on a chunk boundary decodes as a shorter table;
  // the manifest's row count rejects it, naming the file. A cut inside
  // a chunk fails the decode itself.
  const std::string dir = SnapshotDir("snapshot_truncated");
  auto db = nlq::testing::MakeTestDatabase(/*num_partitions=*/1);
  gen::MixtureOptions options;
  options.n = 20000;
  options.d = 4;
  options.seed = 99;
  NLQ_ASSERT_OK(gen::GenerateDataSetTable(db.get(), "X", options).status());
  NLQ_ASSERT_OK(SaveDatabase(*db, dir));

  const std::string file = dir + "/x.0.pages";
  const uintmax_t full_size = std::filesystem::file_size(file);
  // The first chunk's page count is the fourth u32 of its header.
  uint32_t first_chunk_pages = 0;
  {
    std::FILE* f = std::fopen(file.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 12, SEEK_SET), 0);
    ASSERT_EQ(std::fread(&first_chunk_pages, 4, 1, f), 1u);
    std::fclose(f);
  }
  const uintmax_t boundary =
      uintmax_t{first_chunk_pages} * storage::kPageSize;
  ASSERT_LT(boundary, full_size);

  for (const uintmax_t cut : {boundary, boundary + 100}) {
    std::filesystem::resize_file(file, cut);
    auto db2 = nlq::testing::MakeTestDatabase(/*num_partitions=*/1);
    const Status s = LoadDatabase(db2.get(), dir);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << cut << ": " << s.ToString();
    EXPECT_NE(s.message().find(file), std::string::npos) << s.ToString();
  }
}

TEST(PersistenceTest, OldStyleManifestIsNotSupported) {
  // A manifest without a format version line (the row-page snapshots)
  // or with an unknown version is refused, naming what it found.
  const std::string dir = SnapshotDir("snapshot_old_style");
  std::filesystem::create_directories(dir);
  {
    std::FILE* f = std::fopen((dir + "/manifest.txt").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("t|1|v:DOUBLE\n", f);
    std::fclose(f);
  }
  auto db = nlq::testing::MakeTestDatabase();
  Status s = LoadDatabase(db.get(), dir);
  EXPECT_EQ(s.code(), StatusCode::kNotSupported) << s.ToString();
  EXPECT_NE(s.message().find("version none"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(db->catalog().HasTable("t"));

  {
    std::FILE* f = std::fopen((dir + "/manifest.txt").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("nlq-snapshot-format 7\nt|1|v:DOUBLE|0\n", f);
    std::fclose(f);
  }
  s = LoadDatabase(db.get(), dir);
  EXPECT_EQ(s.code(), StatusCode::kNotSupported) << s.ToString();
  EXPECT_NE(s.message().find("'7'"), std::string::npos) << s.ToString();
}

TEST(PersistenceTest, MissingDirectoryFails) {
  auto db = nlq::testing::MakeTestDatabase();
  EXPECT_FALSE(LoadDatabase(db.get(), "/no/such/snapshot/dir").ok());
}

TEST(PersistenceTest, EmptyDatabaseRoundTrips) {
  const std::string dir = SnapshotDir("snapshot_empty");
  auto db = nlq::testing::MakeTestDatabase();
  NLQ_ASSERT_OK(SaveDatabase(*db, dir));
  auto db2 = nlq::testing::MakeTestDatabase();
  NLQ_ASSERT_OK(LoadDatabase(db2.get(), dir));
  EXPECT_TRUE(db2->catalog().TableNames().empty());
}

}  // namespace
}  // namespace nlq::engine

namespace nlq::stats {
namespace {

TEST(DescribeTest, MatchesHandComputation) {
  SufStats stats(2, MatrixKind::kDiagonal);
  stats.Update(std::vector<double>{1.0, 10.0});
  stats.Update(std::vector<double>{3.0, 20.0});
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<DimensionSummary> summary,
                           Describe(stats));
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_DOUBLE_EQ(summary[0].mean, 2.0);
  EXPECT_DOUBLE_EQ(summary[0].variance, 1.0);
  EXPECT_DOUBLE_EQ(summary[0].stddev, 1.0);
  EXPECT_DOUBLE_EQ(summary[0].min, 1.0);
  EXPECT_DOUBLE_EQ(summary[0].max, 3.0);
  EXPECT_DOUBLE_EQ(summary[1].mean, 15.0);
}

TEST(DescribeTest, RejectsEmptyStats) {
  SufStats stats(2, MatrixKind::kFull);
  EXPECT_FALSE(Describe(stats).ok());
  EXPECT_FALSE(DescribeTable(stats).ok());
}

TEST(DescribeTest, TableFormatting) {
  SufStats stats(1, MatrixKind::kDiagonal);
  stats.Update(std::vector<double>{5.0});
  NLQ_ASSERT_OK_AND_ASSIGN(std::string table,
                           DescribeTable(stats, {"spend"}));
  EXPECT_NE(table.find("spend"), std::string::npos);
  EXPECT_NE(table.find("n = 1"), std::string::npos);
  EXPECT_FALSE(DescribeTable(stats, {"a", "b"}).ok());
}

}  // namespace
}  // namespace nlq::stats
