#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>

#include "common/random.h"
#include "common/strings.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/column_codec.h"
#include "storage/column_vector.h"
#include "storage/disk_manager.h"
#include "storage/partitioned_table.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "tests/test_util.h"

namespace nlq::storage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Datum
// ---------------------------------------------------------------------------

TEST(DatumTest, Constructors) {
  EXPECT_TRUE(Datum().is_null());
  EXPECT_DOUBLE_EQ(Datum::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Datum::Int64(-3).int_value(), -3);
  EXPECT_EQ(Datum::Varchar("hi").string_value(), "hi");
  EXPECT_TRUE(Datum::Null(DataType::kVarchar).is_null());
}

TEST(DatumTest, AsDoubleCoercion) {
  EXPECT_DOUBLE_EQ(Datum::Int64(7).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Datum::Null(DataType::kDouble).AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(Datum::Varchar("x").AsDouble(), 0.0);
}

TEST(DatumTest, KeyEqualsAcrossNumericTypes) {
  EXPECT_TRUE(Datum::Int64(1).KeyEquals(Datum::Double(1.0)));
  EXPECT_FALSE(Datum::Int64(1).KeyEquals(Datum::Double(1.5)));
  EXPECT_TRUE(Datum::Null(DataType::kDouble)
                  .KeyEquals(Datum::Null(DataType::kInt64)));
  EXPECT_FALSE(Datum::Null(DataType::kDouble).KeyEquals(Datum::Int64(0)));
  EXPECT_TRUE(Datum::Varchar("a").KeyEquals(Datum::Varchar("a")));
  EXPECT_FALSE(Datum::Varchar("a").KeyEquals(Datum::Int64(0)));
}

TEST(DatumTest, KeyHashConsistentWithEquals) {
  EXPECT_EQ(Datum::Int64(5).KeyHash(), Datum::Double(5.0).KeyHash());
}

TEST(DatumTest, ToStringForms) {
  EXPECT_EQ(Datum::Null(DataType::kDouble).ToString(), "NULL");
  EXPECT_EQ(Datum::Int64(42).ToString(), "42");
  EXPECT_EQ(Datum::Varchar("abc").ToString(), "abc");
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TEST(SchemaTest, DataSetLayout) {
  const Schema s = Schema::DataSet(3, /*with_y=*/true);
  ASSERT_EQ(s.num_columns(), 5u);
  EXPECT_EQ(s.column(0).name, "i");
  EXPECT_EQ(s.column(0).type, DataType::kInt64);
  EXPECT_EQ(s.column(3).name, "X3");
  EXPECT_EQ(s.column(4).name, "Y");
}

TEST(SchemaTest, CaseInsensitiveLookup) {
  const Schema s = Schema::DataSet(2);
  NLQ_ASSERT_OK_AND_ASSIGN(size_t idx, s.ColumnIndex("x2"));
  EXPECT_EQ(idx, 2u);
  EXPECT_FALSE(s.ColumnIndex("x9").ok());
  EXPECT_TRUE(s.HasColumn("I"));
}

TEST(SchemaTest, ValidateRow) {
  const Schema s = Schema::DataSet(1);
  NLQ_EXPECT_OK(s.ValidateRow({Datum::Int64(1), Datum::Double(2.0)}));
  NLQ_EXPECT_OK(s.ValidateRow({Datum::Int64(1), Datum::Null(DataType::kDouble)}));
  EXPECT_FALSE(s.ValidateRow({Datum::Int64(1)}).ok());
  EXPECT_FALSE(
      s.ValidateRow({Datum::Varchar("x"), Datum::Double(1.0)}).ok());
}

TEST(SchemaTest, Equality) {
  EXPECT_TRUE(Schema::DataSet(2) == Schema::DataSet(2));
  EXPECT_FALSE(Schema::DataSet(2) == Schema::DataSet(3));
}

// ---------------------------------------------------------------------------
// DiskManager
// ---------------------------------------------------------------------------

TEST(DiskManagerTest, PageRoundTrip) {
  const std::string path = TempPath("dm_roundtrip.pages");
  DiskManager dm;
  NLQ_ASSERT_OK(dm.Open(path, /*truncate=*/true));
  std::string out(kPageSize, '\0');
  const char data[] = "hello page";
  std::memcpy(out.data(), data, sizeof(data));
  out.back() = 'z';
  NLQ_ASSERT_OK(dm.WritePage(0, out.data()));
  NLQ_ASSERT_OK(dm.WritePage(3, out.data()));  // sparse write
  NLQ_ASSERT_OK_AND_ASSIGN(uint64_t count, dm.PageCount());
  EXPECT_EQ(count, 4u);
  std::string in(kPageSize, 'x');
  NLQ_ASSERT_OK(dm.ReadPages(0, {in.data()}));
  EXPECT_EQ(in, out);
  std::remove(path.c_str());
}

TEST(DiskManagerTest, ReadBeyondEofFails) {
  const std::string path = TempPath("dm_eof.pages");
  DiskManager dm;
  NLQ_ASSERT_OK(dm.Open(path, /*truncate=*/true));
  std::string page(kPageSize, '\0');
  EXPECT_FALSE(dm.ReadPages(0, {page.data()}).ok());
  std::remove(path.c_str());
}

TEST(DiskManagerTest, NotOpenErrors) {
  DiskManager dm;
  std::string page(kPageSize, '\0');
  EXPECT_FALSE(dm.WritePage(0, page.data()).ok());
  EXPECT_FALSE(dm.ReadPages(0, {page.data()}).ok());
  EXPECT_FALSE(dm.PageCount().ok());
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

Row MakeDataRow(int64_t i, double x1, double x2) {
  return {Datum::Int64(i), Datum::Double(x1), Datum::Double(x2)};
}

/// FNV-1a 64 over every byte of the file at `path`.
uint64_t FileHash(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return 0;
  uint64_t h = 0xcbf29ce484222325ull;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  std::fclose(f);
  return h;
}

/// Pages of a saved table file.
uint64_t SavedPageCount(const std::string& path) {
  DiskManager disk;
  EXPECT_TRUE(disk.Open(path, /*truncate=*/false).ok()) << path;
  auto pages = disk.PageCount();
  EXPECT_TRUE(pages.ok()) << pages.status().ToString();
  return pages.ok() ? *pages : 0;
}

/// Bit-exact rendering of rows (doubles as bit patterns, so NaN and
/// -0.0 compare by value of their bits).
std::string RowsSignature(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Datum& v : row) {
      if (v.is_null()) {
        out += 'N';
        out += std::to_string(static_cast<int>(v.type()));
      } else if (v.type() == DataType::kDouble) {
        uint64_t bits = 0;
        const double d = v.double_value();
        std::memcpy(&bits, &d, sizeof(bits));
        out += 'd';
        out += std::to_string(bits);
      } else if (v.type() == DataType::kInt64) {
        out += 'i';
        out += std::to_string(v.int_value());
      } else {
        out += 's';
        out += v.string_value();
      }
      out += ',';
    }
    out += "\n";
  }
  return out;
}

TEST(TableTest, AppendAndScan) {
  Table table(Schema::DataSet(2));
  for (int i = 1; i <= 100; ++i) {
    NLQ_ASSERT_OK(table.AppendRow(MakeDataRow(i, i * 1.0, i * 2.0)));
  }
  EXPECT_EQ(table.num_rows(), 100u);
  BatchScanner scanner = table.ScanBatch();
  RowBatch batch;
  int count = 0;
  double sum_x1 = 0;
  while (scanner.Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      ++count;
      sum_x1 += batch.row(i)[1].double_value();
    }
  }
  NLQ_ASSERT_OK(scanner.status());
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sum_x1, 5050.0);
}

TEST(TableTest, ValidatesSchema) {
  Table table(Schema::DataSet(2));
  EXPECT_FALSE(table.AppendRow({Datum::Int64(1)}).ok());
}

TEST(TableTest, SpillsAcrossPages) {
  // Tens of thousands of rows span many column chunks, each saved as
  // its own run of 64 KB pages.
  Table table(Schema::DataSet(2));
  for (int i = 0; i < 50000; ++i) {
    table.AppendRowUnchecked(MakeDataRow(i, 1.0, 2.0));
  }
  const std::string path = TempPath("spills_across_pages.pages");
  NLQ_ASSERT_OK(table.SaveToFile(path));
  EXPECT_GT(SavedPageCount(path), 10u);
  std::remove(path.c_str());
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, table.ReadAllRows());
  EXPECT_EQ(rows.size(), 50000u);
  EXPECT_EQ(rows[49999][0].int_value(), 49999);
}

TEST(TableTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("table_roundtrip.pages");
  Table table(Schema::DataSet(2));
  for (int i = 0; i < 12345; ++i) {
    table.AppendRowUnchecked(MakeDataRow(i, i * 0.5, -i * 0.25));
  }
  NLQ_ASSERT_OK(table.SaveToFile(path));

  Table loaded(Schema::DataSet(2));
  NLQ_ASSERT_OK(loaded.LoadFromFile(path));
  EXPECT_EQ(loaded.num_rows(), table.num_rows());
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, loaded.ReadAllRows());
  EXPECT_DOUBLE_EQ(rows[100][1].double_value(), 50.0);
  std::remove(path.c_str());
}

TEST(TableTest, ClearResets) {
  Table table(Schema::DataSet(1));
  table.AppendRowUnchecked({Datum::Int64(1), Datum::Double(1)});
  table.Clear();
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_EQ(table.data_bytes(), 0u);
  const std::string path = TempPath("clear_resets.pages");
  NLQ_ASSERT_OK(table.SaveToFile(path));
  EXPECT_EQ(SavedPageCount(path), 0u);
  std::remove(path.c_str());
  BatchScanner scanner = table.ScanBatch();
  RowBatch batch;
  EXPECT_FALSE(scanner.Next(&batch));
}


TEST(TableTest, AppendAcceptsRowsLargerThanASnapshotPage) {
  // A row has no size limit of its own: a 1 MiB VARCHAR value goes
  // through the checked append path, saves, and reloads equal.
  const Schema schema{std::vector<Column>{{"i", DataType::kInt64},
                                          {"s", DataType::kVarchar}}};
  Table table(schema);
  std::string big(size_t{1} << 20, 'a');
  for (size_t k = 0; k < big.size(); k += 4099) {
    big[k] = static_cast<char>('b' + k % 23);
  }
  NLQ_ASSERT_OK(table.AppendRow({Datum::Int64(1), Datum::Varchar(big)}));
  NLQ_ASSERT_OK(table.AppendRow({Datum::Int64(2), Datum::Varchar("")}));
  EXPECT_EQ(table.num_rows(), 2u);
  const std::string path = TempPath("largest_row.pages");
  NLQ_ASSERT_OK(table.SaveToFile(path));
  EXPECT_GT(SavedPageCount(path), 16u);

  Table loaded(schema);
  NLQ_ASSERT_OK(loaded.LoadFromFile(path));
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> before, table.ReadAllRows());
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> after, loaded.ReadAllRows());
  EXPECT_EQ(RowsSignature(after), RowsSignature(before));
  EXPECT_EQ(loaded.data_bytes(), table.data_bytes());
  std::remove(path.c_str());
}

TEST(TableTest, MixedWidthRowsRoundTripThroughDisk) {
  const Schema schema{std::vector<Column>{{"i", DataType::kInt64},
                                          {"s", DataType::kVarchar}}};
  const std::string path = TempPath("mixed_rows.pages");
  Table table(schema);
  Random rng(5);
  std::vector<size_t> lengths;
  for (int i = 0; i < 2000; ++i) {
    const size_t len = rng.NextUint64(300);
    lengths.push_back(len);
    table.AppendRowUnchecked(
        {Datum::Int64(i), Datum::Varchar(std::string(len, 'z'))});
  }
  NLQ_ASSERT_OK(table.SaveToFile(path));
  Table loaded(schema);
  NLQ_ASSERT_OK(loaded.LoadFromFile(path));
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, loaded.ReadAllRows());
  ASSERT_EQ(rows.size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(rows[i][1].string_value().size(), lengths[i]);
  }
  std::remove(path.c_str());
}

TEST(TableTest, EmptyStringAndZeroValuesRoundTrip) {
  const Schema schema{std::vector<Column>{{"v", DataType::kDouble},
                                          {"s", DataType::kVarchar}}};
  Table table(schema);
  table.AppendRowUnchecked({Datum::Double(0.0), Datum::Varchar("")});
  table.AppendRowUnchecked({Datum::Double(-0.0), Datum::Varchar("")});
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, table.ReadAllRows());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0][1].is_null());  // empty string is not NULL
  EXPECT_EQ(rows[0][1].string_value(), "");
  EXPECT_EQ(rows[1][0].double_value(), 0.0);
}

TEST(TableTest, ChunkCursorWalksSpilledChunksThenTheResidentTail) {
  // Two and a half chunks spilled, then a chunk and a quarter appended
  // behind them: a range straddling both halves is served as one window
  // per chunk, in row order, with the spilled rows decoded through the
  // pool and the resident ones read in place.
  BufferPool pool(kPageSize * BufferPool::kMinFrames);
  Table table(Schema::DataSet(1));
  auto row = [](uint64_t i) {
    return Row{Datum::Int64(static_cast<int64_t>(i)),
               Datum::Double(static_cast<double>(i) * 0.5)};
  };
  const uint64_t kSpilled = 2 * kChunkRows + kChunkRows / 2;
  for (uint64_t i = 0; i < kSpilled; ++i) table.AppendRowUnchecked(row(i));
  NLQ_ASSERT_OK(table.SpillToDisk(TempPath("cursor_walk.spill"), &pool));
  ASSERT_NE(table.spill(), nullptr);
  ASSERT_EQ(table.spill()->num_chunks(), 3u);
  const uint64_t kTotal = kSpilled + kChunkRows + kChunkRows / 4;
  for (uint64_t i = kSpilled; i < kTotal; ++i) {
    NLQ_ASSERT_OK(table.AppendRow(row(i)));
  }
  EXPECT_EQ(table.num_rows(), kTotal);
  EXPECT_EQ(table.data_bytes(), kTotal * 16);
  EXPECT_EQ(table.SpillToDisk(TempPath("cursor_walk2.spill"), &pool).code(),
            StatusCode::kNotSupported);

  const uint64_t begin = kChunkRows + 100;
  const uint64_t end = kSpilled + kChunkRows + 7;
  ChunkCursor cursor(&table, {1, 0}, begin, end);
  uint64_t next = begin;
  std::vector<size_t> windows;
  while (cursor.Next(kChunkRows)) {
    for (size_t r = 0; r < cursor.rows(); ++r) {
      ASSERT_EQ(cursor.column(0).doubles[cursor.offset() + r],
                static_cast<double>(next) * 0.5);
      ASSERT_EQ(cursor.column(1).ints[cursor.offset() + r],
                static_cast<int64_t>(next));
      ++next;
    }
    windows.push_back(cursor.rows());
  }
  NLQ_ASSERT_OK(cursor.status());
  EXPECT_EQ(next, end);
  EXPECT_EQ(windows, (std::vector<size_t>{kChunkRows - 100, kChunkRows / 2,
                                          kChunkRows, 7}));
  // Pool pages of the two spilled chunks; the resident full chunk's two
  // columns fill exactly one 64 KB block, its 7-row window one more.
  EXPECT_EQ(cursor.pages_decoded(), table.spill()->chunk(1).pages +
                                        table.spill()->chunk(2).pages + 2);

  // Capped windows never cross a chunk boundary and still tile the range.
  ChunkCursor capped(&table, {0}, begin, end);
  windows.clear();
  next = begin;
  while (capped.Next(1500)) {
    ASSERT_EQ(capped.column(0).ints[capped.offset()],
              static_cast<int64_t>(next));
    next += capped.rows();
    windows.push_back(capped.rows());
  }
  NLQ_ASSERT_OK(capped.status());
  EXPECT_EQ(next, end);
  EXPECT_EQ(windows, (std::vector<size_t>{1500, 1500, kChunkRows - 3100,
                                          1500, kChunkRows / 2 - 1500, 1500,
                                          1500, kChunkRows - 3000, 7}));

  // The row path reads the same rows across the boundary.
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, table.ReadAllRows());
  ASSERT_EQ(rows.size(), kTotal);
  for (uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(rows[i][0].int_value(), static_cast<int64_t>(i));
  }
}

TEST(ColumnVectorTest, AppendGrowsTheBitmapFromTheFirstNull) {
  ColumnVector col;
  col.type = DataType::kInt64;
  for (int i = 0; i < 100; ++i) col.Append(Datum::Int64(i));
  EXPECT_FALSE(col.has_nulls());
  EXPECT_TRUE(col.null_bits.empty());
  col.Append(Datum::Null(DataType::kInt64));
  for (int i = 0; i < 100; ++i) col.Append(Datum::Double(i + 0.75));
  col.Append(Datum::Null(DataType::kInt64));
  ASSERT_EQ(col.size(), 202u);
  EXPECT_EQ(col.null_count, 2u);
  EXPECT_EQ(col.null_bits.size(), NullBitmapWords(202));
  EXPECT_EQ(col.ints[100], 0);  // canonical slot under the null bit
  EXPECT_EQ(col.ints[150], 49);  // DOUBLE truncates to BIGINT
  for (size_t r = 0; r < col.size(); ++r) {
    EXPECT_EQ(NullBitGet(col.null_bits.data(), r), r == 100 || r == 201);
  }
}

// ---------------------------------------------------------------------------
// Snapshot file format
// ---------------------------------------------------------------------------

TEST(TableTest, SnapshotFormatIsPinned) {
  // The chunk-blob snapshot format is an on-disk contract: the same
  // rows must save to the same bytes whatever the in-memory layout.
  // The constant is the FNV-1a hash of this table's file as first
  // written in the chunk format (two chunks: NULLs, NaN, ±0, and empty
  // and NULL strings).
  const Schema schema{std::vector<Column>{{"i", DataType::kInt64},
                                          {"x", DataType::kDouble},
                                          {"s", DataType::kVarchar}}};
  Table table(schema);
  std::vector<Row> written;
  for (int64_t r = 0; r < 6000; ++r) {
    Row row(3);
    row[0] = r % 7 == 3 ? Datum::Null(DataType::kInt64)
                        : Datum::Int64(r * 1000003 - 5);
    switch (r % 5) {
      case 0: row[1] = Datum::Double(0.0); break;
      case 1: row[1] = Datum::Double(-0.0); break;
      case 2: row[1] = Datum::Double(std::numeric_limits<double>::quiet_NaN()); break;
      case 3: row[1] = Datum::Null(DataType::kDouble); break;
      default: row[1] = Datum::Double(static_cast<double>(r) * 0.125 - 7.5);
    }
    row[2] = r % 11 == 0
                 ? Datum::Null(DataType::kVarchar)
                 : Datum::Varchar(std::string(r % 23, static_cast<char>('a' + r % 26)));
    NLQ_ASSERT_OK(table.AppendRow(row));
    written.push_back(std::move(row));
  }
  const std::string path = TempPath("snapshot_pinned.pages");
  NLQ_ASSERT_OK(table.SaveToFile(path));
  EXPECT_GE(SavedPageCount(path), 3u);
  EXPECT_EQ(FileHash(path), 0xe6dbcb3a99c06a02ull) << std::hex << FileHash(path);

  Table loaded(schema);
  NLQ_ASSERT_OK(loaded.LoadFromFile(path));
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, loaded.ReadAllRows());
  EXPECT_EQ(RowsSignature(rows), RowsSignature(written));
  std::remove(path.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Row `r` of the AppendColumns test table: an id, a DOUBLE that is
/// NULL on every 97th row when `nulls` is set, and a string.
Row AppendTestRow(uint64_t r, bool nulls) {
  return {Datum::Int64(static_cast<int64_t>(r)),
          nulls && r % 97 == 13 ? Datum::Null(DataType::kDouble)
                                : Datum::Double(static_cast<double>(r) / 8),
          Datum::Varchar(std::string(r % 5, 'v'))};
}

TEST(TableTest, AppendColumnsCutsChunksLikeRowAppends) {
  // AppendColumns must leave a partition exactly as appending the same
  // rows one at a time does: same rows, same chunk cuts (the open tail
  // topped up to kChunkRows first, a spilled table's short last chunk
  // followed by full resident ones), same data_bytes, same saved bytes,
  // and a null bitmap covering every row of any chunk holding a NULL.
  const Schema schema{std::vector<Column>{{"i", DataType::kInt64},
                                          {"x", DataType::kDouble},
                                          {"s", DataType::kVarchar}}};
  BufferPool pool(kPageSize * BufferPool::kMinFrames);
  enum class Start { kEmpty, kPartialTail, kSpilledShortChunk };
  const size_t kCounts[] = {0,          1,          kChunkRows - 1,
                            kChunkRows, kChunkRows + 1, 3 * kChunkRows + 5};
  int file = 0;
  for (const Start start :
       {Start::kEmpty, Start::kPartialTail, Start::kSpilledShortChunk}) {
    const uint64_t before = start == Start::kEmpty         ? 0
                            : start == Start::kPartialTail ? 100
                                                           : kChunkRows + 300;
    for (const size_t count : kCounts) {
      for (const bool nulls : {false, true}) {
        SCOPED_TRACE(StringPrintf("start=%d count=%zu nulls=%d",
                                  static_cast<int>(start), count, nulls));
        Table by_rows(schema);
        Table by_columns(schema);
        for (Table* t : {&by_rows, &by_columns}) {
          // The rows before hold NULLs, so a partial tail's bitmap must
          // also cover the rows appended behind it.
          for (uint64_t r = 0; r < before; ++r) {
            t->AppendRowUnchecked(AppendTestRow(r, /*nulls=*/true));
          }
          if (start == Start::kSpilledShortChunk) {
            NLQ_ASSERT_OK(t->SpillToDisk(
                TempPath(StringPrintf("append_columns_%d.spill", file++)),
                &pool));
          }
        }
        std::vector<ColumnVector> columns(schema.num_columns());
        for (size_t c = 0; c < columns.size(); ++c) {
          columns[c].type = schema.column(c).type;
        }
        for (uint64_t r = before; r < before + count; ++r) {
          const Row row = AppendTestRow(r, nulls);
          by_rows.AppendRowUnchecked(row);
          for (size_t c = 0; c < columns.size(); ++c) columns[c].Append(row[c]);
        }
        by_columns.AppendColumns(std::move(columns));

        EXPECT_EQ(by_columns.num_rows(), before + count);
        EXPECT_EQ(by_columns.num_rows(), by_rows.num_rows());
        EXPECT_EQ(by_columns.data_bytes(), by_rows.data_bytes());
        // Chunk windows over the whole table: spilled chunks first, then
        // kChunkRows-row resident chunks and a shorter last one.
        std::vector<size_t> want_chunks;
        uint64_t resident = before + count;
        if (start == Start::kSpilledShortChunk) {
          want_chunks = {kChunkRows, 300};
          resident -= before;
        }
        for (uint64_t left = resident; left > 0;) {
          want_chunks.push_back(std::min<uint64_t>(left, kChunkRows));
          left -= want_chunks.back();
        }
        ChunkCursor cursor(&by_columns, {0, 1, 2}, 0, by_columns.num_rows());
        std::vector<size_t> chunks;
        while (cursor.Next(kChunkRows)) {
          chunks.push_back(cursor.rows());
          for (size_t c = 0; c < cursor.num_columns(); ++c) {
            const ColumnVector& col = cursor.column(c);
            EXPECT_EQ(col.size(), cursor.rows());
            if (!col.has_nulls()) continue;
            EXPECT_EQ(col.null_bits.size(), NullBitmapWords(col.size()));
            uint64_t set = 0;
            for (const uint64_t w : col.null_bits) set += __builtin_popcountll(w);
            EXPECT_EQ(set, col.null_count);
          }
        }
        NLQ_ASSERT_OK(cursor.status());
        EXPECT_EQ(chunks, want_chunks);

        const std::string rows_path = TempPath("append_columns_rows.pages");
        const std::string columns_path = TempPath("append_columns_cols.pages");
        NLQ_ASSERT_OK(by_rows.SaveToFile(rows_path));
        NLQ_ASSERT_OK(by_columns.SaveToFile(columns_path));
        EXPECT_TRUE(ReadFileBytes(rows_path) == ReadFileBytes(columns_path));
        NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> a, by_rows.ReadAllRows());
        NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> b, by_columns.ReadAllRows());
        EXPECT_EQ(RowsSignature(a), RowsSignature(b));
        std::remove(rows_path.c_str());
        std::remove(columns_path.c_str());
      }
    }
  }
}

TEST(TableTest, CorruptSnapshotSweepFailsCleanly) {
  // Every truncation of a 3-chunk snapshot file at a page boundary or
  // mid-page, and every mutation of a chunk header field or of a
  // block's type or row count, fails the load with kCorruption naming
  // the file — except a cut on a chunk boundary, which loads a strict
  // prefix of the rows (the manifest's row count rejects it one level
  // up). The sanitizer CI jobs run this, so none may crash either.
  const Schema schema{std::vector<Column>{{"i", DataType::kInt64},
                                          {"x", DataType::kDouble},
                                          {"s", DataType::kVarchar}}};
  Table table(schema);
  Random rng(17);
  const uint64_t kRows = 2 * kChunkRows + 1000;
  for (uint64_t r = 0; r < kRows; ++r) {
    table.AppendRowUnchecked(
        {Datum::Int64(static_cast<int64_t>(rng.NextUint64(1u << 30))),
         Datum::Double(rng.NextDouble()),
         r % 13 == 0 ? Datum::Null(DataType::kVarchar)
                     : Datum::Varchar(std::string(
                           r % 41, static_cast<char>('a' + r % 26)))});
  }
  const std::string path = TempPath("corrupt_sweep.pages");
  NLQ_ASSERT_OK(table.SaveToFile(path));
  const std::string image = ReadFileBytes(path);
  std::remove(path.c_str());
  ASSERT_EQ(image.size() % kPageSize, 0u);
  NLQ_ASSERT_OK_AND_ASSIGN(const std::vector<Row> written, table.ReadAllRows());

  // Where each chunk and each of its blocks starts, read off the file:
  // a chunk is a 16-byte header [u32 magic][u32 rows][u32 cols]
  // [u32 pages], then one column block per column, padded to pages.
  auto u32_at = [&](size_t at) {
    uint32_t v;
    std::memcpy(&v, image.data() + at, 4);
    return v;
  };
  struct ChunkAt {
    size_t offset;
    uint32_t rows;
    std::vector<size_t> blocks;
  };
  std::vector<ChunkAt> chunks;
  for (size_t off = 0; off < image.size();) {
    ChunkAt at{off, u32_at(off + 4), {}};
    ASSERT_EQ(u32_at(off + 8), schema.num_columns());
    ASSERT_GT(u32_at(off + 12), 0u);
    size_t pos = off + 16;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      at.blocks.push_back(pos);
      size_t payload = pos;
      NLQ_ASSERT_OK_AND_ASSIGN(
          const ColumnBlockHeader block,
          PeekColumnBlockHeader(image.data(), image.size(), &payload));
      ASSERT_EQ(block.rows, at.rows);
      pos += ColumnBlockBytes(block);
    }
    chunks.push_back(at);
    off += static_cast<size_t>(u32_at(off + 12)) * kPageSize;
  }
  ASSERT_EQ(chunks.size(), 3u);
  const size_t pages = image.size() / kPageSize;
  ASSERT_GT(pages, chunks.size()) << "no chunk spans several pages";

  const std::string probe = TempPath("corrupt_sweep_probe.pages");
  auto load = [&](const std::string& bytes, std::vector<Row>* rows) {
    WriteFileBytes(probe, bytes);
    Table loaded(schema);
    const Status s = loaded.LoadFromFile(probe);
    if (!s.ok()) {
      EXPECT_EQ(loaded.num_rows(), 0u);
      return s;
    }
    auto all = loaded.ReadAllRows();
    EXPECT_TRUE(all.ok()) << all.status().ToString();
    if (all.ok()) *rows = std::move(*all);
    return s;
  };
  auto expect_corruption = [&](const Status& s, const std::string& what) {
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << what << ": "
                                                 << s.ToString();
    EXPECT_NE(s.message().find(probe), std::string::npos) << what;
  };

  for (size_t page = 0; page < pages; ++page) {
    for (const size_t cut : {page * kPageSize, page * kPageSize + 1,
                             page * kPageSize + kPageSize / 2}) {
      const std::string what = "cut at " + std::to_string(cut);
      std::vector<Row> rows;
      const Status s = load(image.substr(0, cut), &rows);
      size_t prefix = 0;
      bool on_boundary = false;
      for (const ChunkAt& ck : chunks) {
        if (ck.offset == cut) {
          on_boundary = true;
          break;
        }
        prefix += ck.rows;
      }
      if (!on_boundary) {
        expect_corruption(s, what);
        continue;
      }
      NLQ_ASSERT_OK(s);
      ASSERT_LT(rows.size(), written.size()) << what;
      EXPECT_EQ(RowsSignature(rows),
                RowsSignature(std::vector<Row>(written.begin(),
                                               written.begin() + prefix)))
          << what;
    }
  }

  // Overwrites the `width` low bytes at `at` with `value`, if that
  // changes them, and expects the load to fail.
  auto mutate = [&](size_t at, uint32_t value, size_t width,
                    const std::string& what) {
    std::string bytes = image;
    if (std::memcmp(bytes.data() + at, &value, width) == 0) return;
    std::memcpy(bytes.data() + at, &value, width);
    std::vector<Row> rows;
    expect_corruption(load(bytes, &rows), what + " = " + std::to_string(value));
  };
  const char* kFields[] = {"magic", "rows", "cols", "pages"};
  for (size_t k = 0; k < chunks.size(); ++k) {
    const std::string chunk = "chunk " + std::to_string(k);
    for (size_t f = 0; f < 4; ++f) {
      const size_t at = chunks[k].offset + 4 * f;
      const uint32_t v = u32_at(at);
      for (const uint32_t value : {v + 1, v - 1, 0u, UINT32_MAX}) {
        mutate(at, value, 4, chunk + " " + kFields[f]);
      }
    }
    for (size_t b = 0; b < chunks[k].blocks.size(); ++b) {
      const std::string block = chunk + " block " + std::to_string(b);
      const size_t at = chunks[k].blocks[b];
      for (const uint32_t type : {0u, 1u, 2u, 9u}) {
        mutate(at + 5, type, 1, block + " type");
      }
      const uint32_t rows = u32_at(at + 8);
      for (const uint32_t value : {rows + 1, rows - 1, 0u, UINT32_MAX}) {
        mutate(at + 8, value, 4, block + " rows");
      }
    }
  }
  std::remove(probe.c_str());
}

// ---------------------------------------------------------------------------
// PartitionedTable
// ---------------------------------------------------------------------------

class PartitionedTableTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PartitionedTableTest, PreservesAllRows) {
  const size_t parts = GetParam();
  PartitionedTable table(Schema::DataSet(2), parts);
  EXPECT_EQ(table.num_partitions(), std::max<size_t>(parts, 1));
  for (int i = 1; i <= 1000; ++i) {
    table.AppendRowUnchecked(MakeDataRow(i, i * 1.0, 0.0));
  }
  EXPECT_EQ(table.num_rows(), 1000u);
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, table.ReadAllRows());
  std::set<int64_t> ids;
  for (const auto& r : rows) ids.insert(r[0].int_value());
  EXPECT_EQ(ids.size(), 1000u);
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), 1000);
}

TEST_P(PartitionedTableTest, BalancedDistribution) {
  const size_t parts = GetParam();
  if (parts < 2) GTEST_SKIP();
  PartitionedTable table(Schema::DataSet(1), parts);
  const int n = 10000;
  for (int i = 1; i <= n; ++i) {
    table.AppendRowUnchecked({Datum::Int64(i), Datum::Double(0)});
  }
  const double expected = static_cast<double>(n) / parts;
  for (size_t p = 0; p < parts; ++p) {
    EXPECT_GT(table.partition(p).num_rows(), expected * 0.7);
    EXPECT_LT(table.partition(p).num_rows(), expected * 1.3);
  }
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionedTableTest,
                         ::testing::Values(1, 2, 4, 8, 20));

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog(4);
  NLQ_ASSERT_OK_AND_ASSIGN(PartitionedTable * t,
                           catalog.CreateTable("X", Schema::DataSet(2)));
  EXPECT_EQ(t->num_partitions(), 4u);
  NLQ_ASSERT_OK_AND_ASSIGN(PartitionedTable * same, catalog.GetTable("x"));
  EXPECT_EQ(t, same);
  EXPECT_FALSE(catalog.CreateTable("x", Schema::DataSet(2)).ok());
  NLQ_ASSERT_OK(catalog.DropTable("X"));
  EXPECT_FALSE(catalog.GetTable("X").ok());
  EXPECT_FALSE(catalog.DropTable("X").ok());
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  NLQ_ASSERT_OK(catalog.CreateTable("zeta", Schema::DataSet(1)).status());
  NLQ_ASSERT_OK(catalog.CreateTable("Alpha", Schema::DataSet(1)).status());
  const auto names = catalog.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

}  // namespace
}  // namespace nlq::storage
