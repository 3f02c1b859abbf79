#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <set>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/column_vector.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/partitioned_table.h"
#include "storage/row_codec.h"
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
// Row codec
// ---------------------------------------------------------------------------

struct CodecCase {
  Row row;
  std::string label;
};

class RowCodecTest : public ::testing::Test {
 protected:
  Schema schema_{std::vector<Column>{{"a", DataType::kInt64},
                                     {"b", DataType::kDouble},
                                     {"c", DataType::kVarchar}}};
};

TEST_F(RowCodecTest, RoundTripsAllTypes) {
  RowCodec codec(&schema_);
  const Row row{Datum::Int64(-5), Datum::Double(3.25), Datum::Varchar("hey")};
  std::string buf;
  codec.Encode(row, &buf);
  EXPECT_EQ(buf.size(), codec.EncodedSize(row));
  size_t offset = 0;
  Row decoded;
  NLQ_ASSERT_OK(codec.Decode(buf.data(), buf.size(), &offset, &decoded));
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(decoded[0].int_value(), -5);
  EXPECT_DOUBLE_EQ(decoded[1].double_value(), 3.25);
  EXPECT_EQ(decoded[2].string_value(), "hey");
}

TEST_F(RowCodecTest, RoundTripsNulls) {
  RowCodec codec(&schema_);
  const Row row{Datum::Null(DataType::kInt64), Datum::Null(DataType::kDouble),
                Datum::Null(DataType::kVarchar)};
  std::string buf;
  codec.Encode(row, &buf);
  size_t offset = 0;
  Row decoded;
  NLQ_ASSERT_OK(codec.Decode(buf.data(), buf.size(), &offset, &decoded));
  for (const auto& d : decoded) EXPECT_TRUE(d.is_null());
}

TEST_F(RowCodecTest, SequentialDecodeOfMultipleRows) {
  RowCodec codec(&schema_);
  std::string buf;
  for (int i = 0; i < 10; ++i) {
    codec.Encode({Datum::Int64(i), Datum::Double(i * 0.5),
                  Datum::Varchar(std::string(i, 'x'))},
                 &buf);
  }
  size_t offset = 0;
  for (int i = 0; i < 10; ++i) {
    Row decoded;
    NLQ_ASSERT_OK(codec.Decode(buf.data(), buf.size(), &offset, &decoded));
    EXPECT_EQ(decoded[0].int_value(), i);
    EXPECT_EQ(decoded[2].string_value().size(), static_cast<size_t>(i));
  }
  EXPECT_EQ(offset, buf.size());
}

TEST_F(RowCodecTest, DetectsTruncation) {
  RowCodec codec(&schema_);
  std::string buf;
  codec.Encode({Datum::Int64(1), Datum::Double(2), Datum::Varchar("abc")},
               &buf);
  size_t offset = 0;
  Row decoded;
  EXPECT_FALSE(codec.Decode(buf.data(), buf.size() - 2, &offset, &decoded).ok());
}

// ---------------------------------------------------------------------------
// Page
// ---------------------------------------------------------------------------

TEST(PageTest, StartsEmpty) {
  Page page;
  EXPECT_EQ(page.row_count(), 0u);
  EXPECT_EQ(page.payload_size(), 0u);
  EXPECT_EQ(page.free_bytes(), kPageSize - Page::kHeaderSize);
}

TEST(PageTest, AppendTracksUsage) {
  Page page;
  const char data[16] = {0};
  page.AppendEncodedRow(data, sizeof(data));
  page.AppendEncodedRow(data, sizeof(data));
  EXPECT_EQ(page.row_count(), 2u);
  EXPECT_EQ(page.payload_size(), 32u);
}

TEST(PageTest, FitsRespectsCapacity) {
  Page page;
  EXPECT_TRUE(page.Fits(page.free_bytes()));
  EXPECT_FALSE(page.Fits(page.free_bytes() + 1));
}

// ---------------------------------------------------------------------------
// DiskManager
// ---------------------------------------------------------------------------

TEST(DiskManagerTest, PageRoundTrip) {
  const std::string path = TempPath("dm_roundtrip.pages");
  DiskManager dm;
  NLQ_ASSERT_OK(dm.Open(path, /*truncate=*/true));
  Page out;
  const char data[] = "hello page";
  out.AppendEncodedRow(data, sizeof(data));
  NLQ_ASSERT_OK(dm.WritePage(0, out));
  NLQ_ASSERT_OK(dm.WritePage(3, out));  // sparse write
  NLQ_ASSERT_OK_AND_ASSIGN(uint64_t count, dm.PageCount());
  EXPECT_EQ(count, 4u);
  Page in;
  NLQ_ASSERT_OK(dm.ReadPage(0, &in));
  EXPECT_EQ(in.row_count(), 1u);
  EXPECT_EQ(std::string(in.payload(), sizeof(data)), std::string(data, sizeof(data)));
  std::remove(path.c_str());
}

TEST(DiskManagerTest, ReadBeyondEofFails) {
  const std::string path = TempPath("dm_eof.pages");
  DiskManager dm;
  NLQ_ASSERT_OK(dm.Open(path, /*truncate=*/true));
  Page page;
  EXPECT_FALSE(dm.ReadPage(0, &page).ok());
  std::remove(path.c_str());
}

TEST(DiskManagerTest, NotOpenErrors) {
  DiskManager dm;
  Page page;
  EXPECT_FALSE(dm.WritePage(0, page).ok());
  EXPECT_FALSE(dm.ReadPage(0, &page).ok());
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
  // Rows of ~25 bytes; tens of thousands force multiple 64 KB snapshot
  // pages (and span many column chunks in memory).
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


TEST(TableTest, RowExactlyFillingPageBoundary) {
  // A VARCHAR row sized so that two rows exactly fill a snapshot page
  // payload: the third saved row must open a new page, and scans and
  // a reload must see all rows.
  const Schema schema{std::vector<Column>{{"s", DataType::kVarchar}}};
  const size_t payload = kPageSize - Page::kHeaderSize;
  // Row cost = 1 null byte + 4 length bytes + string size.
  const size_t row_size = payload / 2;
  const size_t string_size = row_size - 5;
  Table table(schema);
  for (int i = 0; i < 5; ++i) {
    table.AppendRowUnchecked({Datum::Varchar(std::string(string_size, 'x'))});
  }
  EXPECT_EQ(table.num_rows(), 5u);
  const std::string path = TempPath("exact_page_fill.pages");
  NLQ_ASSERT_OK(table.SaveToFile(path));
  EXPECT_EQ(SavedPageCount(path), 3u);  // 2 + 2 + 1
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, table.ReadAllRows());
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[4][0].string_value().size(), string_size);
  Table loaded(schema);
  NLQ_ASSERT_OK(loaded.LoadFromFile(path));
  EXPECT_EQ(loaded.num_rows(), 5u);
  std::remove(path.c_str());
}

TEST(TableTest, MaximalSingleRowPerPage) {
  // One row just over half a snapshot page forces one page per row.
  const Schema schema{std::vector<Column>{{"s", DataType::kVarchar}}};
  const size_t payload = kPageSize - Page::kHeaderSize;
  const size_t string_size = payload / 2 + 100;
  Table table(schema);
  for (int i = 0; i < 4; ++i) {
    table.AppendRowUnchecked({Datum::Varchar(std::string(string_size, 'y'))});
  }
  const std::string path = TempPath("single_row_pages.pages");
  NLQ_ASSERT_OK(table.SaveToFile(path));
  EXPECT_EQ(SavedPageCount(path), 4u);
  std::remove(path.c_str());
}

TEST(TableTest, AppendRejectsRowsLargerThanASnapshotPage) {
  // A row that fills a whole snapshot page payload is accepted and
  // saves; one byte more is rejected upfront, leaving the table
  // unchanged and savable.
  const Schema schema{std::vector<Column>{{"s", DataType::kVarchar}}};
  const size_t payload = kPageSize - Page::kHeaderSize;
  Table table(schema);
  // Row cost = 1 null byte + 4 length bytes + string size.
  const std::string fits(payload - 5, 'a');
  NLQ_ASSERT_OK(table.AppendRow({Datum::Varchar(fits)}));
  EXPECT_EQ(table.AppendRow({Datum::Varchar(fits + "b")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 1u);
  const std::string path = TempPath("largest_row.pages");
  NLQ_ASSERT_OK(table.SaveToFile(path));
  EXPECT_EQ(SavedPageCount(path), 1u);

  // The trusted bulk path skips the check; saving such a table fails
  // and removes the partial file instead of leaving a shorter table.
  table.AppendRowUnchecked({Datum::Varchar(std::string(payload, 'c'))});
  EXPECT_EQ(table.SaveToFile(path).code(), StatusCode::kInvalidArgument);
  Table loaded(schema);
  EXPECT_EQ(loaded.LoadFromFile(path).code(), StatusCode::kNotFound);
  EXPECT_EQ(loaded.num_rows(), 0u);
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
  // The row-page snapshot format is an on-disk contract: the same rows
  // must save to the same bytes whatever the in-memory layout. The
  // constant is the FNV-1a hash of this table's file as first written.
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
  EXPECT_EQ(FileHash(path), 0x3af7f99224354a49ull) << std::hex << FileHash(path);

  Table loaded(schema);
  NLQ_ASSERT_OK(loaded.LoadFromFile(path));
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, loaded.ReadAllRows());
  EXPECT_EQ(RowsSignature(rows), RowsSignature(written));
  std::remove(path.c_str());
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
