// Tests for morsel-driven parallel execution: the fixed morsel grid,
// the range scanners that realize it, the work-claiming scheduler, and
// the headline determinism guarantee — query results are bit-identical
// across thread counts and runs, because per-morsel partial states are
// folded in morsel-index order (a function of the data layout only,
// never of scheduling).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/threadpool.h"
#include "engine/database.h"
#include "engine/exec/morsel.h"
#include "stats/scoring.h"
#include "storage/partitioned_table.h"
#include "tests/test_util.h"

namespace nlq::engine {
namespace {

using exec::BuildMorselGrid;
using exec::Morsel;
using storage::DataType;
using storage::Datum;
using storage::PartitionedTable;
using storage::Row;
using storage::Schema;

// ---------------------------------------------------------------------------
// Morsel grid
// ---------------------------------------------------------------------------

std::unique_ptr<PartitionedTable> MakePartitions(
    const std::vector<uint64_t>& rows_per_partition) {
  auto table = std::make_unique<PartitionedTable>(
      Schema{{{"i", DataType::kInt64}}}, rows_per_partition.size());
  for (size_t p = 0; p < rows_per_partition.size(); ++p) {
    for (uint64_t r = 0; r < rows_per_partition[p]; ++r) {
      EXPECT_TRUE(
          table->AppendRowToPartition(p, {Datum::Int64(static_cast<int64_t>(r))})
              .ok());
    }
  }
  return table;
}

TEST(MorselGridTest, EmptyTableYieldsOneEmptyMorsel) {
  auto table = MakePartitions({0, 0, 0});
  const std::vector<Morsel> grid = BuildMorselGrid(*table, 1024);
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0].rows(), 0u);
}

TEST(MorselGridTest, SplitsByOffsetOnly) {
  auto table = MakePartitions({2500, 0, 1024, 1});
  const std::vector<Morsel> grid = BuildMorselGrid(*table, 1024);
  // Partition 0: [0,1024) [1024,2048) [2048,2500); partition 1 empty
  // (no morsel); partition 2: one exact morsel; partition 3: one row.
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_EQ(grid[0].partition, 0u);
  EXPECT_EQ(grid[0].begin, 0u);
  EXPECT_EQ(grid[0].end, 1024u);
  EXPECT_EQ(grid[2].begin, 2048u);
  EXPECT_EQ(grid[2].end, 2500u);
  EXPECT_EQ(grid[3].partition, 2u);
  EXPECT_EQ(grid[3].rows(), 1024u);
  EXPECT_EQ(grid[4].partition, 3u);
  EXPECT_EQ(grid[4].rows(), 1u);
}

TEST(MorselGridTest, ZeroMorselRowsIsPartitionGranular) {
  auto table = MakePartitions({100000, 5, 0});
  const std::vector<Morsel> grid = BuildMorselGrid(*table, 0);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].rows(), 100000u);
  EXPECT_EQ(grid[1].rows(), 5u);
}

// ---------------------------------------------------------------------------
// Range scanners: morsels partition the row space exactly
// ---------------------------------------------------------------------------

TEST(MorselRangeScanTest, RowAndColumnRangesTileTheTable) {
  // A VARCHAR column rides along in its string lane for the row path.
  storage::Table table(Schema{{{"i", DataType::kInt64},
                               {"s", DataType::kVarchar},
                               {"x", DataType::kDouble}}});
  const size_t kRows = 9000;  // spans three column chunks
  for (size_t r = 0; r < kRows; ++r) {
    NLQ_ASSERT_OK(table.AppendRow(
        {Datum::Int64(static_cast<int64_t>(r)),
         Datum::Varchar(std::string(r % 17, 'x')),
         Datum::Double(static_cast<double>(r) * 0.25)}));
  }
  // Odd-sized, misaligned morsels start mid-chunk and cross chunk
  // boundaries.
  for (const uint64_t morsel : {1ull, 7ull, 64ull, 1000ull, 5000ull}) {
    int64_t sum_i = 0;
    double sum_x = 0.0;
    uint64_t seen = 0;
    for (uint64_t begin = 0; begin < kRows; begin += morsel) {
      const uint64_t end = std::min<uint64_t>(begin + morsel, kRows);
      // Row path.
      storage::BatchScanner scanner = table.ScanBatchRange(begin, end);
      storage::RowBatch batch(256);
      uint64_t expect_i = begin;
      while (scanner.Next(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          ASSERT_EQ(batch.row(i)[0].int_value(),
                    static_cast<int64_t>(expect_i++));
          sum_i += batch.row(i)[0].int_value();
          ++seen;
        }
      }
      NLQ_ASSERT_OK(scanner.status());
      ASSERT_EQ(expect_i, end) << "begin=" << begin << " morsel=" << morsel;
      // Chunk cursor over the same range (the columnar readers' view),
      // in windows smaller than a chunk.
      storage::ChunkCursor cursor(&table, {0, 2}, begin, end);
      uint64_t crows = 0;
      while (cursor.Next(1000)) {
        for (size_t i = 0; i < cursor.rows(); ++i) {
          sum_x += cursor.column(1).double_data()[cursor.offset() + i];
        }
        crows += cursor.rows();
      }
      NLQ_ASSERT_OK(cursor.status());
      ASSERT_EQ(crows, end - begin);
    }
    EXPECT_EQ(seen, kRows);
    EXPECT_EQ(sum_i, static_cast<int64_t>(kRows * (kRows - 1) / 2));
    EXPECT_EQ(sum_x, 0.25 * static_cast<double>(kRows) *
                         static_cast<double>(kRows - 1) / 2.0);
  }
  // Past-the-end and empty ranges are empty, not errors.
  storage::RowBatch batch(16);
  storage::BatchScanner past = table.ScanBatchRange(kRows + 5, kRows + 9);
  EXPECT_FALSE(past.Next(&batch));
  NLQ_ASSERT_OK(past.status());
  storage::BatchScanner empty = table.ScanBatchRange(10, 10);
  EXPECT_FALSE(empty.Next(&batch));
  NLQ_ASSERT_OK(empty.status());
}

// ---------------------------------------------------------------------------
// Scheduler: ParallelForMorsels
// ---------------------------------------------------------------------------

TEST(ParallelForMorselsTest, RunsEveryIndexOnceWithValidWorkerIds) {
  ThreadPool pool(3);
  ASSERT_EQ(pool.num_workers(), 4u);
  std::vector<std::atomic<int>> hits(257);
  std::atomic<bool> bad_worker{false};
  NLQ_ASSERT_OK(pool.ParallelForMorsels(257, [&](size_t worker, size_t i) {
    if (worker >= pool.num_workers()) bad_worker = true;
    hits[i]++;
    return Status::OK();
  }));
  EXPECT_FALSE(bad_worker);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForMorselsTest, SingleIndexRunsInlineOnCaller) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  size_t seen_worker = 99;
  std::thread::id seen_thread;
  NLQ_ASSERT_OK(pool.ParallelForMorsels(1, [&](size_t worker, size_t i) {
    seen_worker = worker;
    seen_thread = std::this_thread::get_id();
    EXPECT_EQ(i, 0u);
    return Status::OK();
  }));
  EXPECT_EQ(seen_worker, 0u);
  EXPECT_EQ(seen_thread, caller);
}

TEST(ParallelForMorselsTest, AllWorkersContributeUnderSkew) {
  // Each morsel sleeps, so even on a single-core machine every worker
  // thread gets scheduled and claims work from the shared queue — the
  // property that lets morsel parallelism beat partition parallelism
  // on skewed layouts.
  ThreadPool pool(3);
  std::mutex mu;
  std::set<size_t> workers;
  NLQ_ASSERT_OK(pool.ParallelForMorsels(64, [&](size_t worker, size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lock(mu);
    workers.insert(worker);
    return Status::OK();
  }));
  EXPECT_EQ(workers.size(), pool.num_workers())
      << "a worker never claimed a morsel";
}

TEST(ParallelForMorselsTest, SequentialBatchesReuseThePool) {
  ThreadPool pool(2);
  std::atomic<size_t> counter{0};
  for (int round = 0; round < 50; ++round) {
    NLQ_ASSERT_OK(pool.ParallelForMorsels(20, [&](size_t, size_t) {
      counter++;
      return Status::OK();
    }));
  }
  EXPECT_EQ(counter.load(), 1000u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: bit-identical n,L,Q across thread counts,
// morsel sizes, partition counts and row counts
// ---------------------------------------------------------------------------

/// Exact result signature: doubles by bit pattern (see
/// columnar_equivalence_test.cc for the rationale).
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
          out +=
              StringPrintf("d:%016llx,", static_cast<unsigned long long>(bits));
          break;
        }
        case DataType::kInt64:
          out += StringPrintf("i:%lld,", static_cast<long long>(v.int_value()));
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

/// Deterministic dyadic-rational cells (exact in double).
double ValueAt(size_t row, size_t col) {
  const int64_t k = static_cast<int64_t>((row * 37 + col * 11) % 41) - 20;
  const int64_t m = static_cast<int64_t>((row * 13 + col * 7) % 128);
  return static_cast<double>(k) + static_cast<double>(m) / 128.0;
}

std::unique_ptr<Database> MakeDb(size_t partitions, size_t threads,
                                 uint64_t morsel_rows) {
  DatabaseOptions options;
  options.num_partitions = partitions;
  options.num_threads = threads;
  options.morsel_rows = morsel_rows;
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(stats::RegisterAllStatsUdfs(&db->udfs()).ok());
  return db;
}

/// Bulk-fills X(i, x1..x3) through the catalog (no SQL round trip).
void FillPoints(Database* db, size_t n) {
  auto table = db->catalog().CreateTable(
      "X", Schema{{{"i", DataType::kInt64},
                   {"x1", DataType::kDouble},
                   {"x2", DataType::kDouble},
                   {"x3", DataType::kDouble}}});
  NLQ_ASSERT_OK(table.status());
  for (size_t r = 0; r < n; ++r) {
    NLQ_ASSERT_OK(table.value()->AppendRow({Datum::Int64(static_cast<int64_t>(r)),
                                            Datum::Double(ValueAt(r, 0)),
                                            Datum::Double(ValueAt(r, 1)),
                                            Datum::Double(ValueAt(r, 2))}));
  }
}

/// All three matrix kinds plus SQL builtins, columnar path and forced
/// interpreted row path, in one signature.
std::string QuerySignature(Database* db) {
  std::string sig;
  for (const char* kind : {"diag", "triang", "full"}) {
    for (const bool interpreted : {false, true}) {
      QueryOptions options;
      options.force_interpreted = interpreted;
      auto result = db->Execute(
          StringPrintf("SELECT nlq_list('%s', x1, x2, x3), count(*), "
                       "sum(x1), avg(x2) FROM X",
                       kind),
          options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) sig += ExactSignature(*result);
    }
  }
  return sig;
}

TEST(MorselDeterminismTest, BitIdenticalAcrossThreadCounts) {
  const size_t kPartitions[] = {1, 2, 7};
  const size_t kRows[] = {0, 1, 1023, 1024, 1025};
  const uint64_t kMorselRows[] = {1, 1024, 16384};
  const size_t kThreads[] = {1, 2, 3, 8};
  for (const size_t parts : kPartitions) {
    for (const size_t n : kRows) {
      for (const uint64_t morsel : kMorselRows) {
        // Morsel 1 with the full matrix is quadratic in n; the small
        // row counts cover it, the page-boundary ones use larger
        // morsels.
        if (morsel == 1 && n > 64) continue;
        std::string reference;
        for (const size_t threads : kThreads) {
          auto db = MakeDb(parts, threads, morsel);
          FillPoints(db.get(), n);
          const std::string sig = QuerySignature(db.get());
          if (reference.empty()) {
            reference = sig;
          } else {
            EXPECT_EQ(sig, reference)
                << "partitions=" << parts << " n=" << n << " morsel=" << morsel
                << " threads=" << threads;
          }
          // A rescan (cache-warm) must also not move a bit.
          EXPECT_EQ(QuerySignature(db.get()), reference);
        }
      }
    }
  }
}

TEST(MorselDeterminismTest, LargeTableManyMorselsStaysBitIdentical) {
  const size_t kN = 100000;
  std::string reference;
  for (const size_t threads : {1, 8}) {
    auto db = MakeDb(/*partitions=*/4, threads, /*morsel_rows=*/1024);
    FillPoints(db.get(), kN);
    auto result =
        db->Execute("SELECT nlq_list('triang', x1, x2, x3), sum(x1) FROM X");
    NLQ_ASSERT_OK(result.status());
    const std::string sig = ExactSignature(*result);
    if (reference.empty()) {
      reference = sig;
    } else {
      EXPECT_EQ(sig, reference) << "threads=" << threads;
    }
  }
}

TEST(MorselDeterminismTest, SkewedPartitioningFansOutAndStaysDeterministic) {
  // One partition holds 90% of the rows; under partition-granular
  // parallelism a single worker would own it. The morsel grid must
  // split it into many claimable units, and results must stay
  // bit-identical across thread counts.
  const size_t kN = 20000;
  const uint64_t kMorsel = 1024;
  std::string reference;
  for (const size_t threads : {1, 2, 8}) {
    auto db = MakeDb(/*partitions=*/4, threads, kMorsel);
    auto created = db->catalog().CreateTable(
        "X", Schema{{{"i", DataType::kInt64},
                     {"x1", DataType::kDouble},
                     {"x2", DataType::kDouble},
                     {"x3", DataType::kDouble}}});
    NLQ_ASSERT_OK(created.status());
    PartitionedTable* table = created.value();
    for (size_t r = 0; r < kN; ++r) {
      // 90% of rows to partition 0, the rest round-robin over 1..3.
      const size_t p = (r % 10 != 0) ? 0 : 1 + (r / 10) % 3;
      NLQ_ASSERT_OK(table->AppendRowToPartition(
          p, {Datum::Int64(static_cast<int64_t>(r)),
              Datum::Double(ValueAt(r, 0)), Datum::Double(ValueAt(r, 1)),
              Datum::Double(ValueAt(r, 2))}));
    }
    // The skewed partition fans out: far more morsels than partitions.
    const std::vector<Morsel> grid = BuildMorselGrid(*table, kMorsel);
    EXPECT_GE(grid.size(), 18u);
    size_t p0_morsels = 0;
    for (const Morsel& m : grid) p0_morsels += m.partition == 0 ? 1 : 0;
    EXPECT_GE(p0_morsels, 17u);  // 18000 rows / 1024
    const std::string sig = QuerySignature(db.get());
    if (reference.empty()) {
      reference = sig;
    } else {
      EXPECT_EQ(sig, reference) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace nlq::engine
