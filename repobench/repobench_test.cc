// Tests of the benchmark's own helpers: exact sample statistics and the
// reply checks that make a wrong answer fail the run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "bench/soak/soak.h"
#include "checks.h"
#include "engine/database.h"
#include "gen/datagen.h"
#include "sample_stats.h"
#include "stats/scoring.h"
#include "stats/sqlgen.h"

namespace nlq::repobench {
namespace {

Samples Of(std::initializer_list<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s;
}

TEST(SamplesTest, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Of({5, 1, 3}).Median(), 3);
  EXPECT_DOUBLE_EQ(Of({4, 1, 3, 2}).Median(), 2.5);
  EXPECT_DOUBLE_EQ(Samples().Median(), 0);
}

TEST(SamplesTest, QuantilesInterpolateBetweenRanks) {
  Samples s;
  for (int i = 0; i <= 100; ++i) s.Add(100 - i);  // 0..100, unsorted
  EXPECT_DOUBLE_EQ(s.Quantile(0.25), 25);
  EXPECT_DOUBLE_EQ(s.Quantile(0.95), 95);
  EXPECT_DOUBLE_EQ(s.Quantile(0), 0);
  EXPECT_DOUBLE_EQ(s.Quantile(1), 100);
  EXPECT_DOUBLE_EQ(Of({10, 20}).Quantile(0.75), 17.5);
}

TEST(SamplesTest, DistinctValuesGiveDistinctMedians) {
  // The power-of-two Histogram reports 32.768 ms for all three.
  EXPECT_LT(Of({17, 18, 19}).Median(), Of({20, 21, 22}).Median());
  EXPECT_LT(Of({20, 21, 22}).Median(), Of({30, 31, 32}).Median());
}

TEST(SamplesTest, HighestSupportedPercentileNeedsTenBeyond) {
  auto with = [](int n) {
    Samples s;
    for (int i = 0; i < n; ++i) s.Add(i);
    return s.HighestSupportedPercentile();
  };
  EXPECT_EQ(with(19), 0);     // fewer than 10 above the median
  EXPECT_EQ(with(20), 50);
  EXPECT_EQ(with(40), 75);
  EXPECT_EQ(with(100), 90);
  EXPECT_EQ(with(199), 90);
  EXPECT_EQ(with(200), 95);
  EXPECT_EQ(with(1000), 99);
  EXPECT_EQ(with(10000), 99.9);
}

TEST(SamplesTest, SummaryStatesTheSampleCount) {
  Samples s;
  for (int i = 1; i <= 40; ++i) s.Add(i);
  EXPECT_EQ(s.Summary("ms"),
            "median=20.5000 ms q1=10.7500 q3=30.2500 p75=30.2500 n=40");
  EXPECT_EQ(Of({1, 2, 3}).Summary("ms"),
            "median=2.0000 ms q1=1.5000 q3=2.5000 n=3");
  Samples a = Of({1, 2});
  a.Append(Of({3, 4, 5}));
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.Mean(), 3);
}

double FlipLowBit(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= 1;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(ChecksTest, CheckDoublesComparesBitPatterns) {
  EXPECT_TRUE(CheckDoubles({1.5, -2}, {1.5, -2}, "m").ok());
  EXPECT_FALSE(CheckDoubles({0.0}, {-0.0}, "m").ok());
  EXPECT_FALSE(CheckDoubles({1.5}, {FlipLowBit(1.5)}, "m").ok());
  EXPECT_FALSE(CheckDoubles({1.5}, {1.5, 2}, "m").ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(CheckDoubles({nan}, {nan}, "m").ok());
}

TEST(ChecksTest, DigestIsOrderInsensitiveButBitExact) {
  using storage::Datum;
  std::vector<storage::Row> rows = {{Datum::Int64(1), Datum::Double(0.25)},
                                    {Datum::Int64(2), Datum::Double(0.5)}};
  std::vector<storage::Row> swapped = {rows[1], rows[0]};
  EXPECT_EQ(DigestRows(rows), DigestRows(swapped));
  std::vector<storage::Row> tampered = rows;
  tampered[1][1] = Datum::Double(FlipLowBit(0.5));
  EXPECT_FALSE(CheckDigest(DigestRows(rows), DigestRows(tampered), "t").ok());
  tampered = rows;
  tampered.pop_back();
  EXPECT_FALSE(CheckDigest(DigestRows(rows), DigestRows(tampered), "t").ok());
}

/// A real model-build reply, as the build workloads check it: the
/// compiled reply matches the interpreted reference bit for bit, and
/// one flipped bit anywhere in it is caught.
TEST(ChecksTest, TamperedBuildReplyIsCaught) {
  engine::DatabaseOptions o;
  o.num_threads = 2;
  engine::Database db(o);
  ASSERT_TRUE(stats::RegisterAllStatsUdfs(&db.udfs()).ok());
  gen::MixtureOptions mixture;
  mixture.n = 5000;
  mixture.d = 4;
  mixture.with_y = true;
  ASSERT_TRUE(gen::GenerateDataSetTable(&db, "X", mixture).ok());
  const std::string sql = stats::NlqSqlQuery(
      "X", stats::DimensionColumns(4), stats::MatrixKind::kLowerTriangular);
  engine::QueryOptions interpreted;
  interpreted.force_interpreted = true;
  auto reference = db.Execute(sql, interpreted);
  auto reply = db.Execute(sql);
  ASSERT_TRUE(reference.ok() && reply.ok());
  EXPECT_TRUE(CheckReply(*reference, *reply, "build_sql").ok());
  EXPECT_EQ(ReplyChecksum(*reference), ReplyChecksum(*reply));

  engine::ResultSet tampered = *reply;
  storage::Datum& cell = tampered.mutable_rows()[0][3];
  cell = storage::Datum::Double(FlipLowBit(cell.double_value()));
  Status caught = CheckReply(*reference, tampered, "build_sql");
  EXPECT_FALSE(caught.ok());
  EXPECT_NE(caught.message().find("build_sql"), std::string::npos);
  EXPECT_NE(ReplyChecksum(*reference), ReplyChecksum(tampered));
}

/// serve_mixed verifies build replies with the soak's BuildOracle after
/// the window: a tampered wire reply fails that replay.
TEST(ChecksTest, TamperedServedReplyFailsTheOracle) {
  soak::SoakOptions so;
  so.tables = ~size_t{0};
  so.spilled_table = false;
  so.dims = 3;
  so.seed_batches = 4;
  so.batch_rows = 16;
  engine::DatabaseOptions o;
  o.num_partitions = so.num_partitions;
  o.morsel_rows = so.morsel_rows;
  o.enable_view_maintenance = true;
  engine::Database live(o);
  ASSERT_TRUE(stats::RegisterAllStatsUdfs(&live.udfs()).ok());
  ASSERT_TRUE(live.ExecuteCommand(soak::BuildOracle::CreateTableSql(so, "T0")).ok());
  for (uint64_t b = 0; b < so.seed_batches; ++b) {
    ASSERT_TRUE(live.ExecuteCommand(soak::BuildOracle::BatchInsertSql(so, 0, b)).ok());
  }
  const std::string sql = stats::NlqUdfQuery(
      "T0", stats::DimensionColumns(3), stats::MatrixKind::kLowerTriangular,
      stats::ParamStyle::kList);
  auto reply = live.Execute(sql);
  ASSERT_TRUE(reply.ok());
  soak::BuildOracle oracle(so);
  const uint64_t rows = so.seed_batches * so.batch_rows;
  EXPECT_TRUE(oracle.VerifyBuild(0, rows, sql, *reply).ok());
  engine::ResultSet tampered = *reply;
  std::string packed = tampered.At(0, 0).string_value();
  packed.back() = packed.back() == '1' ? '2' : '1';
  tampered.mutable_rows()[0][0] = storage::Datum::Varchar(packed);
  EXPECT_FALSE(oracle.VerifyBuild(0, rows, sql, tampered).ok());
}

}  // namespace
}  // namespace nlq::repobench
