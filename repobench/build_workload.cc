// build_resident / build_spilled: model building and scoring on one
// embedded Database (see README.md, "Workloads").

#include <algorithm>
#include <memory>

#include "checks.h"
#include "common/random.h"
#include "common/strings.h"
#include "engine/database.h"
#include "gen/datagen.h"
#include "probes.h"
#include "stats/linreg.h"
#include "stats/miner.h"
#include "stats/model_tables.h"
#include "stats/pca.h"
#include "stats/scoring.h"
#include "stats/sqlgen.h"
#include "storage/partitioned_table.h"
#include "storage/spill_segment.h"
#include "trace.h"
#include "workloads.h"

namespace nlq::repobench {
namespace {

constexpr uint64_t kRows = 100'000;
constexpr size_t kDims = 32;  // X1..X32, plus Y
constexpr size_t kPartitions = 8;
constexpr size_t kPoolThreads = 3;  // + the driving thread = 4 workers
// 4,096-row morsels give each scan 32 morsels, so one slow worker delays
// a scan by a fraction of a morsel instead of a whole partition.
constexpr uint64_t kMorselRows = 4096;
constexpr size_t kGroups = 16;
constexpr size_t kClusters = 4;
constexpr size_t kKmeansIterations = 1;
constexpr uint64_t kPoolBytes = 4ull << 20;
constexpr int kSetups = 5;  // setup_s is their median
constexpr const char* kTable = "X";
constexpr const char* kScoreTable = "XSCORE";

enum Class { kBuildUdf, kBuildSql, kBuildGrouped, kKmeans, kScore, kNumClasses };
constexpr const char* kClassNames[kNumClasses] = {
    "build_udf", "build_sql", "build_grouped", "kmeans", "score"};
constexpr const char* kOpSpan[kNumClasses] = {
    "op.build_udf", "op.build_sql", "op.build_grouped", "op.kmeans",
    "op.score"};
/// One round of the closed loop: the cheap builds run more often so
/// every class collects a comparable share of samples.
constexpr Class kRound[] = {kBuildUdf,     kBuildUdf,     kBuildUdf,
                            kBuildUdf,     kBuildSql,     kBuildGrouped,
                            kBuildGrouped, kKmeans,       kScore};

std::vector<std::string> NlqColumns() {
  std::vector<std::string> cols = stats::DimensionColumns(kDims);
  cols.push_back("Y");
  return cols;
}

void Flatten(const linalg::Matrix& m, std::vector<double>* out) {
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) out->push_back(m(r, c));
  }
}

/// The client-side models of build_udf, flattened for a bit-exact check.
StatusOr<std::vector<double>> FitModels(const stats::SufStats& suf,
                                        SpanLog* log) {
  ScopedSpan span(log, "stats.model");
  NLQ_ASSIGN_OR_RETURN(stats::LinearRegressionModel lr,
                       stats::FitLinearRegression(suf));
  NLQ_ASSIGN_OR_RETURN(linalg::Matrix rho, suf.CorrelationMatrix());
  NLQ_ASSIGN_OR_RETURN(stats::PcaModel pca, stats::FitPca(suf, 2));
  std::vector<double> out = lr.beta;
  Flatten(rho, &out);
  Flatten(pca.lambda, &out);
  out.insert(out.end(), pca.eigenvalues.begin(), pca.eigenvalues.end());
  return out;
}

std::vector<double> FlattenKMeans(const stats::KMeansModel& m) {
  std::vector<double> out;
  Flatten(m.centroids, &out);
  Flatten(m.radii, &out);
  out.insert(out.end(), m.weights.begin(), m.weights.end());
  out.insert(out.end(), m.counts.begin(), m.counts.end());
  return out;
}

struct References {
  engine::ResultSet udf, sql, grouped;
  std::vector<double> models;
  stats::LinearRegressionModel linreg;  // what the score class applies
  std::vector<double> kmeans;
  RowsDigest score;
};

class BuildRunner {
 public:
  BuildRunner(const BenchOptions& options, bool spilled)
      : options_(options), spilled_(spilled) {
    const auto cols = NlqColumns();
    udf_sql_ = stats::NlqUdfQuery(kTable, cols,
                                  stats::MatrixKind::kLowerTriangular,
                                  stats::ParamStyle::kList);
    sql_sql_ = stats::NlqSqlQuery(kTable, cols,
                                  stats::MatrixKind::kLowerTriangular);
    grouped_sql_ = stats::NlqUdfQueryGrouped(
        kTable, cols, stats::MatrixKind::kLowerTriangular,
        stats::ParamStyle::kList, "i % " + std::to_string(kGroups));
    mixture_.n = kRows;
    mixture_.d = kDims;
    mixture_.with_y = true;
    mixture_.seed = options.seed;
  }

  engine::DatabaseOptions DbOptions() const {
    engine::DatabaseOptions o;
    o.num_partitions = kPartitions;
    o.num_threads = kPoolThreads;
    o.morsel_rows = kMorselRows;
    o.buffer_pool_bytes = kPoolBytes;
    o.spill_directory = options_.work_dir;
    return o;
  }

  /// Creates the database, loads (and spills) the table, computes the
  /// references on the first call, and runs one untimed warm-up pass
  /// of every class. Returns the set-up time without the references.
  StatusOr<double> Setup(SpanLog* log, RunReport* report) {
    miner_.reset();
    db_.reset();
    ResetPeakRss();
    const int64_t t0 = NowNs();
    db_ = std::make_unique<engine::Database>(DbOptions());
    NLQ_RETURN_IF_ERROR(stats::RegisterAllStatsUdfs(&db_->udfs()));
    miner_ = std::make_unique<stats::WarehouseMiner>(db_.get());
    int64_t t = NowNs();
    {
      ScopedSpan span(log, "gen.load");
      NLQ_RETURN_IF_ERROR(
          gen::GenerateDataSetTable(db_.get(), kTable, mixture_).status());
    }
    gen_s_.Add(static_cast<double>(NowNs() - t) / 1e9);
    NLQ_ASSIGN_OR_RETURN(storage::PartitionedTable * table,
                         db_->catalog().GetTable(kTable));
    resident_bytes_ = table->data_bytes();
    if (spilled_) {
      t = NowNs();
      {
        ScopedSpan span(log, "storage.spill");
        NLQ_RETURN_IF_ERROR(db_->SpillTable(kTable));
      }
      spill_s_.Add(static_cast<double>(NowNs() - t) / 1e9);
      spilled_bytes_ = 0;
      for (size_t p = 0; p < table->num_partitions(); ++p) {
        spilled_bytes_ += table->partition(p).spill()->compressed_bytes();
      }
    }
    int64_t excluded = 0;
    if (!have_refs_) {
      t = NowNs();
      NLQ_RETURN_IF_ERROR(ComputeReferences());
      excluded = NowNs() - t;
      have_refs_ = true;
    }
    for (int c = 0; c < kNumClasses; ++c) {
      double ms = 0;
      int64_t check_ns = 0;
      NLQ_RETURN_IF_ERROR(
          RunOp(static_cast<Class>(c), log, 0, &ms, &check_ns, report));
      excluded += check_ns;
    }
    return static_cast<double>(NowNs() - t0 - excluded) / 1e9;
  }

  /// Runs one op, stores its latency in `ms` and checks its output
  /// against the reference (check time in `check_ns`, not in `ms`).
  /// An op error is returned; a wrong answer is reported and counted.
  Status RunOp(Class c, SpanLog* log, uint64_t op_id, double* ms,
               int64_t* check_ns, RunReport* report) {
    const int64_t t0 = NowNs();
    Status check;
    switch (c) {
      case kBuildUdf: {
        engine::ResultSet rs;
        std::vector<double> models;
        {
          ScopedSpan op(log, kOpSpan[c], op_id);
          NLQ_ASSIGN_OR_RETURN(rs, Execute(udf_sql_, log));
          stats::SufStats suf;
          {
            ScopedSpan span(log, "stats.decode");
            NLQ_ASSIGN_OR_RETURN(suf, stats::SufStatsFromUdfResult(rs));
          }
          NLQ_ASSIGN_OR_RETURN(models, FitModels(suf, log));
        }
        *ms = static_cast<double>(NowNs() - t0) / 1e6;
        const int64_t c0 = NowNs();
        check = CheckReply(refs_.udf, rs, "build_udf");
        if (check.ok()) check = CheckDoubles(refs_.models, models, "build_udf models");
        *check_ns = NowNs() - c0;
        break;
      }
      case kBuildSql:
      case kBuildGrouped: {
        const std::string& sql = c == kBuildSql ? sql_sql_ : grouped_sql_;
        engine::ResultSet rs;
        {
          ScopedSpan op(log, kOpSpan[c], op_id);
          NLQ_ASSIGN_OR_RETURN(rs, Execute(sql, log));
          ScopedSpan span(log, "stats.decode");
          for (size_t r = 0; r < rs.num_rows(); ++r) {
            if (c == kBuildSql) {
              NLQ_RETURN_IF_ERROR(
                  stats::SufStatsFromWideRow(rs, r, kDims + 1,
                                             stats::MatrixKind::kLowerTriangular)
                      .status());
            } else {
              NLQ_RETURN_IF_ERROR(
                  stats::SufStatsFromUdfResult(rs, r, 1).status());
            }
          }
        }
        *ms = static_cast<double>(NowNs() - t0) / 1e6;
        const int64_t c0 = NowNs();
        check = CheckReply(c == kBuildSql ? refs_.sql : refs_.grouped, rs,
                           kClassNames[c]);
        *check_ns = NowNs() - c0;
        break;
      }
      case kKmeans: {
        stats::KMeansModel model;
        {
          ScopedSpan op(log, kOpSpan[c], op_id);
          ScopedSpan span(log, "miner.kmeans");
          NLQ_ASSIGN_OR_RETURN(model, miner_->BuildKMeansInDbms(
                                          kTable, kDims, KMeansOptions()));
        }
        *ms = static_cast<double>(NowNs() - t0) / 1e6;
        const int64_t c0 = NowNs();
        check = CheckDoubles(refs_.kmeans, FlattenKMeans(model), "kmeans model");
        *check_ns = NowNs() - c0;
        break;
      }
      case kScore: {
        {
          ScopedSpan op(log, kOpSpan[c], op_id);
          ScopedSpan span(log, "miner.score");
          NLQ_RETURN_IF_ERROR(miner_->ScoreLinearRegression(
              kTable, refs_.linreg, kScoreTable, /*use_udf=*/true));
        }
        *ms = static_cast<double>(NowNs() - t0) / 1e6;
        const int64_t c0 = NowNs();
        NLQ_ASSIGN_OR_RETURN(storage::PartitionedTable * out,
                             db_->catalog().GetTable(kScoreTable));
        NLQ_ASSIGN_OR_RETURN(std::vector<storage::Row> rows, out->ReadAllRows());
        check = CheckDigest(refs_.score, DigestRows(rows), "score output table");
        *check_ns = NowNs() - c0;
        break;
      }
      case kNumClasses:
        return Status::Internal("bad class");
    }
    if (!check.ok()) report->Fail(check.ToString());
    return Status::OK();
  }

  engine::Database* db() { return db_.get(); }
  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  const Samples& gen_s() const { return gen_s_; }
  const Samples& spill_s() const { return spill_s_; }

  std::vector<ProbeStatement> ProbeStatements() const {
    return {{"build_udf", udf_sql_},
            {"build_sql", sql_sql_},
            {"build_grouped", grouped_sql_},
            {"kmeans", KMeansIterationSql()},
            {"score", stats::LinRegScoreUdfQuery(
                          kTable, std::string(kTable) + "_BETA", kDims)}};
  }
  const std::string& udf_sql() const { return udf_sql_; }
  const std::string& sql_sql() const { return sql_sql_; }

 private:
  static stats::KMeansOptions KMeansOptions() {
    stats::KMeansOptions o;
    o.k = kClusters;
    o.max_iterations = kKmeansIterations;
    o.tolerance = -1;  // never stop early: a fixed amount of work
    return o;
  }

  /// The per-iteration statement BuildKMeansInDbms issues (one scan:
  /// GROUP BY the nearest-centroid UDF over k centroid-table copies).
  static std::string KMeansIterationSql() {
    const std::string t = kTable, c = t + "_KMC";
    std::string score = "clusterscore(";
    for (size_t j = 1; j <= kClusters; ++j) {
      score += j > 1 ? ", kmeansdistance(" : "kmeansdistance(";
      for (size_t a = 1; a <= kDims; ++a) {
        score += StringPrintf(a > 1 ? ", %s.X%zu" : "%s.X%zu", kTable, a);
      }
      for (size_t a = 1; a <= kDims; ++a) score += StringPrintf(", C%zu.X%zu", j, a);
      score += ")";
    }
    score += ")";
    std::string sql = "SELECT " + score + " AS j, nlq_list('diag'";
    for (size_t a = 1; a <= kDims; ++a) sql += StringPrintf(", %s.X%zu", kTable, a);
    sql += ") AS nlq FROM " + t;
    for (size_t j = 1; j <= kClusters; ++j) sql += StringPrintf(", %s C%zu", c.c_str(), j);
    sql += " WHERE ";
    for (size_t j = 1; j <= kClusters; ++j) {
      sql += StringPrintf(j > 1 ? " AND C%zu.j = %zu" : "C%zu.j = %zu", j, j);
    }
    return sql + " GROUP BY " + score;
  }

  StatusOr<engine::ResultSet> Execute(const std::string& sql, SpanLog* log) {
    ScopedSpan span(log, "engine.execute");
    return db_->Execute(sql);
  }

  /// References from independent paths: the SQL the benchmark issues
  /// runs on the interpreted oracle; the miner's K-means runs on a
  /// single-threaded, views-off replay database of the same data.
  Status ComputeReferences() {
    engine::QueryOptions interpreted;
    interpreted.force_interpreted = true;
    NLQ_ASSIGN_OR_RETURN(refs_.udf, db_->Execute(udf_sql_, interpreted));
    NLQ_ASSIGN_OR_RETURN(refs_.sql, db_->Execute(sql_sql_, interpreted));
    NLQ_ASSIGN_OR_RETURN(refs_.grouped, db_->Execute(grouped_sql_, interpreted));
    NLQ_ASSIGN_OR_RETURN(stats::SufStats suf,
                         stats::SufStatsFromUdfResult(refs_.udf));
    SpanLog off(false);
    NLQ_ASSIGN_OR_RETURN(refs_.models, FitModels(suf, &off));
    NLQ_ASSIGN_OR_RETURN(refs_.linreg, stats::FitLinearRegression(suf));

    const std::string beta = std::string(kTable) + "_BETA";
    NLQ_RETURN_IF_ERROR(stats::StoreBetaTable(db_.get(), beta, refs_.linreg));
    NLQ_ASSIGN_OR_RETURN(
        engine::ResultSet scored,
        db_->Execute(stats::LinRegScoreUdfQuery(kTable, beta, kDims),
                     interpreted));
    refs_.score = DigestRows(scored.rows());

    engine::DatabaseOptions replay_options = DbOptions();
    replay_options.num_threads = 1;
    replay_options.enable_view_maintenance = false;
    engine::Database replay(replay_options);
    NLQ_RETURN_IF_ERROR(stats::RegisterAllStatsUdfs(&replay.udfs()));
    NLQ_RETURN_IF_ERROR(
        gen::GenerateDataSetTable(&replay, kTable, mixture_).status());
    stats::WarehouseMiner replay_miner(&replay);
    NLQ_ASSIGN_OR_RETURN(
        stats::KMeansModel km,
        replay_miner.BuildKMeansInDbms(kTable, kDims, KMeansOptions()));
    refs_.kmeans = FlattenKMeans(km);
    return Status::OK();
  }

  const BenchOptions& options_;
  const bool spilled_;
  gen::MixtureOptions mixture_;
  std::string udf_sql_, sql_sql_, grouped_sql_;
  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<stats::WarehouseMiner> miner_;
  References refs_;
  bool have_refs_ = false;
  uint64_t resident_bytes_ = 0, spilled_bytes_ = 0;
  Samples gen_s_, spill_s_;
};

/// One timed window of the closed loop.
struct Window {
  std::vector<ClassStats> classes;
  Samples all_ms;
  double seconds = 0;
  double cpu_s = 0;
  uint64_t ops = 0;
  MetricsDelta counters;
};

Status RunWindow(BuildRunner* runner, Random* rng, int seconds, SpanLog* log,
                 uint64_t* next_op, Window* w, RunReport* report) {
  for (const char* name : kClassNames) w->classes.emplace_back(name);
  constexpr size_t kRoundSize = sizeof(kRound) / sizeof(kRound[0]);
  Class round[kRoundSize];
  size_t pos = kRoundSize;
  int64_t excluded_ns = 0;
  w->counters.Begin();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(seconds) * 1'000'000'000;
  while (NowNs() - start - excluded_ns < budget) {
    if (pos == kRoundSize) {
      std::copy(std::begin(kRound), std::end(kRound), round);
      for (size_t i = kRoundSize - 1; i > 0; --i) {
        std::swap(round[i], round[rng->NextUint64(i + 1)]);
      }
      pos = 0;
    }
    const Class c = round[pos++];
    ClassStats& stats = w->classes[c];
    ++stats.attempted;
    double ms = 0;
    int64_t check_ns = 0;
    Status s = runner->RunOp(c, log, (*next_op)++, &ms, &check_ns, report);
    excluded_ns += check_ns;
    if (!s.ok()) {
      ++stats.failed;
      report->Fail(std::string(kClassNames[c]) + ": " + s.ToString());
      continue;
    }
    stats.latency_ms.Add(ms);
    w->all_ms.Add(ms);
    ++w->ops;
  }
  w->seconds = static_cast<double>(NowNs() - start - excluded_ns) / 1e9;
  w->cpu_s = ProcessCpuSeconds() - cpu0;
  w->counters.End();
  return Status::OK();
}

}  // namespace

Status RunBuildWorkload(const BenchOptions& options, bool spilled,
                        RunReport* report) {
  BuildRunner runner(options, spilled);
  SpanLog off(false);
  SpanLog traced(true);

  Samples setup_s;
  for (int i = 0; i < kSetups; ++i) {
    NLQ_ASSIGN_OR_RETURN(double s, runner.Setup(&off, report));
    setup_s.Add(s);
  }
  const double n = static_cast<double>(kRows), cols = kDims + 2;
  const double stored = static_cast<double>(
      spilled ? runner.spilled_bytes() : runner.resident_bytes());
  report->header.push_back(StringPrintf(
      "engine: %zu partitions, %zu pool threads + 1 driving thread = %zu "
      "workers, morsel_rows=%llu, views off",
      kPartitions, kPoolThreads, kPoolThreads + 1,
      static_cast<unsigned long long>(runner.db()->options().morsel_rows)));
  report->header.push_back(StringPrintf(
      "data: %llu rows x (i, X1..X%zu, Y); resident %.1f MiB; spilled "
      "compressed %.1f MiB; buffer pool %s",
      static_cast<unsigned long long>(kRows), kDims,
      static_cast<double>(runner.resident_bytes()) / (1 << 20),
      static_cast<double>(runner.spilled_bytes()) / (1 << 20),
      spilled ? StringPrintf("%.1f MiB", static_cast<double>(kPoolBytes) / (1 << 20)).c_str()
              : "unused"));
  report->header.push_back(StringPrintf(
      "mix per round: build_udf x4, build_sql, build_grouped x2 (GROUP BY i %% "
      "%zu), kmeans (k=%zu, %zu iteration), score (linreg UDF into %s)",
      kGroups, kClusters, kKmeansIterations, kScoreTable));

  Random rng(options.seed * 0x9e3779b97f4a7c15ull + 1);
  uint64_t next_op = 1;
  ResetPeakRss();
  Window untraced;
  NLQ_RETURN_IF_ERROR(RunWindow(&runner, &rng, options.seconds, &off,
                                &next_op, &untraced, report));
  const double peak_rss = PeakRssMiB();

  report->AddClasses(untraced.classes, "untraced");
  report->detail.push_back("untraced stmt_ms: " + untraced.all_ms.Summary("ms"));
  const double ops_per_s = static_cast<double>(untraced.ops) / untraced.seconds;
  if (!options.trace) {
    report->Set("setup_s", setup_s.Median(), "s");
    report->Set("ops_per_s", ops_per_s, "ops/s");
    report->Set("stmt_p50_ms", untraced.all_ms.Median(), "ms");
    report->Set("stmt_p95_ms", untraced.all_ms.Quantile(0.95), "ms");
    report->Set("build_grouped_ms",
                untraced.classes[kBuildGrouped].latency_ms.Median(), "ms");
    report->Set("score_ms", untraced.classes[kScore].latency_ms.Median(), "ms");
    report->Set("peak_rss_mb", peak_rss, "MiB");
    report->Set("space_amp", stored / (n * cols * 8), "ratio");
    report->detail.push_back("setup_s: " + setup_s.Summary("s"));
    return Status::OK();
  }

  // Traced run: the same window again with spans on, then the probes.
  Window tw;
  NLQ_RETURN_IF_ERROR(RunWindow(&runner, &rng, options.seconds, &traced,
                                &next_op, &tw, report));
  report->AddClasses(tw.classes, "traced");
  const double traced_ops_per_s = static_cast<double>(tw.ops) / tw.seconds;
  report->Set("trace.overhead_pct",
              100.0 * (ops_per_s - traced_ops_per_s) / ops_per_s, "%");
  report->Set("gen.load_s", runner.gen_s().Median(), "s");
  if (spilled) {
    report->Set("storage.spill_s", runner.spill_s().Median(), "s");
  }
  AddStorageCounterMetrics(tw.counters, tw.ops, report);
  report->Set("storage.bytes_per_row", stored / n, "bytes");
  report->Set("exec.cpu_util", tw.cpu_s / (tw.seconds * AllowedCpus()),
              "ratio");
  AddSpanMetrics({&traced}, "engine.execute", report);
  NLQ_RETURN_IF_ERROR(WriteSpans(options.work_dir + "/spans_" +
                                     options.workload + ".jsonl",
                                 {&traced}));

  ProbeContext probe;
  probe.db = runner.db();
  probe.table = kTable;
  probe.columns = NlqColumns();
  probe.score_dims = kDims;
  probe.kmeans_k = kClusters;
  probe.statements = runner.ProbeStatements();
  probe.udf_sql = runner.udf_sql();
  probe.wide_sql = runner.sql_sql();
  if (!spilled) {
    // The spill layer on this data set, as build_spilled pays it.
    NLQ_RETURN_IF_ERROR(runner.db()->ExecuteCommand(
        std::string("CREATE TABLE XPROBE AS SELECT * FROM ") + kTable));
    const int64_t t0 = NowNs();
    NLQ_RETURN_IF_ERROR(runner.db()->SpillTable("XPROBE"));
    report->Set("storage.spill_s", static_cast<double>(NowNs() - t0) / 1e9, "s");
    NLQ_RETURN_IF_ERROR(runner.db()->ExecuteCommand("DROP TABLE XPROBE"));
  }
  return RunLayerProbes(probe, report);
}

}  // namespace nlq::repobench
