#include "bench/soak/soak.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/failpoint.h"
#include "common/strings.h"
#include "connect/odbc_sim.h"
#include "stats/scoring.h"
#include "stats/sqlgen.h"
#include "stats/sufstats.h"

namespace nlq::soak {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kChaosFaultMarker = "injected chaos fault";
constexpr const char* kSpilledTableName = "TS";
constexpr const char* kExportTableName = "TEXPORT";

double NanosToMs(uint64_t nanos) {
  return nanos == UINT64_MAX ? 1e9 : static_cast<double>(nanos) / 1e6;
}

/// Deterministic cell value for (table, global row, column): a dyadic
/// rational k/256 in [0, 16) whose decimal form round-trips exactly
/// through SQL text on both the live and replay sides.
double CellValue(size_t t, uint64_t row, size_t col) {
  const uint64_t k =
      (row * 131 + col * 17 + t * 59 + (row >> 3) * 7) % 4096;
  return static_cast<double>(k) / 256.0;
}

void AppendJsonEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StringPrintf("\\u%04x", c));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

const char* ClassName(WorkloadClass c) {
  switch (c) {
    case WorkloadClass::kBuild:
      return "build";
    case WorkloadClass::kGroupedBuild:
      return "grouped_build";
    case WorkloadClass::kIterative:
      return "iterative";
    case WorkloadClass::kScoring:
      return "scoring";
    case WorkloadClass::kAppend:
      return "append";
    case WorkloadClass::kCancel:
      return "cancel";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// BuildOracle

std::string BuildOracle::TableName(size_t t) {
  return "T" + std::to_string(t);
}

std::string BuildOracle::CreateTableSql(const SoakOptions& options,
                                        const std::string& table) {
  std::string sql = "CREATE TABLE " + table + " (i BIGINT";
  for (size_t c = 1; c <= options.dims; ++c) {
    sql += ", X" + std::to_string(c) + " DOUBLE";
  }
  sql += ")";
  return sql;
}

std::string BuildOracle::BatchInsertSql(const SoakOptions& options, size_t t,
                                        uint64_t batch) {
  std::string sql = "INSERT INTO " +
                    (t == SpilledIndex(options) ? std::string(kSpilledTableName)
                                                : TableName(t)) +
                    " VALUES ";
  for (uint64_t j = 0; j < options.batch_rows; ++j) {
    const uint64_t row = batch * options.batch_rows + j;
    if (j > 0) sql += ", ";
    sql += StringPrintf("(%llu", static_cast<unsigned long long>(row));
    for (size_t c = 1; c <= options.dims; ++c) {
      // %.8f prints n/256 exactly (8 fractional decimal digits).
      sql += StringPrintf(", %.8f", CellValue(t, row, c));
    }
    sql += ")";
  }
  return sql;
}

Status BuildOracle::VerifyBuild(size_t t, uint64_t observed_rows,
                                const std::string& sql,
                                const engine::ResultSet& wire) {
  if (observed_rows % options_.batch_rows != 0) {
    return Status::Internal(StringPrintf(
        "oracle: build on %s observed %llu rows, not a multiple of the "
        "batch size %llu — appends are not atomic w.r.t. builds",
        TableName(t).c_str(),
        static_cast<unsigned long long>(observed_rows),
        static_cast<unsigned long long>(options_.batch_rows)));
  }
  const uint64_t batches = observed_rows / options_.batch_rows;

  TableOracle* oracle;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    while (tables_.size() <= t) {
      tables_.push_back(std::make_unique<TableOracle>());
    }
    oracle = tables_[t].get();
  }

  std::lock_guard<std::mutex> lock(oracle->mu);
  const std::string table =
      t == SpilledIndex(options_) ? kSpilledTableName : TableName(t);
  auto make_db = [&]() -> StatusOr<std::unique_ptr<engine::Database>> {
    engine::DatabaseOptions dbopts;
    dbopts.num_partitions = options_.num_partitions;
    dbopts.morsel_rows = options_.morsel_rows;
    dbopts.num_threads = 1;
    dbopts.enable_view_maintenance = false;
    auto db = std::make_unique<engine::Database>(dbopts);
    NLQ_RETURN_IF_ERROR(stats::RegisterAllStatsUdfs(&db->udfs()));
    NLQ_RETURN_IF_ERROR(db->ExecuteCommand(CreateTableSql(options_, table)));
    return db;
  };

  engine::Database* replay = nullptr;
  std::unique_ptr<engine::Database> throwaway;
  if (oracle->db == nullptr) {
    NLQ_ASSIGN_OR_RETURN(auto db, make_db());
    oracle->db = std::move(db);
    oracle->batches = 0;
  }
  if (batches < oracle->batches) {
    // Older table state than the cached replay: rebuild from scratch.
    NLQ_ASSIGN_OR_RETURN(throwaway, make_db());
    for (uint64_t b = 0; b < batches; ++b) {
      NLQ_RETURN_IF_ERROR(
          throwaway->ExecuteCommand(BatchInsertSql(options_, t, b)));
    }
    replay = throwaway.get();
  } else {
    while (oracle->batches < batches) {
      NLQ_RETURN_IF_ERROR(oracle->db->ExecuteCommand(
          BatchInsertSql(options_, t, oracle->batches)));
      ++oracle->batches;
    }
    replay = oracle->db.get();
  }

  NLQ_ASSIGN_OR_RETURN(engine::ResultSet expected, replay->Execute(sql));
  Status same = ExpectBitIdentical(expected, wire);
  if (!same.ok()) {
    return Status::Internal(StringPrintf(
        "oracle mismatch on %s at %llu rows for [%s]: %s",
        table.c_str(), static_cast<unsigned long long>(observed_rows),
        sql.c_str(), same.message().c_str()));
  }
  return Status::OK();
}

Status ExpectBitIdentical(const engine::ResultSet& expected,
                          const engine::ResultSet& actual) {
  if (expected.num_rows() != actual.num_rows() ||
      expected.num_columns() != actual.num_columns()) {
    return Status::Internal(StringPrintf(
        "shape differs: expected %zux%zu, got %zux%zu", expected.num_rows(),
        expected.num_columns(), actual.num_rows(), actual.num_columns()));
  }
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    for (size_t c = 0; c < expected.num_columns(); ++c) {
      const storage::Datum& e = expected.At(r, c);
      const storage::Datum& a = actual.At(r, c);
      if (e.type() != a.type() || e.is_null() != a.is_null()) {
        return Status::Internal(
            StringPrintf("type/null differs at (%zu, %zu)", r, c));
      }
      if (e.is_null()) continue;
      bool equal = true;
      switch (e.type()) {
        case storage::DataType::kInt64:
          equal = e.int_value() == a.int_value();
          break;
        case storage::DataType::kDouble: {
          uint64_t be, ba;
          const double de = e.double_value(), da = a.double_value();
          std::memcpy(&be, &de, sizeof(de));
          std::memcpy(&ba, &da, sizeof(da));
          equal = be == ba;
          break;
        }
        case storage::DataType::kVarchar:
          equal = e.string_value() == a.string_value();
          break;
      }
      if (!equal) {
        return Status::Internal(
            StringPrintf("value differs at (%zu, %zu)", r, c));
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SoakReport

bool SoakReport::Healthy() const {
  if (oracle_mismatches != 0 || retryable_flag_violations != 0 ||
      internal_errors != 0) {
    return false;
  }
  return true;
}

std::string SoakReport::ToJson() const {
  std::string out = "{\n";
  out += StringPrintf(
      "  \"elapsed_sec\": %.3f,\n  \"total_completed\": %llu,\n"
      "  \"stmts_per_sec\": %.2f,\n  \"stmts_per_sec_at_slo\": %.2f,\n",
      elapsed_sec, static_cast<unsigned long long>(total_completed),
      stmts_per_sec, stmts_per_sec_at_slo);
  out += StringPrintf(
      "  \"oracle_checks\": %llu,\n  \"oracle_mismatches\": %llu,\n"
      "  \"retryable_flag_violations\": %llu,\n  \"internal_errors\": %llu,\n"
      "  \"reconnects\": %llu,\n  \"append_recoveries\": %llu,\n"
      "  \"chaos_enabled\": %s,\n  \"chaos_phases\": %llu,\n"
      "  \"odbc_retry_exercises\": %llu,\n",
      static_cast<unsigned long long>(oracle_checks),
      static_cast<unsigned long long>(oracle_mismatches),
      static_cast<unsigned long long>(retryable_flag_violations),
      static_cast<unsigned long long>(internal_errors),
      static_cast<unsigned long long>(reconnects),
      static_cast<unsigned long long>(append_recoveries),
      chaos_enabled ? "true" : "false",
      static_cast<unsigned long long>(chaos_phases),
      static_cast<unsigned long long>(odbc_retry_exercises));
  out += StringPrintf(
      "  \"queue_wait_count\": %llu,\n  \"queue_wait_p95_ms\": %.3f,\n",
      static_cast<unsigned long long>(queue_wait_count), queue_wait_p95_ms);
  out += "  \"classes\": {\n";
  bool first = true;
  for (const ClassReport& c : classes) {
    if (!first) out += ",\n";
    first = false;
    out += "    ";
    AppendJsonEscaped(c.name, &out);
    out += StringPrintf(
        ": {\"slo_ms\": %lld, \"attempts\": %llu, \"completed\": %llu, "
        "\"within_slo\": %llu, \"rejected\": %llu, \"cancelled\": %llu, "
        "\"chaos_faults\": %llu, \"transport_errors\": %llu, "
        "\"other_errors\": %llu, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"slo_met\": %s}",
        static_cast<long long>(c.slo_ms),
        static_cast<unsigned long long>(c.attempts),
        static_cast<unsigned long long>(c.completed),
        static_cast<unsigned long long>(c.within_slo),
        static_cast<unsigned long long>(c.rejected),
        static_cast<unsigned long long>(c.cancelled),
        static_cast<unsigned long long>(c.chaos_faults),
        static_cast<unsigned long long>(c.transport_errors),
        static_cast<unsigned long long>(c.other_errors), c.p50_ms, c.p95_ms,
        c.p99_ms,
        // SLO met = ≥95% of completions within the class SLO, from the
        // exact per-statement timings (the histogram p95 only bounds
        // the answer to a power-of-two bucket).
        (c.completed == 0 ||
         static_cast<double>(c.within_slo) >=
             0.95 * static_cast<double>(c.completed))
            ? "true"
            : "false");
  }
  out += "\n  },\n  \"healthy\": ";
  out += Healthy() ? "true" : "false";
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// SoakDriver

SoakDriver::SoakDriver(SoakOptions options) : options_(std::move(options)) {}

SoakDriver::~SoakDriver() { Teardown(); }

Status SoakDriver::Setup() {
  engine::DatabaseOptions dbopts;
  dbopts.num_partitions = options_.num_partitions;
  dbopts.morsel_rows = options_.morsel_rows;
  dbopts.enable_view_maintenance = true;  // exercise the PR-8 view path
  db_ = std::make_unique<engine::Database>(dbopts);
  NLQ_RETURN_IF_ERROR(stats::RegisterAllStatsUdfs(&db_->udfs()));

  // Appendable model tables T0..T{n-1}, seeded batch by batch with the
  // same statements the oracle will replay.
  for (size_t t = 0; t < options_.tables; ++t) {
    NLQ_RETURN_IF_ERROR(db_->ExecuteCommand(
        BuildOracle::CreateTableSql(options_, BuildOracle::TableName(t))));
    for (uint64_t b = 0; b < options_.seed_batches; ++b) {
      NLQ_RETURN_IF_ERROR(
          db_->ExecuteCommand(BuildOracle::BatchInsertSql(options_, t, b)));
    }
    tables_.push_back(std::make_unique<TableState>());
    tables_.back()->applied_batches = options_.seed_batches;
  }

  // Static spilled table (never appended): scoring on it, and the
  // build that seeds its maintained view, stream through the buffer
  // pool (page_decompress chaos target); later builds are served from
  // the view. Its oracle replay stays resident, which the
  // spilled==resident guarantee covers.
  if (options_.spilled_table) {
    const size_t ts = BuildOracle::SpilledIndex(options_);
    NLQ_RETURN_IF_ERROR(db_->ExecuteCommand(
        BuildOracle::CreateTableSql(options_, kSpilledTableName)));
    for (uint64_t b = 0; b < options_.seed_batches; ++b) {
      NLQ_RETURN_IF_ERROR(
          db_->ExecuteCommand(BuildOracle::BatchInsertSql(options_, ts, b)));
    }
    NLQ_RETURN_IF_ERROR(db_->SpillTable(kSpilledTableName));
  }

  // Static model tables for scoring (BETA one row, C `groups` rows)
  // and the odbc chaos export source.
  {
    std::string create = "CREATE TABLE BETA (b0 DOUBLE";
    std::string insert = "INSERT INTO BETA VALUES (0.5";
    for (size_t c = 1; c <= options_.dims; ++c) {
      create += StringPrintf(", b%zu DOUBLE", c);
      insert += StringPrintf(", %.8f", static_cast<double>(c * 13 % 64) / 32.0);
    }
    NLQ_RETURN_IF_ERROR(db_->ExecuteCommand(create + ")"));
    NLQ_RETURN_IF_ERROR(db_->ExecuteCommand(insert + ")"));

    std::string ccreate = "CREATE TABLE C (j BIGINT";
    for (size_t c = 1; c <= options_.dims; ++c) {
      ccreate += StringPrintf(", X%zu DOUBLE", c);
    }
    NLQ_RETURN_IF_ERROR(db_->ExecuteCommand(ccreate + ")"));
    std::string cinsert = "INSERT INTO C VALUES ";
    for (size_t j = 1; j <= options_.groups; ++j) {
      if (j > 1) cinsert += ", ";
      cinsert += StringPrintf("(%zu", j);
      for (size_t c = 1; c <= options_.dims; ++c) {
        cinsert += StringPrintf(", %.8f",
                                static_cast<double>((j * 37 + c * 11) % 512) /
                                    32.0);
      }
      cinsert += ")";
    }
    NLQ_RETURN_IF_ERROR(db_->ExecuteCommand(cinsert));

    NLQ_RETURN_IF_ERROR(db_->ExecuteCommand(
        BuildOracle::CreateTableSql(options_, kExportTableName)));
    std::string einsert = std::string("INSERT INTO ") + kExportTableName +
                          " VALUES ";
    for (uint64_t r = 0; r < 256; ++r) {
      if (r > 0) einsert += ", ";
      einsert += StringPrintf("(%llu", static_cast<unsigned long long>(r));
      for (size_t c = 1; c <= options_.dims; ++c) {
        einsert += StringPrintf(", %.8f", CellValue(99, r, c));
      }
      einsert += ")";
    }
    NLQ_RETURN_IF_ERROR(db_->ExecuteCommand(einsert));
  }

  oracle_ = std::make_unique<BuildOracle>(options_);

  server::ServerOptions sopts;
  sopts.host = "127.0.0.1";
  sopts.port = 0;
  sopts.admission.max_concurrent_statements =
      options_.max_concurrent_statements;
  sopts.admission.max_queue_depth = options_.max_queue_depth;
  sopts.admission.max_queue_wait_ms = options_.max_queue_wait_ms;
  sopts.max_sessions = options_.max_sessions;
  // Idle timeouts off: the only kDeadlineExceeded the soak may legally
  // see is the (retryable) queue-wait deadline, which is what lets the
  // driver assert the retryable flag on every rejection.
  sopts.idle_timeout_ms = 0;
  server_ = std::make_unique<server::Server>(db_.get(), sopts);
  NLQ_RETURN_IF_ERROR(server_->Start());

  for (size_t w = 0; w < options_.clients; ++w) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  for (size_t c = 0; c < kNumClasses; ++c) {
    stats_.push_back(std::make_unique<ClassStats>());
  }
  return Status::OK();
}

void SoakDriver::Teardown() {
  if (options_.chaos) failpoint::DeactivateAll();
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  oracle_.reset();
  db_.reset();
}

bool SoakDriver::EnsureConnected(server::NlqClient* client, size_t w,
                                 WorkloadClass /*c*/) {
  if (client->connected()) return true;
  while (!stop_.load(std::memory_order_acquire)) {
    client->Close();
    Status s = client->Connect("127.0.0.1", server_->port(),
                               /*timeout_ms=*/60'000);
    if (s.ok()) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      workers_[w]->session_id.store(client->session_id(),
                                    std::memory_order_release);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

StatusOr<engine::ResultSet> SoakDriver::RunStatement(
    server::NlqClient* client, size_t w, WorkloadClass c,
    const std::string& sql) {
  ClassStats& stats = *stats_[static_cast<size_t>(c)];
  if (!EnsureConnected(client, w, c)) {
    return Status::Unavailable("soak stopping");
  }
  stats.attempts.fetch_add(1, std::memory_order_relaxed);
  const auto start = Clock::now();
  StatusOr<engine::ResultSet> result = client->Query(sql);
  const uint64_t nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  if (result.ok()) {
    stats.completed.fetch_add(1, std::memory_order_relaxed);
    stats.latency.Observe(nanos);
    const int64_t slo = options_.classes[static_cast<size_t>(c)].slo_ms;
    if (nanos <= static_cast<uint64_t>(slo) * 1'000'000ull) {
      stats.within_slo.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  }

  const Status& s = result.status();
  if (!client->connected()) {
    // Local stream death (server_read/server_write chaos, shutdown):
    // no server reply, so no flag to check. Reconnect and move on.
    stats.transport_errors.fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  const bool retryable = client->last_error_retryable();
  const bool admission_code = s.code() == StatusCode::kResourceExhausted ||
                              s.code() == StatusCode::kDeadlineExceeded;
  // The invariant every rejection must honor: with no per-query
  // budgets or timeouts set by any soak session, kResourceExhausted /
  // kDeadlineExceeded can only come from admission (retryable), and
  // everything else must be flagged non-retryable.
  if (admission_code != retryable) {
    flag_violations_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(error_log_mu_);
    if (error_log_.size() < 32) {
      error_log_.push_back("wrong retryable flag (" +
                           std::string(retryable ? "true" : "false") +
                           ") on: " + s.ToString());
    }
  }
  if (admission_code) {
    stats.rejected.fetch_add(1, std::memory_order_relaxed);
  } else if (s.code() == StatusCode::kCancelled) {
    stats.cancelled.fetch_add(1, std::memory_order_relaxed);
  } else if (s.message().find(kChaosFaultMarker) != std::string::npos) {
    stats.chaos_faults.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats.other_errors.fetch_add(1, std::memory_order_relaxed);
    internal_errors_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(error_log_mu_);
    if (error_log_.size() < 32) {
      error_log_.push_back("unexpected error for [" + sql.substr(0, 80) +
                           "]: " + s.ToString());
    }
  }
  return result;
}

void SoakDriver::RunBuild(server::NlqClient* client, size_t w, Random* rng,
                          bool grouped) {
  // Spilled table gets ~1/4 of ungrouped builds; grouped builds stay
  // on appendable tables so that shape sees appends move underneath it.
  size_t t;
  if (!grouped && options_.spilled_table && rng->NextUint64(4) == 0) {
    t = BuildOracle::SpilledIndex(options_);
  } else {
    t = static_cast<size_t>(rng->NextUint64(options_.tables));
  }
  const std::string table = t == BuildOracle::SpilledIndex(options_)
                                ? kSpilledTableName
                                : BuildOracle::TableName(t);
  const std::vector<std::string> cols = stats::DimensionColumns(options_.dims);
  const std::string group_expr =
      "i % " + std::to_string(options_.groups);
  const std::string sql =
      grouped ? stats::NlqUdfQueryGrouped(table, cols,
                                          stats::MatrixKind::kLowerTriangular,
                                          stats::ParamStyle::kList, group_expr)
              : stats::NlqUdfQuery(table, cols,
                                   stats::MatrixKind::kLowerTriangular,
                                   stats::ParamStyle::kList);
  const WorkloadClass c =
      grouped ? WorkloadClass::kGroupedBuild : WorkloadClass::kBuild;
  StatusOr<engine::ResultSet> result = RunStatement(client, w, c, sql);
  if (!result.ok() || !options_.verify_builds) return;

  // Observed row count back out of the sufficient statistics: build
  // columns are NULL-free, so n counts every row the scan saw (for
  // grouped builds, summed across segments).
  uint64_t observed = 0;
  const size_t stats_col = grouped ? 1 : 0;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    auto decoded = stats::SufStatsFromUdfResult(*result, r, stats_col);
    if (!decoded.ok()) {
      oracle_checks_.fetch_add(1, std::memory_order_relaxed);
      oracle_mismatches_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(error_log_mu_);
      if (error_log_.size() < 32) {
        error_log_.push_back("oracle: undecodable build payload: " +
                             decoded.status().ToString());
      }
      return;
    }
    observed += static_cast<uint64_t>(std::llround(decoded->n()));
  }
  oracle_checks_.fetch_add(1, std::memory_order_relaxed);
  Status verified = oracle_->VerifyBuild(t, observed, sql, *result);
  if (!verified.ok()) {
    oracle_mismatches_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(error_log_mu_);
    if (error_log_.size() < 32) error_log_.push_back(verified.ToString());
  }
}

void SoakDriver::RunIterative(server::NlqClient* client, size_t w,
                              Random* rng) {
  const size_t t = static_cast<size_t>(rng->NextUint64(options_.tables));
  const std::string table = BuildOracle::TableName(t);

  // EM-style chain: means first, then SSE rescans against literal
  // centroids derived from the previous reply — each iteration is a
  // fresh statement whose text depends on data the server returned.
  std::string sql = "SELECT COUNT(*)";
  for (size_t c = 1; c <= options_.dims; ++c) {
    sql += StringPrintf(", SUM(X%zu)", c);
  }
  sql += " FROM " + table;
  StatusOr<engine::ResultSet> means =
      RunStatement(client, w, WorkloadClass::kIterative, sql);
  if (!means.ok() || means->num_rows() != 1) return;
  const double n = means->At(0, 0).AsDouble();
  if (n <= 0) return;
  std::vector<double> center(options_.dims);
  for (size_t c = 0; c < options_.dims; ++c) {
    center[c] = means->At(0, c + 1).AsDouble() / n;
  }

  for (size_t it = 1; it < options_.iterations; ++it) {
    std::string dist = "(X1 - " + StringPrintf("%.17g", center[0]) + ") * " +
                       "(X1 - " + StringPrintf("%.17g", center[0]) + ")";
    for (size_t c = 2; c <= options_.dims; ++c) {
      const std::string lit = StringPrintf("%.17g", center[c - 1]);
      dist += StringPrintf(" + (X%zu - %s) * (X%zu - %s)", c, lit.c_str(), c,
                           lit.c_str());
    }
    const std::string rescan =
        "SELECT COUNT(*), SUM(" + dist + ") FROM " + table;
    StatusOr<engine::ResultSet> sse =
        RunStatement(client, w, WorkloadClass::kIterative, rescan);
    if (!sse.ok() || sse->num_rows() != 1) return;
    const double count = sse->At(0, 0).AsDouble();
    if (count <= 0) return;
    // Nudge the centroid so the next statement text differs (the
    // bytecode/plan caches still see a brand-new statement, as a real
    // EM loop would produce).
    const double spread = sse->At(0, 1).AsDouble() / count;
    for (size_t c = 0; c < options_.dims; ++c) {
      center[c] += spread / static_cast<double>((c + 2) * 100);
    }
  }
}

void SoakDriver::RunScoring(server::NlqClient* client, size_t w,
                            Random* rng) {
  // Rotate linreg UDF / linreg SQL / k-means UDF scoring shapes, each
  // LIMIT-bounded so the burst stresses statement rate, not result
  // transfer.
  for (size_t q = 0; q < options_.scoring_burst; ++q) {
    size_t t;
    if (options_.spilled_table && rng->NextUint64(4) == 0) {
      t = BuildOracle::SpilledIndex(options_);
    } else {
      t = static_cast<size_t>(rng->NextUint64(options_.tables));
    }
    const std::string table = t == BuildOracle::SpilledIndex(options_)
                                  ? kSpilledTableName
                                  : BuildOracle::TableName(t);
    std::string sql;
    switch (rng->NextUint64(3)) {
      case 0:
        sql = stats::LinRegScoreUdfQuery(table, "BETA", options_.dims);
        break;
      case 1:
        sql = stats::LinRegScoreSqlQuery(table, "BETA", options_.dims);
        break;
      default:
        sql = stats::KMeansScoreUdfQuery(table, "C", options_.dims,
                                         options_.groups);
        break;
    }
    sql += " LIMIT " + std::to_string(options_.scoring_limit);
    if (!RunStatement(client, w, WorkloadClass::kScoring, sql).ok()) return;
  }
}

void SoakDriver::RunAppend(server::NlqClient* client, size_t w, Random* rng) {
  const size_t t = static_cast<size_t>(rng->NextUint64(options_.tables));
  TableState& table = *tables_[t];
  // Appends opt out of cancellation: a pending cancel landing on an
  // INSERT would be indistinguishable from a lost batch.
  workers_[w]->cancellable.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(table.append_mu);
  const uint64_t batch = table.applied_batches;
  const std::string sql = BuildOracle::BatchInsertSql(options_, t, batch);
  StatusOr<engine::ResultSet> result =
      RunStatement(client, w, WorkloadClass::kAppend, sql);
  if (result.ok()) {
    table.applied_batches = batch + 1;
    return;
  }
  if (!client->connected()) {
    // Unknown outcome: the INSERT may or may not have executed before
    // the stream died — and it may STILL be in flight server-side
    // (queued in admission, or executing on the orphaned session).
    // Resync from COUNT(*) under the same mutex, but only after the
    // orphaned session is provably dead, or the count can miss an
    // INSERT that lands afterwards and the driver would re-send the
    // same batch, silently duplicating 64 rows.
    const uint64_t orphan =
        workers_[w]->session_id.load(std::memory_order_acquire);
    RecoverAppendCount(client, w, t, &table, orphan);
  }
  // A definite error reply (rejection, pre-execution cancel) means the
  // batch was not applied; applied_batches stays put. Defensively
  // resync on cancels too — if a cancel ever landed mid-INSERT, the
  // count would be torn and the oracle must know. The reply arrived on
  // a live stream, so the statement is settled: no orphan barrier.
  else if (result.status().code() == StatusCode::kCancelled) {
    RecoverAppendCount(client, w, t, &table, /*orphan_session=*/0);
  }
}

void SoakDriver::RecoverAppendCount(server::NlqClient* client, size_t w,
                                    size_t t, TableState* table,
                                    uint64_t orphan_session) {
  append_recoveries_.fetch_add(1, std::memory_order_relaxed);
  // Death barrier. The abandoned connection's session can still carry
  // the INSERT: queued in admission (up to max_queue_wait_ms) or
  // executing. COUNT(*) on a fresh connection is only authoritative
  // once that session can no longer mutate the table, i.e. once the
  // registry has deregistered it — CancelSession(orphan) returns
  // kNotFound exactly then. The cancel itself accelerates settlement:
  // a still-queued statement fails fast with its token flipped, and
  // the session dies writing any reply to the closed socket. Without
  // this barrier the count races the orphan, the driver re-sends a
  // batch the table already has, and every later build on the table
  // mismatches the oracle (observed in 65 s chaos soaks as persistent
  // duplicate-batch divergence).
  while (orphan_session != 0 && !stop_.load(std::memory_order_acquire)) {
    if (!EnsureConnected(client, w, WorkloadClass::kAppend)) return;
    Status cancel = client->Cancel(orphan_session);
    if (cancel.code() == StatusCode::kNotFound) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::string sql =
      "SELECT COUNT(*) FROM " + BuildOracle::TableName(t);
  while (!stop_.load(std::memory_order_acquire)) {
    if (!EnsureConnected(client, w, WorkloadClass::kAppend)) return;
    StatusOr<engine::ResultSet> rs = client->Query(sql);
    if (rs.ok() && rs->num_rows() == 1) {
      const uint64_t count =
          static_cast<uint64_t>(std::llround(rs->At(0, 0).AsDouble()));
      if (count % options_.batch_rows != 0) {
        oracle_mismatches_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_log_mu_);
        if (error_log_.size() < 32) {
          error_log_.push_back(StringPrintf(
              "oracle: torn append on %s — COUNT(*) = %llu is not a "
              "batch boundary",
              BuildOracle::TableName(t).c_str(),
              static_cast<unsigned long long>(count)));
        }
      }
      table->applied_batches = count / options_.batch_rows;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void SoakDriver::RunCancel(server::NlqClient* client, size_t w, Random* rng) {
  // Aim at a random cancellable worker's session (possibly idle: the
  // pending-cancel path is part of the surface under test).
  uint64_t target = 0;
  for (int probe = 0; probe < 8 && target == 0; ++probe) {
    const size_t v = static_cast<size_t>(rng->NextUint64(options_.clients));
    if (v == w) continue;
    if (!workers_[v]->cancellable.load(std::memory_order_acquire)) continue;
    target = workers_[v]->session_id.load(std::memory_order_acquire);
  }
  if (target == 0) return;

  ClassStats& stats = *stats_[static_cast<size_t>(WorkloadClass::kCancel)];
  if (!EnsureConnected(client, w, WorkloadClass::kCancel)) return;
  stats.attempts.fetch_add(1, std::memory_order_relaxed);
  const auto start = Clock::now();
  Status s = client->Cancel(target);
  const uint64_t nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  if (s.ok() || s.code() == StatusCode::kNotFound) {
    // kNotFound = the victim reconnected meanwhile; the round trip
    // itself is the measured operation.
    stats.completed.fetch_add(1, std::memory_order_relaxed);
    stats.latency.Observe(nanos);
    const int64_t slo =
        options_.classes[static_cast<size_t>(WorkloadClass::kCancel)].slo_ms;
    if (nanos <= static_cast<uint64_t>(slo) * 1'000'000ull) {
      stats.within_slo.fetch_add(1, std::memory_order_relaxed);
    }
    if (!s.ok() && client->last_error_retryable()) {
      flag_violations_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (!client->connected()) {
    stats.transport_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stats.other_errors.fetch_add(1, std::memory_order_relaxed);
  internal_errors_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(error_log_mu_);
  if (error_log_.size() < 32) {
    error_log_.push_back("unexpected CANCEL reply: " + s.ToString());
  }
}

void SoakDriver::WorkerMain(size_t w) {
  Random rng(options_.rng_seed * 1'000'003 + w * 7919 + 17);
  server::NlqClient client;
  if (!EnsureConnected(&client, w, WorkloadClass::kBuild)) return;

  double total_weight = 0;
  for (size_t c = 0; c < kNumClasses; ++c) {
    total_weight += options_.classes[c].weight;
  }

  while (!stop_.load(std::memory_order_acquire)) {
    double pick = rng.NextDouble() * total_weight;
    size_t ci = 0;
    for (; ci + 1 < kNumClasses; ++ci) {
      pick -= options_.classes[ci].weight;
      if (pick < 0) break;
    }
    const WorkloadClass c = static_cast<WorkloadClass>(ci);
    workers_[w]->cancellable.store(c != WorkloadClass::kAppend,
                                   std::memory_order_release);
    switch (c) {
      case WorkloadClass::kBuild:
        RunBuild(&client, w, &rng, /*grouped=*/false);
        break;
      case WorkloadClass::kGroupedBuild:
        RunBuild(&client, w, &rng, /*grouped=*/true);
        break;
      case WorkloadClass::kIterative:
        RunIterative(&client, w, &rng);
        break;
      case WorkloadClass::kScoring:
        RunScoring(&client, w, &rng);
        break;
      case WorkloadClass::kAppend:
        RunAppend(&client, w, &rng);
        break;
      case WorkloadClass::kCancel:
        RunCancel(&client, w, &rng);
        break;
    }
  }
  workers_[w]->cancellable.store(false, std::memory_order_release);
  workers_[w]->session_id.store(0, std::memory_order_release);
  if (client.connected()) client.Goodbye();
}

void SoakDriver::ChaosMain() {
  if (!options_.chaos || !failpoint::BuiltWithFailpoints()) return;
  const std::string export_path =
      StringPrintf("/tmp/nlq_soak_odbc_%d.csv", static_cast<int>(::getpid()));
  size_t phase = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    chaos_phases_.fetch_add(1, std::memory_order_relaxed);
    switch (phase % 5) {
      case 0:
        // Maintained-view refresh faults: statements must degrade to
        // a rescan with correct (oracle-checked) results, no errors.
        failpoint::Activate(
            "view_maintenance",
            Status::IOError("injected chaos fault: view_maintenance"),
            /*skip=*/0, /*fire_count=*/8);
        break;
      case 1:
        // Spilled-page decode faults: statements on TS fail cleanly
        // with the injected error; the engine stays usable.
        failpoint::Activate(
            "page_decompress",
            Status::IOError("injected chaos fault: page_decompress"),
            /*skip=*/0, /*fire_count=*/8);
        break;
      case 2:
        failpoint::Activate(
            "server_read",
            Status::IOError("injected chaos fault: server_read"),
            /*skip=*/0, /*fire_count=*/4);
        break;
      case 3:
        failpoint::Activate(
            "server_write",
            Status::IOError("injected chaos fault: server_write"),
            /*skip=*/0, /*fire_count=*/4);
        break;
      case 4: {
        // ODBC retry drill: two transient link drops; the default
        // policy (3 attempts) must ride them out mid-soak.
        failpoint::Activate("odbc_export",
                            Status::IOError("injected chaos fault: odbc"),
                            /*skip=*/0, /*fire_count=*/2);
        auto table = db_->catalog().GetTable(kExportTableName);
        if (table.ok()) {
          connect::OdbcExporter exporter;
          auto result = exporter.ExportTable(**table, export_path);
          if (result.ok() && result->attempts == 3) {
            odbc_retry_exercises_.fetch_add(1, std::memory_order_relaxed);
          } else if (!result.ok()) {
            internal_errors_.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(error_log_mu_);
            if (error_log_.size() < 32) {
              error_log_.push_back("odbc retry drill failed: " +
                                   result.status().ToString());
            }
          }
          std::remove(export_path.c_str());
        }
        failpoint::Deactivate("odbc_export");
        break;
      }
    }
    const auto until =
        Clock::now() + std::chrono::milliseconds(options_.chaos_phase_ms);
    while (!stop_.load(std::memory_order_acquire) && Clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    failpoint::Deactivate("view_maintenance");
    failpoint::Deactivate("page_decompress");
    failpoint::Deactivate("server_read");
    failpoint::Deactivate("server_write");
    ++phase;
  }
  failpoint::DeactivateAll();
}

Status SoakDriver::Run() {
  NLQ_RETURN_IF_ERROR(Setup());
  report_.chaos_enabled = options_.chaos && failpoint::BuiltWithFailpoints();

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(options_.clients + 1);
  for (size_t w = 0; w < options_.clients; ++w) {
    threads.emplace_back([this, w] { WorkerMain(w); });
  }
  std::thread chaos([this] { ChaosMain(); });

  const auto deadline =
      start + std::chrono::milliseconds(options_.duration_ms);
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  chaos.join();
  const double elapsed_sec =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Server-side queue-wait percentiles over the structured metrics
  // reply (the satellite API this harness depends on).
  {
    server::NlqClient client;
    if (client.Connect("127.0.0.1", server_->port()).ok()) {
      auto summary = client.MetricsHistogram("server.queue_wait");
      if (summary.ok()) {
        report_.queue_wait_count = summary->count;
        report_.queue_wait_p95_ms = NanosToMs(summary->p95_nanos);
      }
      client.Goodbye();
    }
  }

  FinalizeReport(elapsed_sec);
  Teardown();
  return Status::OK();
}

void SoakDriver::FinalizeReport(double elapsed_sec) {
  report_.elapsed_sec = elapsed_sec;
  report_.oracle_checks = oracle_checks_.load();
  report_.oracle_mismatches = oracle_mismatches_.load();
  report_.retryable_flag_violations = flag_violations_.load();
  report_.internal_errors = internal_errors_.load();
  report_.reconnects = reconnects_.load();
  report_.append_recoveries = append_recoveries_.load();
  report_.chaos_phases = chaos_phases_.load();
  report_.odbc_retry_exercises = odbc_retry_exercises_.load();

  uint64_t total_completed = 0, total_within_slo = 0;
  for (size_t c = 0; c < kNumClasses; ++c) {
    const ClassStats& s = *stats_[c];
    ClassReport r;
    r.name = ClassName(static_cast<WorkloadClass>(c));
    r.slo_ms = options_.classes[c].slo_ms;
    r.attempts = s.attempts.load();
    r.completed = s.completed.load();
    r.within_slo = s.within_slo.load();
    r.rejected = s.rejected.load();
    r.cancelled = s.cancelled.load();
    r.chaos_faults = s.chaos_faults.load();
    r.transport_errors = s.transport_errors.load();
    r.other_errors = s.other_errors.load();
    r.p50_ms = NanosToMs(s.latency.Percentile(0.50));
    r.p95_ms = NanosToMs(s.latency.Percentile(0.95));
    r.p99_ms = NanosToMs(s.latency.Percentile(0.99));
    total_completed += r.completed;
    total_within_slo += r.within_slo;
    report_.classes.push_back(std::move(r));
  }
  report_.total_completed = total_completed;
  if (elapsed_sec > 0) {
    report_.stmts_per_sec = static_cast<double>(total_completed) / elapsed_sec;
    report_.stmts_per_sec_at_slo =
        static_cast<double>(total_within_slo) / elapsed_sec;
  }
}

}  // namespace nlq::soak
