#ifndef NLQ_BENCH_SOAK_SOAK_H_
#define NLQ_BENCH_SOAK_SOAK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/result_set.h"
#include "server/client.h"
#include "server/server.h"

namespace nlq::soak {

/// Mixed-workload soak harness: N client threads over the nlq_server
/// wire protocol executing a weighted mix of the six workload classes
/// the north star cares about, with per-class latency histograms, a
/// bit-exact correctness oracle for every build reply, a retryable-
/// flag invariant on every rejection, and failpoint-driven chaos
/// phases running inside the soak. See EXPERIMENTS.md "Soak & SLO".
///
/// Determinism contract the oracle rests on:
///  - Every row of every soak table is a pure function of
///    (table index, global row index); batch b of table t is always
///    the same INSERT statement text (BatchInsertSql), so the doubles
///    the server parses are bit-identical to the ones the oracle
///    parses.
///  - Appends to one table are serialized driver-side (per-table
///    mutex) and each INSERT holds the Database exclusive statement
///    gate, so every concurrent build observes the table at an exact
///    batch boundary: row count k * batch_rows for some k.
///  - A build's observed row count is recovered from the returned
///    sufficient statistics (n), which lets the oracle replay exactly
///    the logical table state that build saw — single-threaded, views
///    off, same partitions/morsels — and demand a bit-identical
///    result.

enum class WorkloadClass : size_t {
  kBuild = 0,     // ungrouped n,L,Q model build (aggregate UDF)
  kGroupedBuild,  // per-segment GROUP BY build
  kIterative,     // K-means/EM-style iterative rescans
  kScoring,       // linreg scoring bursts (UDF + SQL styles)
  kAppend,        // streaming INSERT batches (PR-8 view path)
  kCancel,        // random CANCELs aimed at other sessions
};
inline constexpr size_t kNumClasses = 6;

const char* ClassName(WorkloadClass c);

/// Per-class mix weight and declared latency SLO.
struct ClassConfig {
  double weight = 0.0;
  int64_t slo_ms = 0;
};

struct SoakOptions {
  size_t clients = 16;
  int64_t duration_ms = 60'000;
  uint64_t rng_seed = 42;

  /// Appendable model tables T0..T{tables-1}, plus (optionally) one
  /// never-appended spilled table TS — the page_decompress chaos
  /// target — and one small static table TEXPORT for the odbc chaos
  /// phase.
  size_t tables = 2;
  size_t dims = 3;             // X1..Xd
  uint64_t seed_batches = 32;  // initial batches per table
  uint64_t batch_rows = 64;    // rows per append batch
  bool spilled_table = true;

  size_t iterations = 3;     // rescans per iterative statement chain
  size_t scoring_burst = 4;  // statements per scoring burst
  size_t groups = 4;         // GROUP BY segments (group key i % groups)
  size_t scoring_limit = 512;  // LIMIT on scoring result sets

  /// Failpoint chaos phases; silently skipped when the binary was not
  /// built with NLQ_FAILPOINTS.
  bool chaos = true;
  int64_t chaos_phase_ms = 3'000;

  // Server shape (soak intentionally oversubscribes the slots).
  size_t max_concurrent_statements = 4;
  size_t max_queue_depth = 32;
  int64_t max_queue_wait_ms = 5'000;
  size_t max_sessions = 64;

  /// Engine shape — the oracle mirrors partitions/morsels exactly.
  size_t num_partitions = 4;
  uint64_t morsel_rows = 16384;

  /// Oracle-check every build/grouped-build reply.
  bool verify_builds = true;

  /// Indexed by WorkloadClass.
  ClassConfig classes[kNumClasses] = {
      {0.22, 250},  // build
      {0.14, 400},  // grouped build
      {0.10, 800},  // iterative
      {0.18, 400},  // scoring
      {0.24, 250},  // append
      {0.12, 100},  // cancel
  };
};

/// Post-run numbers for one workload class.
struct ClassReport {
  std::string name;
  int64_t slo_ms = 0;
  uint64_t attempts = 0;
  uint64_t completed = 0;
  uint64_t within_slo = 0;
  uint64_t rejected = 0;        // retryable admission rejections
  uint64_t cancelled = 0;       // kCancelled replies (expected)
  uint64_t chaos_faults = 0;    // injected-fault error replies
  uint64_t transport_errors = 0;  // local stream death -> reconnect
  uint64_t other_errors = 0;    // anything else (soak failure)
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
};

struct SoakReport {
  double elapsed_sec = 0;
  uint64_t total_completed = 0;
  double stmts_per_sec = 0;
  /// Completed statements that met their class SLO, per second — the
  /// scoreboard number (queries/sec at fixed SLO).
  double stmts_per_sec_at_slo = 0;

  uint64_t oracle_checks = 0;
  uint64_t oracle_mismatches = 0;
  uint64_t retryable_flag_violations = 0;
  uint64_t internal_errors = 0;
  uint64_t reconnects = 0;
  uint64_t append_recoveries = 0;  // COUNT(*) resyncs after unknown outcome
  uint64_t chaos_phases = 0;
  uint64_t odbc_retry_exercises = 0;
  bool chaos_enabled = false;

  /// Server-side queue-wait percentiles (METRICS_HISTOGRAM reply).
  uint64_t queue_wait_count = 0;
  double queue_wait_p95_ms = 0;

  std::vector<ClassReport> classes;

  /// Zero mismatches, zero flag violations, zero unexplained errors.
  bool Healthy() const;
  std::string ToJson() const;
};

/// Reconstructs table states from the deterministic batch sequence and
/// replays build statements on embedded single-threaded databases for
/// bit-exact comparison against wire results. Thread-safe; one
/// replay database per table, created lazily, advanced in batch order.
class BuildOracle {
 public:
  explicit BuildOracle(const SoakOptions& options) : options_(options) {}

  /// Logical table names. Indexes 0..tables-1 are appendable;
  /// SpilledIndex() names the static spilled table.
  static std::string TableName(size_t t);
  static size_t SpilledIndex(const SoakOptions& options) {
    return options.tables;
  }

  static std::string CreateTableSql(const SoakOptions& options,
                                    const std::string& table);

  /// The INSERT statement for batch `batch` of table `t` — identical
  /// text on the live and replay sides, which is what makes the
  /// parsed doubles bit-identical.
  static std::string BatchInsertSql(const SoakOptions& options, size_t t,
                                    uint64_t batch);

  /// Verifies that `wire` — the reply to `sql` against table `t`
  /// claiming to observe `observed_rows` rows — is bit-identical to a
  /// single-threaded embedded replay of exactly that table state.
  /// Returns OK on a bit-exact match, an error describing the
  /// divergence otherwise.
  Status VerifyBuild(size_t t, uint64_t observed_rows, const std::string& sql,
                     const engine::ResultSet& wire);

 private:
  struct TableOracle {
    std::mutex mu;
    std::unique_ptr<engine::Database> db;
    uint64_t batches = 0;
  };

  SoakOptions options_;
  std::mutex map_mu_;
  std::vector<std::unique_ptr<TableOracle>> tables_;
};

/// Bit-exact result comparison (schema arity, row count, and every
/// datum — doubles by IEEE-754 bit pattern). OK when identical.
Status ExpectBitIdentical(const engine::ResultSet& expected,
                          const engine::ResultSet& actual);

/// The soak driver: owns the server-side database + in-process
/// nlq Server, the worker threads, the chaos controller and the
/// oracle. Run() blocks for the configured duration.
class SoakDriver {
 public:
  explicit SoakDriver(SoakOptions options);
  ~SoakDriver();

  SoakDriver(const SoakDriver&) = delete;
  SoakDriver& operator=(const SoakDriver&) = delete;

  /// Setup, soak for duration_ms, teardown, populate report().
  Status Run();

  const SoakReport& report() const { return report_; }

  /// First few oracle / flag-violation / internal-error descriptions,
  /// for diagnostics when report().Healthy() is false.
  std::vector<std::string> errors() {
    std::lock_guard<std::mutex> lock(error_log_mu_);
    return error_log_;
  }

 private:
  struct WorkerState {
    std::atomic<uint64_t> session_id{0};
    /// Whether a CANCEL aimed at this worker right now is harmless
    /// (builds/scoring yes; appends opt out so a pending cancel
    /// cannot land on an INSERT).
    std::atomic<bool> cancellable{false};
  };

  struct TableState {
    /// Serializes append batches so table state only ever advances
    /// through exact batch boundaries.
    std::mutex append_mu;
    uint64_t applied_batches = 0;  // guarded by append_mu
  };

  struct ClassStats {
    std::atomic<uint64_t> attempts{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> within_slo{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> cancelled{0};
    std::atomic<uint64_t> chaos_faults{0};
    std::atomic<uint64_t> transport_errors{0};
    std::atomic<uint64_t> other_errors{0};
    Histogram latency;
  };

  Status Setup();
  void Teardown();
  void WorkerMain(size_t w);
  void ChaosMain();

  /// Ensures `client` is connected, reconnecting (and counting) as
  /// long as the soak is running. False once stopped.
  bool EnsureConnected(server::NlqClient* client, size_t w,
                       WorkloadClass c);

  /// Sends one statement, classifies the outcome into `c`'s counters
  /// and observes latency on completion. Returns the rows on success.
  StatusOr<engine::ResultSet> RunStatement(server::NlqClient* client,
                                           size_t w, WorkloadClass c,
                                           const std::string& sql);

  void RunBuild(server::NlqClient* client, size_t w, Random* rng,
                bool grouped);
  void RunIterative(server::NlqClient* client, size_t w, Random* rng);
  void RunScoring(server::NlqClient* client, size_t w, Random* rng);
  void RunAppend(server::NlqClient* client, size_t w, Random* rng);
  void RunCancel(server::NlqClient* client, size_t w, Random* rng);

  /// Resyncs applied_batches from COUNT(*) after an append whose
  /// outcome is unknown (stream died mid-round-trip, or cancelled).
  /// When the stream died, `orphan_session` names the abandoned
  /// session; the count is taken only after CancelSession(orphan)
  /// reports kNotFound, proving the in-flight INSERT can no longer
  /// land after the count. Pass 0 when the reply arrived on a live
  /// stream (statement already settled). Caller holds the table's
  /// append_mu.
  void RecoverAppendCount(server::NlqClient* client, size_t w, size_t t,
                          TableState* table, uint64_t orphan_session);

  void FinalizeReport(double elapsed_sec);

  SoakOptions options_;
  SoakReport report_;

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<server::Server> server_;
  std::unique_ptr<BuildOracle> oracle_;

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::unique_ptr<TableState>> tables_;
  std::vector<std::unique_ptr<ClassStats>> stats_;

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> oracle_checks_{0};
  std::atomic<uint64_t> oracle_mismatches_{0};
  std::atomic<uint64_t> flag_violations_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> append_recoveries_{0};
  std::atomic<uint64_t> chaos_phases_{0};
  std::atomic<uint64_t> odbc_retry_exercises_{0};
  std::atomic<uint64_t> internal_errors_{0};

  std::mutex error_log_mu_;
  std::vector<std::string> error_log_;  // first few oracle/internal errors
};

}  // namespace nlq::soak

#endif  // NLQ_BENCH_SOAK_SOAK_H_
