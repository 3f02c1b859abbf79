// serve_mixed: statements over loopback to an in-process server with
// admission control and maintained views (see README.md, "Workloads").

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "bench/soak/soak.h"
#include "checks.h"
#include "common/random.h"
#include "common/strings.h"
#include "engine/database.h"
#include "probes.h"
#include "server/client.h"
#include "server/server.h"
#include "stats/scoring.h"
#include "stats/sqlgen.h"
#include "stats/sufstats.h"
#include "storage/partitioned_table.h"
#include "trace.h"
#include "workloads.h"

namespace nlq::repobench {
namespace {

constexpr size_t kClients = 3;  // driving threads, one connection each
// One admission slot below three clients keeps a statement always
// queued, so the server never idles waiting for a client's next send.
constexpr size_t kSlots = 1;
constexpr size_t kQueueDepth = 16;  // > clients: nothing is refused
constexpr size_t kPoolThreads = 1;  // the engine's minimum
constexpr size_t kPartitions = 4;
constexpr uint64_t kMorselRows = 16384;
constexpr size_t kDims = 8;
constexpr uint64_t kBatchRows = 64;
constexpr uint64_t kSeedBatches = 64;    // 4,096 seed rows per table
constexpr uint64_t kRotateBatches = 64;  // rotate at 8,192 rows
constexpr size_t kGroups = 16;
constexpr size_t kScoreLimit = 256;
constexpr size_t kTableSlots = 2;  // two appendable tables at any time
constexpr int kSetups = 5;  // setup_s is their median
constexpr double kSegmentSeconds = 2;

enum Class { kRefresh, kBuildGrouped, kScore, kAppend, kNumClasses };
constexpr const char* kClassNames[kNumClasses] = {"refresh", "build_grouped",
                                                  "score", "append"};
constexpr const char* kOpSpan[kNumClasses] = {
    "op.refresh", "op.build_grouped", "op.score", "op.append"};
constexpr double kWeights[kNumClasses] = {0.35, 0.25, 0.2, 0.2};

soak::SoakOptions OracleOptions() {
  soak::SoakOptions o;
  // Table indexes never reach SpilledIndex(): no spilled table here.
  o.tables = ~size_t{0};
  o.spilled_table = false;
  o.dims = kDims;
  o.seed_batches = kSeedBatches;
  o.batch_rows = kBatchRows;
  o.num_partitions = kPartitions;
  o.morsel_rows = kMorselRows;
  return o;
}

std::string BetaCreateSql() {
  std::string sql = "CREATE TABLE BETA (b0 DOUBLE";
  for (size_t c = 1; c <= kDims; ++c) sql += StringPrintf(", b%zu DOUBLE", c);
  return sql + ")";
}

std::string BetaInsertSql() {
  std::string sql = "INSERT INTO BETA VALUES (0.5";
  for (size_t c = 1; c <= kDims; ++c) {
    sql += StringPrintf(", %.8f", static_cast<double>(c * 13 % 64) / 32.0);
  }
  return sql + ")";
}

std::string TableName(size_t t) { return soak::BuildOracle::TableName(t); }

std::string RefreshSql(size_t t) {
  return stats::NlqUdfQuery(TableName(t), stats::DimensionColumns(kDims),
                            stats::MatrixKind::kLowerTriangular,
                            stats::ParamStyle::kList);
}
std::string GroupedSql(size_t t) {
  return stats::NlqUdfQueryGrouped(
      TableName(t), stats::DimensionColumns(kDims),
      stats::MatrixKind::kLowerTriangular, stats::ParamStyle::kList,
      "i % " + std::to_string(kGroups));
}
/// LIMIT-bounded linreg scoring over the seed rows only, so the reply
/// does not depend on how many batches were appended.
std::string ScoreSql(size_t t) {
  return stats::LinRegScoreUdfQuery(TableName(t), "BETA", kDims) +
         StringPrintf(" WHERE i < %llu LIMIT %zu",
                      static_cast<unsigned long long>(kSeedBatches * kBatchRows),
                      kScoreLimit);
}

/// One appendable table position. Appends and rotation are serialized
/// by append_mu; readers pin the table they query so rotation never
/// drops it under them.
struct TableSlot {
  std::mutex append_mu;
  uint64_t applied_batches = 0;  // of `current`, guarded by append_mu

  std::mutex gen_mu;  // guards the three below
  size_t current = 0;
  std::map<size_t, int> readers;
  std::vector<size_t> retired;

  size_t Pin() {
    std::lock_guard<std::mutex> lock(gen_mu);
    ++readers[current];
    return current;
  }
  void Unpin(size_t t) {
    std::lock_guard<std::mutex> lock(gen_mu);
    --readers[t];
  }
};

/// A distinct reply, kept in full for the post-window oracle check.
struct ReplyKey {
  int cls;
  size_t t;
  uint64_t checksum;
  bool operator<(const ReplyKey& o) const {
    return std::tie(cls, t, checksum) < std::tie(o.cls, o.t, o.checksum);
  }
};

struct ClientState {
  ClientState(uint64_t seed, size_t client, bool trace)
      : rng(seed * 1'000'003 + client * 7919 + 17), log(trace) {
    for (const char* name : kClassNames) classes.emplace_back(name);
  }
  Random rng;  // this client's class and table choices
  SpanLog log;
  std::vector<ClassStats> classes;
  Samples all_ms;
  std::map<ReplyKey, engine::ResultSet> replies;
  std::vector<std::string> errors;
};

class ServeRunner {
 public:
  explicit ServeRunner(const BenchOptions& options)
      : options_(options), oracle_options_(OracleOptions()) {
    // The seed picks which deterministic table contents are served.
    table_base_ = 2 * (options.seed % 16);
  }

  ~ServeRunner() { Teardown(); }

  void Teardown() {
    clients_.clear();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    db_.reset();
  }

  /// Database, server, seeded tables, connections and one untimed op
  /// of every class per client. Returns the set-up time in seconds.
  StatusOr<double> Setup() {
    Teardown();
    ResetPeakRss();
    const int64_t t0 = NowNs();
    engine::DatabaseOptions dbopts;
    dbopts.num_partitions = kPartitions;
    dbopts.num_threads = kPoolThreads;
    dbopts.morsel_rows = kMorselRows;
    dbopts.enable_view_maintenance = true;
    dbopts.spill_directory = options_.work_dir;
    db_ = std::make_unique<engine::Database>(dbopts);
    NLQ_RETURN_IF_ERROR(stats::RegisterAllStatsUdfs(&db_->udfs()));

    server::ServerOptions sopts;
    sopts.admission.max_concurrent_statements = kSlots;
    sopts.admission.max_queue_depth = kQueueDepth;
    sopts.admission.max_queue_wait_ms = 60'000;
    sopts.idle_timeout_ms = 0;
    server_ = std::make_unique<server::Server>(db_.get(), sopts);
    NLQ_RETURN_IF_ERROR(server_->Start());
    for (size_t c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<server::NlqClient>());
      NLQ_RETURN_IF_ERROR(clients_.back()->Connect("127.0.0.1", server_->port(),
                                                   /*timeout_ms=*/60'000));
    }

    const int64_t g0 = NowNs();
    server::NlqClient& admin = *clients_[0];
    NLQ_RETURN_IF_ERROR(admin.Query(BetaCreateSql()).status());
    NLQ_RETURN_IF_ERROR(admin.Query(BetaInsertSql()).status());
    slots_.clear();
    for (size_t s = 0; s < kTableSlots; ++s) {
      slots_.push_back(std::make_unique<TableSlot>());
      slots_[s]->current = table_base_ + s;
      NLQ_RETURN_IF_ERROR(CreateSeeded(&admin, slots_[s]->current));
      slots_[s]->applied_batches = kSeedBatches;
    }
    load_s_.Add(static_cast<double>(NowNs() - g0) / 1e9);

    state_.clear();
    for (size_t c = 0; c < kClients; ++c) {
      state_.push_back(std::make_unique<ClientState>(options_.seed, c, false));
      for (int k = 0; k < kNumClasses; ++k) {
        RunOp(c, static_cast<Class>(k), 0, /*record=*/false);
      }
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  /// Starts a window: fresh per-client samples and span logs.
  void BeginWindow(bool trace) {
    state_.clear();
    for (size_t c = 0; c < kClients; ++c) {
      state_.push_back(std::make_unique<ClientState>(options_.seed, c, trace));
    }
  }

  /// One timed stretch of the closed loop: every client picks a seeded
  /// class, sends it and waits for the reply, until `seconds` pass.
  double RunSegment(double seconds, uint64_t* next_op) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> op_ids{*next_op};
    const int64_t start = NowNs();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([this, c, &stop, &op_ids] {
        Random& rng = state_[c]->rng;
        while (!stop.load(std::memory_order_acquire)) {
          double pick = rng.NextDouble();
          int k = 0;
          while (k + 1 < kNumClasses && (pick -= kWeights[k]) >= 0) ++k;
          RunOp(c, static_cast<Class>(k), op_ids.fetch_add(1), true);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    *next_op = op_ids.load();
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  /// Checks, then drops, every distinct reply stored since the last
  /// call: builds against the soak's single-threaded BuildOracle replay
  /// of the exact table state the reply observed, scoring against a
  /// replay of the seed state. Returns how many replies it checked.
  size_t VerifyReplies(RunReport* report) {
    std::map<ReplyKey, engine::ResultSet> replies;
    for (const auto& st : state_) {
      replies.merge(st->replies);
      st->replies.clear();
      for (const std::string& e : st->errors) report->Fail(e);
      st->errors.clear();
    }
    // Oracle replays advance batch by batch: check in (table, rows)
    // order so no table state is rebuilt from scratch.
    struct Pending {
      size_t t;
      uint64_t rows;
      int cls;
      const engine::ResultSet* rs;
    };
    std::vector<Pending> pending;
    for (const auto& [key, rs] : replies) {
      uint64_t rows = kSeedBatches * kBatchRows;
      if (key.cls != kScore) {
        rows = 0;
        for (size_t r = 0; r < rs.num_rows(); ++r) {
          auto suf = stats::SufStatsFromUdfResult(rs, r, key.cls == kRefresh ? 0 : 1);
          if (!suf.ok()) {
            report->Fail("undecodable build reply: " + suf.status().ToString());
            continue;
          }
          rows += static_cast<uint64_t>(std::llround(suf->n()));
        }
      }
      pending.push_back({key.t, rows, key.cls, &rs});
    }
    std::sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
      return std::tie(a.t, a.rows, a.cls) < std::tie(b.t, b.rows, b.cls);
    });
    soak::BuildOracle oracle(oracle_options_);
    for (const Pending& p : pending) {
      Status s;
      if (p.cls == kScore) {
        s = VerifyScore(p.t, *p.rs);
      } else {
        const std::string sql = p.cls == kRefresh ? RefreshSql(p.t) : GroupedSql(p.t);
        s = oracle.VerifyBuild(p.t, p.rows, sql, *p.rs);
      }
      if (!s.ok()) report->Fail(s.ToString());
    }
    return pending.size();
  }

  engine::Database* db() { return db_.get(); }
  uint16_t port() const { return server_->port(); }
  const std::vector<std::unique_ptr<ClientState>>& state() const { return state_; }
  const Samples& load_s() const { return load_s_; }
  size_t table_base() const { return table_base_; }

  /// Rows and stored bytes of the tables currently served.
  std::pair<uint64_t, uint64_t> CurrentTableSize() {
    uint64_t rows = 0, bytes = 0;
    for (const auto& slot : slots_) {
      const size_t t = slot->Pin();
      auto table = db_->catalog().GetTable(TableName(t));
      if (table.ok()) {
        rows += (*table)->num_rows();
        bytes += (*table)->data_bytes();
      }
      slot->Unpin(t);
    }
    return {rows, bytes};
  }

  size_t CurrentTable() { return slots_[0]->Pin(); }
  void Release(size_t t) { slots_[0]->Unpin(t); }

 private:
  Status CreateSeeded(server::NlqClient* client, size_t t) {
    NLQ_RETURN_IF_ERROR(client->Query(soak::BuildOracle::CreateTableSql(
                                          oracle_options_, TableName(t)))
                            .status());
    for (uint64_t b = 0; b < kSeedBatches; ++b) {
      NLQ_RETURN_IF_ERROR(
          client->Query(soak::BuildOracle::BatchInsertSql(oracle_options_, t, b))
              .status());
    }
    return Status::OK();
  }

  /// Sends one statement of class `k` from client `c`; records its
  /// latency and keeps the reply for the oracle.
  void RunOp(size_t c, Class k, uint64_t op_id, bool record) {
    ClientState& st = *state_[c];
    server::NlqClient& client = *clients_[c];
    TableSlot& slot = *slots_[st.rng.NextUint64(kTableSlots)];
    ClassStats& stats = st.classes[k];
    ++stats.attempted;
    if (k == kAppend) {
      std::lock_guard<std::mutex> lock(slot.append_mu);
      const size_t t = slot.current;
      const std::string sql =
          soak::BuildOracle::BatchInsertSql(oracle_options_, t, slot.applied_batches);
      const int64_t t0 = NowNs();
      Status s;
      {
        ScopedSpan op(&st.log, kOpSpan[k], op_id);
        ScopedSpan q(&st.log, "client.query");
        s = client.Query(sql).status();
      }
      const double ms = static_cast<double>(NowNs() - t0) / 1e6;
      if (!s.ok()) return Failed(&st, &stats, "append: " + s.ToString());
      ++slot.applied_batches;
      stats.latency_ms.Add(ms);
      st.all_ms.Add(ms);
      if (slot.applied_batches == kSeedBatches + kRotateBatches) {
        s = Rotate(&client, &slot);
        if (!s.ok()) st.errors.push_back("rotate: " + s.ToString());
      }
      return;
    }
    const size_t t = slot.Pin();
    const std::string sql =
        k == kRefresh ? RefreshSql(t) : k == kBuildGrouped ? GroupedSql(t) : ScoreSql(t);
    const int64_t t0 = NowNs();
    StatusOr<engine::ResultSet> rs = Status::Internal("not run");
    {
      ScopedSpan op(&st.log, kOpSpan[k], op_id);
      ScopedSpan q(&st.log, "client.query");
      rs = client.Query(sql);
    }
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    slot.Unpin(t);
    if (!rs.ok()) {
      return Failed(&st, &stats, std::string(kClassNames[k]) + ": " +
                                     rs.status().ToString());
    }
    stats.latency_ms.Add(ms);
    st.all_ms.Add(ms);
    if (record) st.replies.emplace(ReplyKey{k, t, ReplyChecksum(*rs)}, std::move(*rs));
  }

  static void Failed(ClientState* st, ClassStats* stats, const std::string& e) {
    ++stats->failed;
    if (st->errors.size() < 8) st->errors.push_back(e);
  }

  /// Swaps the slot to a freshly seeded table and drops the retired
  /// tables no reader still has pinned. Caller holds append_mu.
  Status Rotate(server::NlqClient* client, TableSlot* slot) {
    const size_t next = slot->current + kTableSlots;
    NLQ_RETURN_IF_ERROR(CreateSeeded(client, next));
    std::vector<size_t> drop;
    {
      std::lock_guard<std::mutex> lock(slot->gen_mu);
      slot->retired.push_back(slot->current);
      slot->current = next;
      auto keep = std::remove_if(slot->retired.begin(), slot->retired.end(),
                                 [&](size_t t) {
                                   if (slot->readers[t] > 0) return false;
                                   slot->readers.erase(t);
                                   drop.push_back(t);
                                   return true;
                                 });
      slot->retired.erase(keep, slot->retired.end());
    }
    slot->applied_batches = kSeedBatches;
    for (const size_t t : drop) {
      NLQ_RETURN_IF_ERROR(client->Query("DROP TABLE " + TableName(t)).status());
    }
    return Status::OK();
  }

  /// Replays table `t`'s seed state (plus BETA) single-threaded with
  /// views off and compares the scoring reply bit for bit.
  Status VerifyScore(size_t t, const engine::ResultSet& reply) {
    engine::DatabaseOptions o;
    o.num_partitions = kPartitions;
    o.morsel_rows = kMorselRows;
    o.num_threads = 1;
    engine::Database replay(o);
    NLQ_RETURN_IF_ERROR(stats::RegisterAllStatsUdfs(&replay.udfs()));
    NLQ_RETURN_IF_ERROR(replay.ExecuteCommand(BetaCreateSql()));
    NLQ_RETURN_IF_ERROR(replay.ExecuteCommand(BetaInsertSql()));
    NLQ_RETURN_IF_ERROR(replay.ExecuteCommand(
        soak::BuildOracle::CreateTableSql(oracle_options_, TableName(t))));
    for (uint64_t b = 0; b < kSeedBatches; ++b) {
      NLQ_RETURN_IF_ERROR(replay.ExecuteCommand(
          soak::BuildOracle::BatchInsertSql(oracle_options_, t, b)));
    }
    NLQ_ASSIGN_OR_RETURN(engine::ResultSet expected, replay.Execute(ScoreSql(t)));
    if (expected.num_rows() != kScoreLimit) {
      return Status::Internal("score reference has the wrong row count");
    }
    return CheckReply(expected, reply, "score on " + TableName(t));
  }

  const BenchOptions& options_;
  const soak::SoakOptions oracle_options_;
  size_t table_base_ = 0;
  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<server::Server> server_;
  std::vector<std::unique_ptr<server::NlqClient>> clients_;
  std::vector<std::unique_ptr<TableSlot>> slots_;
  std::vector<std::unique_ptr<ClientState>> state_;
  Samples load_s_;
};

struct WindowResult {
  std::vector<ClassStats> classes;
  Samples all_ms;
  double seconds = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  uint64_t ops = 0;
  size_t verified = 0;
  MetricsDelta counters;
};

/// The timed window, in segments of kSegmentSeconds. Between segments
/// the clients stop while the segment's replies are verified and
/// dropped, so neither the oracle's replays nor the stored replies
/// count in the timings, the counters or the peak RSS.
WindowResult TimedWindow(ServeRunner* runner, int seconds, bool trace,
                         uint64_t* next_op, RunReport* report) {
  WindowResult w;
  runner->BeginWindow(trace);
  for (double left = seconds; left > 1e-9; left -= kSegmentSeconds) {
    ResetPeakRss();
    w.counters.Begin();
    const double cpu0 = ProcessCpuSeconds();
    w.seconds += runner->RunSegment(std::min(left, kSegmentSeconds), next_op);
    w.cpu_s += ProcessCpuSeconds() - cpu0;
    w.counters.End();
    w.peak_rss_mb = std::max(w.peak_rss_mb, PeakRssMiB());
    w.verified += runner->VerifyReplies(report);
  }
  for (const char* name : kClassNames) w.classes.emplace_back(name);
  for (const auto& st : runner->state()) {
    for (int k = 0; k < kNumClasses; ++k) {
      w.classes[k].latency_ms.Append(st->classes[k].latency_ms);
      w.classes[k].attempted += st->classes[k].attempted;
      w.classes[k].failed += st->classes[k].failed;
    }
    w.all_ms.Append(st->all_ms);
  }
  w.ops = w.all_ms.count();
  return w;
}

/// Refusals and engine errors seen by the server count as failures
/// even if a client somehow missed them.
uint64_t ServerSideFailures(const WindowResult& w) {
  return w.counters.Counter("queries.error") + AdmissionRejections(w.counters);
}

void AddWindow(const WindowResult& w, const char* label, RunReport* report) {
  report->AddClasses(w.classes, label);
  report->detail.push_back(StringPrintf("%s oracle: %zu distinct replies verified",
                                        label, w.verified));
  uint64_t client_failed = 0;
  for (const ClassStats& c : w.classes) client_failed += c.failed;
  const uint64_t server_failed = ServerSideFailures(w);
  if (server_failed > client_failed) {
    report->failed += server_failed - client_failed;
    report->Fail(StringPrintf("%llu server-side refusals or errors",
                              static_cast<unsigned long long>(server_failed)));
  }
}

}  // namespace

Status RunServeWorkload(const BenchOptions& options, RunReport* report) {
  // Clients, server sessions and the engine share one CPU: a statement
  // handoff is then a context switch, not a cross-CPU wakeup, whose
  // latency on a shared virtual machine swings 2x with the neighbours'
  // load (ops_per_s moved 35 % between runs unpinned, 4 % pinned).
  NLQ_ASSIGN_OR_RETURN(const int cpu, PinToOneCpu());
  ServeRunner runner(options);
  Samples setup_s;
  for (int i = 0; i < kSetups; ++i) {
    NLQ_ASSIGN_OR_RETURN(double s, runner.Setup());
    setup_s.Add(s);
  }
  report->header.push_back(StringPrintf(
      "engine: %zu partitions, %zu pool thread, morsel_rows=%llu, views on; "
      "server: %zu clients (one thread each), %zu admission slot, queue "
      "depth %zu; process pinned to CPU %d",
      kPartitions, kPoolThreads, static_cast<unsigned long long>(kMorselRows),
      kClients, kSlots, kQueueDepth, cpu));
  report->header.push_back(StringPrintf(
      "data: %zu appendable tables of (i, X1..X%zu), %llu seed rows each, "
      "%llu-row append batches, rotated to a fresh table at %llu rows; "
      "table set T%zu..",
      kTableSlots, kDims,
      static_cast<unsigned long long>(kSeedBatches * kBatchRows),
      static_cast<unsigned long long>(kBatchRows),
      static_cast<unsigned long long>((kSeedBatches + kRotateBatches) * kBatchRows),
      runner.table_base()));
  report->header.push_back(StringPrintf(
      "mix: refresh %.2f, build_grouped %.2f (GROUP BY i %% %zu), score %.2f "
      "(LIMIT %zu), append %.2f",
      kWeights[kRefresh], kWeights[kBuildGrouped], kGroups, kWeights[kScore],
      kScoreLimit, kWeights[kAppend]));

  uint64_t next_op = 1;
  WindowResult w = TimedWindow(&runner, options.seconds, false, &next_op, report);

  const auto [rows, bytes] = runner.CurrentTableSize();
  AddWindow(w, "untraced", report);
  report->detail.push_back("untraced stmt_ms: " + w.all_ms.Summary("ms"));
  const double ops_per_s = static_cast<double>(w.ops) / w.seconds;
  const double stored = static_cast<double>(bytes);
  const double user_bytes = static_cast<double>(rows) * (kDims + 1) * 8;
  if (!options.trace) {
    report->Set("setup_s", setup_s.Median(), "s");
    report->Set("ops_per_s", ops_per_s, "ops/s");
    report->Set("stmt_p50_ms", w.all_ms.Median(), "ms");
    report->Set("stmt_p95_ms", w.all_ms.Quantile(0.95), "ms");
    report->Set("build_grouped_ms", w.classes[kBuildGrouped].latency_ms.Median(), "ms");
    report->Set("score_ms", w.classes[kScore].latency_ms.Median(), "ms");
    report->Set("peak_rss_mb", w.peak_rss_mb, "MiB");
    report->Set("space_amp", stored / user_bytes, "ratio");
    report->detail.push_back("setup_s: " + setup_s.Summary("s"));
    return Status::OK();
  }

  WindowResult tw = TimedWindow(&runner, options.seconds, true, &next_op, report);
  AddWindow(tw, "traced", report);
  report->Set("trace.overhead_pct",
              100.0 * (ops_per_s - static_cast<double>(tw.ops) / tw.seconds) / ops_per_s,
              "%");
  report->Set("gen.load_s", runner.load_s().Median(), "s");
  AddStorageCounterMetrics(tw.counters, tw.ops, report);
  report->Set("storage.bytes_per_row", stored / static_cast<double>(rows), "bytes");
  report->Set("exec.cpu_util", tw.cpu_s / (tw.seconds * AllowedCpus()), "ratio");
  const auto [wait_ms, waits] = tw.counters.Histogram("server.queue_wait");
  const auto [engine_ms, stmts] = tw.counters.Histogram("query.latency");
  const double wait = Ratio(wait_ms, static_cast<double>(waits));
  const double engine = Ratio(engine_ms, static_cast<double>(stmts));
  report->Set("server.queue_wait_ms", wait, "ms");
  report->Set("server.engine_ms", engine, "ms");
  report->Set("server.overhead_ms", tw.all_ms.Mean() - engine - wait, "ms");

  report->Set("server.rejected",
              static_cast<double>(AdmissionRejections(tw.counters)),
              "count");
  std::vector<const SpanLog*> logs;
  for (const auto& st : runner.state()) logs.push_back(&st->log);
  AddSpanMetrics(logs, "client.query", report);
  NLQ_RETURN_IF_ERROR(WriteSpans(
      options.work_dir + "/spans_" + options.workload + ".jsonl", logs));

  const size_t t = runner.CurrentTable();
  ProbeContext probe;
  probe.db = runner.db();
  probe.table = TableName(t);
  probe.columns = stats::DimensionColumns(kDims);
  probe.score_dims = kDims;
  probe.kmeans_k = 4;
  probe.statements = {{"refresh", RefreshSql(t)},
                      {"build_grouped", GroupedSql(t)},
                      {"score", ScoreSql(t)},
                      {"append", soak::BuildOracle::BatchInsertSql(OracleOptions(), t, 0),
                       /*select=*/false}};
  probe.udf_sql = RefreshSql(t);
  probe.wide_sql = stats::NlqSqlQuery(TableName(t), probe.columns,
                                      stats::MatrixKind::kLowerTriangular);
  probe.server_port = runner.port();
  // The spill layer on a copy of a served table.
  NLQ_RETURN_IF_ERROR(runner.db()->ExecuteCommand(
      "CREATE TABLE TPROBE AS SELECT * FROM " + TableName(t)));
  const int64_t t0 = NowNs();
  NLQ_RETURN_IF_ERROR(runner.db()->SpillTable("TPROBE"));
  report->Set("storage.spill_s", static_cast<double>(NowNs() - t0) / 1e9, "s");
  NLQ_RETURN_IF_ERROR(runner.db()->ExecuteCommand("DROP TABLE TPROBE"));
  Status probed = RunLayerProbes(probe, report);
  runner.Release(t);
  return probed;
}

}  // namespace nlq::repobench
