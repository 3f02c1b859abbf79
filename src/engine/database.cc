#include "engine/database.h"

#include <algorithm>
#include <thread>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "engine/exec/executor.h"
#include "engine/exec/planner.h"
#include "engine/exec/table_writer.h"
#include "engine/exec/view_registry.h"
#include "engine/expr.h"
#include "engine/parser.h"
#include "storage/partitioned_table.h"

namespace nlq::engine {
namespace {

using storage::DataType;
using storage::Datum;
using storage::PartitionedTable;
using storage::Row;
using storage::Schema;

/// Shapes EXPLAIN [ANALYZE] text into a one-VARCHAR-column result set,
/// one row per rendered line.
ResultSet PlanTextToResultSet(const std::string& rendered) {
  std::vector<Row> rows;
  for (std::string_view line : SplitString(rendered, '\n')) {
    if (line.empty()) continue;  // trailing newline
    Row row(1);
    row[0] = Datum::Varchar(std::string(line));
    rows.push_back(std::move(row));
  }
  return ResultSet(Schema({{"plan", DataType::kVarchar}}), std::move(rows));
}

/// Registry counter name for a finished statement's outcome.
const char* OutcomeCounterName(const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
      return "queries.cancelled";
    case StatusCode::kDeadlineExceeded:
      return "queries.deadline_exceeded";
    case StatusCode::kResourceExhausted:
      return "queries.resource_exhausted";
    default:
      return status.ok() ? "queries.ok" : "queries.error";
  }
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(options), catalog_(options.num_partitions) {
  size_t threads = options_.num_threads;
  if (threads == 0) {
    // Morsel scheduling decouples worker count from partition count:
    // default to the hardware, not min(partitions, hardware).
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  if (options_.enable_view_maintenance) {
    view_registry_ = std::make_unique<exec::ViewRegistry>(
        options_.max_maintained_views, options_.view_memory_limit);
  }
}

Database::~Database() = default;

Status Database::SpillTable(std::string_view name) {
  // Spilling rewrites a table's storage out from under scans: take the
  // statement gate exclusively like any other mutation.
  std::unique_lock<std::shared_mutex> gate(statement_mu_);
  NLQ_ASSIGN_OR_RETURN(storage::PartitionedTable * table,
                       catalog_.GetTable(std::string(name)));
  if (buffer_pool_ == nullptr) {
    buffer_pool_ =
        std::make_unique<storage::BufferPool>(options_.buffer_pool_bytes);
  }
  // Scratch name: directory + table + this database's address keeps
  // concurrent databases apart; the file is unlinked on open anyway.
  const std::string path =
      options_.spill_directory + "/nlq_spill_" + std::string(name) + "_" +
      std::to_string(reinterpret_cast<uintptr_t>(this));
  // Spilling is a destructive mutation for view purposes: drop any
  // maintained views before the partitions change underneath them.
  if (view_registry_ != nullptr) {
    view_registry_->InvalidateTable(std::string(name));
  }
  return table->SpillToDisk(path, buffer_pool_.get());
}

StatusOr<exec::PhysicalPlan> Database::PlanSelect(
    const SelectStatement& select, const QueryContext* ctx,
    bool force_interpreted) {
  exec::Planner planner(&catalog_, &registry_, pool_.get(),
                        storage::RowBatch::kDefaultCapacity,
                        options_.morsel_rows, ctx, !force_interpreted,
                        view_registry_.get());
  NLQ_ASSIGN_OR_RETURN(exec::PhysicalPlan plan, planner.Plan(select));
  if (ctx != nullptr && ctx->stats() != nullptr) {
    exec::AttachQueryStats(plan.root.get(), ctx->stats());
  }
  return plan;
}

StatusOr<ResultSet> Database::ExecuteSelect(const SelectStatement& select,
                                            const QueryContext* ctx,
                                            bool force_interpreted) {
  NLQ_ASSIGN_OR_RETURN(exec::PhysicalPlan plan,
                       PlanSelect(select, ctx, force_interpreted));
  return exec::ExecutePlan(plan, ctx);
}

StatusOr<ResultSet> Database::Execute(std::string_view sql,
                                      const QueryOptions& query_options) {
  NLQ_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));

  // One QueryContext per statement: id, deadline, memory budget. The
  // caller may supply the cancel token (server sessions do) so a
  // cancel that raced the statement's start still lands.
  QueryContext ctx;
  ctx.set_cancel_token(query_options.cancel_token);
  ctx.set_query_id(next_query_id_.fetch_add(1, std::memory_order_relaxed));
  const int64_t timeout_ms = query_options.timeout_ms >= 0
                                 ? query_options.timeout_ms
                                 : options_.default_timeout_ms;
  if (timeout_ms > 0) ctx.SetTimeout(timeout_ms);
  const uint64_t memory_limit =
      query_options.memory_limit >= 0
          ? static_cast<uint64_t>(query_options.memory_limit)
          : options_.query_memory_limit;
  MemoryTracker tracker(memory_limit);
  if (memory_limit > 0) ctx.set_memory(&tracker);

  // Observability: a QueryStats tree for the statement (EXPLAIN
  // ANALYZE needs one even when collection is off) plus process-wide
  // registry accounting of outcome and latency.
  std::unique_ptr<QueryStats> stats;
  if (options_.collect_query_stats ||
      (stmt.kind == StatementKind::kExplain && stmt.explain_analyze)) {
    stats = std::make_unique<QueryStats>();
    stats->query_id = ctx.query_id();
    stats->SetWorkerCount(pool_->num_workers());
    ctx.set_stats(stats.get());
  }
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter("queries.started").Increment();
  Stopwatch timer;

  // Publish the cancel token for the duration of the statement so
  // Cancel(query_id) from another thread can reach it; the token
  // itself is shared, so a Cancel racing this frame's teardown flips
  // a token nobody reads — harmless. Registration happens BEFORE the
  // id is announced through last_query_id_: a canceller acting on the
  // published id must never fall into a registered-but-unfindable
  // window and get NotFound while the statement runs (the token it
  // flips here is polled from the first morsel claim on).
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_queries_[ctx.query_id()] = ctx.cancel_token();
  }
  last_query_id_.store(ctx.query_id(), std::memory_order_release);

  // The statement gate: read-only statements execute concurrently,
  // mutating ones exclusively (see the class comment).
  const bool read_only = stmt.kind == StatementKind::kSelect ||
                         stmt.kind == StatementKind::kExplain;
  StatusOr<ResultSet> result = Status::Internal("statement did not run");
  if (read_only) {
    std::shared_lock<std::shared_mutex> gate(statement_mu_);
    result = ExecuteStatement(stmt, &ctx, query_options.force_interpreted);
  } else {
    std::unique_lock<std::shared_mutex> gate(statement_mu_);
    result = ExecuteStatement(stmt, &ctx, query_options.force_interpreted);
  }
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_queries_.erase(ctx.query_id());
  }

  const auto wall_ns =
      static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9);
  metrics.counter(OutcomeCounterName(result.status())).Increment();
  metrics.histogram("query.latency").Observe(wall_ns);
  if (stats != nullptr) {
    // EXPLAIN ANALYZE already stamped the inner statement's wall time
    // for its rendering; keep that tighter number.
    if (stats->wall_time_ns == 0) stats->wall_time_ns = wall_ns;
    if (memory_limit > 0) stats->memory_peak_bytes = tracker.peak();
    metrics.counter("query.rows_returned")
        .Add(stats->rows_returned.load(std::memory_order_relaxed));
    metrics.counter("storage.pages_decoded")
        .Add(stats->pages_decoded.load(std::memory_order_relaxed));
    uint64_t claims = 0;
    for (const uint64_t c : stats->WorkerMorselClaims()) claims += c;
    metrics.counter("exec.morsels_claimed").Add(claims);
    metrics.counter("exec.rows_vectorized")
        .Add(stats->rows_vectorized.load(std::memory_order_relaxed));
    metrics.counter("view.hits")
        .Add(stats->view_hits.load(std::memory_order_relaxed));
    metrics.counter("view.misses")
        .Add(stats->view_misses.load(std::memory_order_relaxed));
    metrics.counter("view.delta_rows")
        .Add(stats->view_delta_rows.load(std::memory_order_relaxed));
    metrics.counter("view.rebuilds")
        .Add(stats->view_rebuilds.load(std::memory_order_relaxed));
    if (view_registry_ != nullptr) {
      metrics.gauge("view.state_bytes")
          .Set(static_cast<int64_t>(view_registry_->state_bytes()));
    }
    std::lock_guard<std::mutex> stats_lock(last_stats_mu_);
    last_query_stats_ = SnapshotQueryStats(*stats);
  }
  return result;
}

Status Database::Cancel(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(live_mu_);
  auto it = live_queries_.find(query_id);
  if (it == live_queries_.end()) {
    return Status::NotFound(
        StringPrintf("no running query with id %llu",
                     static_cast<unsigned long long>(query_id)));
  }
  it->second->store(true, std::memory_order_release);
  return Status::OK();
}

StatusOr<ResultSet> Database::ExecuteStatement(Statement& stmt,
                                               const QueryContext* ctx,
                                               bool force_interpreted) {
  MemoryTracker* memory = ctx != nullptr ? ctx->memory() : nullptr;
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select, ctx, force_interpreted);

    case StatementKind::kCreateTable: {
      CreateTableStatement& create = *stmt.create_table;
      if (create.as_select == nullptr) {
        NLQ_RETURN_IF_ERROR(
            catalog_.CreateTable(create.table_name, create.schema).status());
        return ResultSet();
      }
      // The table exists only once every row is in the writer.
      NLQ_ASSIGN_OR_RETURN(
          exec::PhysicalPlan plan,
          PlanSelect(*create.as_select, ctx, force_interpreted));
      exec::TableWriter writer(plan.output_schema,
                               catalog_.default_partitions(), memory);
      NLQ_RETURN_IF_ERROR(writer.Drain(plan, pool_.get(), ctx));
      NLQ_ASSIGN_OR_RETURN(
          PartitionedTable * table,
          catalog_.CreateTable(create.table_name, plan.output_schema));
      writer.AppendTo(table);
      return ResultSet();
    }

    case StatementKind::kInsert: {
      InsertStatement& insert = *stmt.insert;
      NLQ_ASSIGN_OR_RETURN(PartitionedTable * table,
                           catalog_.GetTable(insert.table_name));
      // Every row is produced and type-checked before the first one is
      // appended: a failed INSERT appends nothing.
      exec::TableWriter writer(table->schema(), table->num_partitions(),
                               memory);
      if (insert.select != nullptr) {
        NLQ_ASSIGN_OR_RETURN(
            exec::PhysicalPlan plan,
            PlanSelect(*insert.select, ctx, force_interpreted));
        NLQ_RETURN_IF_ERROR(writer.Drain(plan, pool_.get(), ctx));
      } else {
        // VALUES rows: constant expressions bound against an empty scope.
        BindingScope empty_scope;
        std::vector<Row> rows;
        rows.reserve(insert.value_rows.size());
        for (const auto& value_row : insert.value_rows) {
          Row& row = rows.emplace_back(value_row.size());
          Status error;
          Row empty_input;
          EvalContext eval;
          eval.input = &empty_input;
          eval.error = &error;
          for (size_t c = 0; c < value_row.size(); ++c) {
            NLQ_ASSIGN_OR_RETURN(
                BoundExprPtr bound,
                BindRowExpr(*value_row[c], empty_scope, &registry_));
            row[c] = bound->Eval(eval);
          }
          NLQ_RETURN_IF_ERROR(error);
        }
        NLQ_RETURN_IF_ERROR(writer.AddRows(rows));
      }
      writer.AppendTo(table);
      return ResultSet();
    }

    case StatementKind::kDropTable:
      NLQ_RETURN_IF_ERROR(catalog_.DropTable(stmt.drop_table->table_name));
      // A later CREATE TABLE with the same name must never alias a
      // stale entry's epochs; drop its views eagerly.
      if (view_registry_ != nullptr) {
        view_registry_->InvalidateTable(stmt.drop_table->table_name);
      }
      return ResultSet();

    case StatementKind::kExplain: {
      if (!stmt.explain_analyze) {
        // Plain EXPLAIN: plan only, never execute.
        exec::Planner planner(
            &catalog_, &registry_, pool_.get(),
            storage::RowBatch::kDefaultCapacity, options_.morsel_rows, ctx,
            !force_interpreted, view_registry_.get());
        NLQ_ASSIGN_OR_RETURN(exec::PhysicalPlan plan,
                             planner.Plan(*stmt.select));
        return PlanTextToResultSet(exec::ExplainPlan(*plan.root));
      }
      QueryStats* stats = ctx != nullptr ? ctx->stats() : nullptr;
      if (stats == nullptr) {
        return Status::Internal(
            "EXPLAIN ANALYZE requires a stats-collecting query context");
      }
      Stopwatch timer;
      NLQ_RETURN_IF_ERROR(
          ExecuteSelect(*stmt.select, ctx, force_interpreted).status());
      stats->wall_time_ns =
          static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9);
      return PlanTextToResultSet(
          exec::RenderAnalyzedPlan(SnapshotQueryStats(*stats)));
    }
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::ExecuteCommand(std::string_view sql) {
  return Execute(sql).status();
}

StatusOr<std::string> Database::Explain(std::string_view sql,
                                        const QueryOptions& query_options) {
  NLQ_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT statements only");
  }
  // Planning reads the catalog; exclude concurrent DDL.
  std::shared_lock<std::shared_mutex> gate(statement_mu_);
  exec::Planner planner(
      &catalog_, &registry_, pool_.get(), storage::RowBatch::kDefaultCapacity,
      options_.morsel_rows, /*ctx=*/nullptr,
      !query_options.force_interpreted, view_registry_.get());
  NLQ_ASSIGN_OR_RETURN(exec::PhysicalPlan plan, planner.Plan(*stmt.select));
  return exec::ExplainPlan(*plan.root);
}

StatusOr<std::string> Database::ExplainAnalyze(std::string_view sql) {
  std::string stmt_sql = "EXPLAIN ANALYZE ";
  stmt_sql += sql;
  NLQ_ASSIGN_OR_RETURN(ResultSet result, Execute(stmt_sql));
  std::string out;
  for (const Row& row : result.rows()) {
    out += row[0].string_value();
    out += "\n";
  }
  return out;
}

StatusOr<double> Database::QueryDouble(std::string_view sql) {
  NLQ_ASSIGN_OR_RETURN(ResultSet result, Execute(sql));
  if (result.num_rows() != 1 || result.num_columns() != 1) {
    return Status::InvalidArgument(
        StringPrintf("expected 1x1 result, got %zux%zu", result.num_rows(),
                     result.num_columns()));
  }
  return result.GetDouble(0, 0);
}

}  // namespace nlq::engine
