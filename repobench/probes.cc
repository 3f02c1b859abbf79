#include "probes.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "engine/parser.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stats/linreg.h"
#include "stats/nlq_kernel.h"
#include "stats/pca.h"
#include "stats/sqlgen.h"
#include "trace.h"

namespace nlq::repobench {
namespace {

constexpr int kReps = 5;

/// Median wall time in milliseconds of `reps` calls of `fn`.
double MedianMs(int reps, const std::function<void()>& fn) {
  Samples s;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    fn();
    s.Add(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return s.Median();
}

bool Shared(const std::string& cls) {
  const auto& shared = SharedClasses();
  return std::find(shared.begin(), shared.end(), cls) != shared.end();
}

Status ProbeParsePlan(const ProbeContext& ctx, RunReport* report) {
  double parse_sum = 0, plan_sum = 0;
  size_t plans = 0;
  for (const ProbeStatement& st : ctx.statements) {
    Status status;
    const double parse = MedianMs(kReps, [&] {
      auto parsed = engine::ParseStatement(st.sql);
      if (!parsed.ok()) status = parsed.status();
    });
    NLQ_RETURN_IF_ERROR(status);
    parse_sum += parse;
    if (Shared(st.cls)) report->Set("engine.parse_ms." + st.cls, parse, "ms");
    if (!st.select) continue;
    const double explain = MedianMs(kReps, [&] {
      auto plan = ctx.db->Explain(st.sql);
      if (!plan.ok()) status = plan.status();
    });
    NLQ_RETURN_IF_ERROR(status);
    const double plan = std::max(0.0, explain - parse);
    plan_sum += plan;
    ++plans;
    if (Shared(st.cls)) report->Set("engine.plan_ms." + st.cls, plan, "ms");
  }
  report->Set("engine.parse_ms",
              parse_sum / static_cast<double>(ctx.statements.size()), "ms");
  report->Set("engine.plan_ms", Ratio(plan_sum, static_cast<double>(plans)),
              "ms");
  return Status::OK();
}

/// Executes each class's main SELECT a few times with query stats and
/// splits its engine time by operator kind.
Status ProbeExec(const ProbeContext& ctx, RunReport* report) {
  // The operator kinds every workload's plans contain; the rest (filter,
  // gather, sort, limit) are absent from some and cost little in all.
  static const char* kKinds[] = {"scan", "join", "project", "aggregate"};
  std::map<std::string, double> self_sum;
  double run_sum = 0, vec_sum = 0, scanned_sum = 0;
  std::vector<double> claims;
  size_t runs = 0;
  for (const ProbeStatement& st : ctx.statements) {
    if (!st.select) continue;
    Samples wall;
    double vec = 0, scanned = 0;
    for (int r = 0; r < 3; ++r) {
      NLQ_RETURN_IF_ERROR(ctx.db->Execute(st.sql).status());
      const auto& stats = ctx.db->last_query_stats();
      if (!stats.has_value()) return Status::Internal("query stats are off");
      wall.Add(static_cast<double>(stats->wall_time_ns) / 1e6);
      for (const auto& [kind, ms] : OperatorSelfMsByKind(*stats)) {
        self_sum[kind] += ms;
      }
      vec += static_cast<double>(stats->rows_vectorized);
      for (const auto& op : stats->operators) {
        if (op.name.find("Scan") != std::string::npos) {
          scanned += static_cast<double>(op.rows_out);
        }
      }
      const auto& w = stats->worker_morsel_claims;
      if (claims.size() < w.size()) claims.resize(w.size(), 0);
      for (size_t i = 0; i < w.size(); ++i) {
        claims[i] += static_cast<double>(w[i]);
      }
      ++runs;
    }
    run_sum += wall.Median();
    vec_sum += vec;
    scanned_sum += scanned;
    if (Shared(st.cls)) {
      report->Set("exec.run_ms." + st.cls, wall.Median(), "ms");
      report->Set("exec.vectorized_ratio." + st.cls, Ratio(vec, scanned),
                  "ratio");
    }
  }
  const double selects = static_cast<double>(runs) / 3.0;
  report->Set("exec.run_ms", Ratio(run_sum, selects), "ms");
  for (const char* kind : kKinds) {
    report->Set(std::string("exec.self_ms.") + kind,
                Ratio(self_sum[kind], static_cast<double>(runs)), "ms");
  }
  report->Set("exec.vectorized_ratio", Ratio(vec_sum, scanned_sum), "ratio");
  double max_claims = 0, total_claims = 0;
  for (const double c : claims) {
    max_claims = std::max(max_claims, c);
    total_claims += c;
  }
  report->Set("exec.worker_skew",
              Ratio(max_claims * static_cast<double>(claims.size()),
                    total_claims),
              "ratio");
  return Status::OK();
}

/// Reads the input table's n,L,Q columns once and times the raw kernel
/// and the scalar scoring UDFs over them on this one thread.
Status ProbeKernelAndUdfs(const ProbeContext& ctx, RunReport* report) {
  std::string sql = "SELECT ";
  for (size_t c = 0; c < ctx.columns.size(); ++c) {
    sql += (c ? ", " : "") + ctx.columns[c];
  }
  NLQ_ASSIGN_OR_RETURN(engine::ResultSet rs,
                       ctx.db->Execute(sql + " FROM " + ctx.table));
  const size_t n = rs.num_rows(), d = ctx.columns.size();
  std::vector<std::vector<double>> cols(d, std::vector<double>(n));
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) cols[c][r] = rs.At(r, c).AsDouble();
  }
  std::vector<const double*> spans(d);
  for (size_t c = 0; c < d; ++c) spans[c] = cols[c].data();
  auto state = std::make_unique<stats::NlqState>();
  report->Set("stats.kernel_ms", MedianMs(kReps, [&] {
                stats::ResetNlqState(state.get());
                (void)stats::SetNlqShape(state.get(), d,
                                         stats::MatrixKind::kLowerTriangular);
                stats::NlqAccumulateSpans(state.get(), spans.data(), n);
              }),
              "ms");

  const size_t dims = ctx.score_dims;
  const udf::ScalarUdf* score = ctx.db->udfs().FindScalar("linearregscore");
  const udf::ScalarUdf* dist = ctx.db->udfs().FindScalar("kmeansdistance");
  const udf::ScalarUdf* pick = ctx.db->udfs().FindScalar("clusterscore");
  if (score == nullptr || dist == nullptr || pick == nullptr) {
    return Status::NotFound("scoring UDFs are not registered");
  }
  Status status;
  std::vector<storage::Datum> args(2 * dims + 1);
  report->Set("udf.call_ms.score", MedianMs(3, [&] {
                for (size_t r = 0; r < n; ++r) {
                  for (size_t c = 0; c < dims; ++c) {
                    args[c] = storage::Datum::Double(cols[c][r]);
                  }
                  for (size_t c = 0; c <= dims; ++c) {
                    args[dims + c] =
                        storage::Datum::Double(0.5 + static_cast<double>(c) / 32);
                  }
                  auto v = score->Invoke(args);
                  if (!v.ok()) status = v.status();
                }
              }),
              "ms");
  NLQ_RETURN_IF_ERROR(status);
  // K-means scoring: k distances to the first k rows, then the argmin.
  std::vector<storage::Datum> dargs(2 * dims), pargs(ctx.kmeans_k);
  report->Set("udf.call_ms.kmeans", MedianMs(3, [&] {
                for (size_t r = 0; r < n; ++r) {
                  for (size_t j = 0; j < ctx.kmeans_k; ++j) {
                    for (size_t c = 0; c < dims; ++c) {
                      dargs[c] = storage::Datum::Double(cols[c][r]);
                      dargs[dims + c] = storage::Datum::Double(cols[c][j]);
                    }
                    auto v = dist->Invoke(dargs);
                    if (!v.ok()) {
                      status = v.status();
                      return;
                    }
                    pargs[j] = *v;
                  }
                  auto j = pick->Invoke(pargs);
                  if (!j.ok()) status = j.status();
                }
              }),
              "ms");
  return status;
}

/// SufStats decode of a UDF reply and of a wide SUM row, and the
/// client-side model math (linear regression of the last column on the
/// others, correlation, PCA) from the decoded statistics.
Status ProbeStatsDecode(const ProbeContext& ctx, RunReport* report) {
  NLQ_ASSIGN_OR_RETURN(engine::ResultSet udf_rs, ctx.db->Execute(ctx.udf_sql));
  NLQ_ASSIGN_OR_RETURN(engine::ResultSet wide_rs,
                       ctx.db->Execute(ctx.wide_sql));
  Status status;
  report->Set("stats.decode_ms.udf", MedianMs(kReps, [&] {
                auto s = stats::SufStatsFromUdfResult(udf_rs);
                if (!s.ok()) status = s.status();
              }),
              "ms");
  report->Set("stats.decode_ms.sql", MedianMs(kReps, [&] {
                auto s = stats::SufStatsFromWideRow(
                    wide_rs, 0, ctx.columns.size(),
                    stats::MatrixKind::kLowerTriangular);
                if (!s.ok()) status = s.status();
              }),
              "ms");
  NLQ_RETURN_IF_ERROR(status);
  NLQ_ASSIGN_OR_RETURN(stats::SufStats suf,
                       stats::SufStatsFromUdfResult(udf_rs));
  report->Set("stats.model_ms", MedianMs(kReps, [&] {
                auto lr = stats::FitLinearRegression(suf);
                auto rho = suf.CorrelationMatrix();
                auto pca = stats::FitPca(suf, 2);
                if (!lr.ok()) status = lr.status();
                if (!rho.ok()) status = rho.status();
                if (!pca.ok()) status = pca.status();
              }),
              "ms");
  return status;
}

/// Wire-layer probes: ping round trips, and the encode/decode cost and
/// size of each shared class's reply. Without a live server (embedded
/// workloads) a probe server with one client also splits a statement's
/// latency into queue wait, engine time and the rest.
Status ProbeServer(const ProbeContext& ctx, RunReport* report) {
  std::unique_ptr<server::Server> probe_server;
  int port = ctx.server_port;
  if (port < 0) {
    server::ServerOptions sopts;
    sopts.idle_timeout_ms = 0;
    probe_server = std::make_unique<server::Server>(ctx.db, sopts);
    NLQ_RETURN_IF_ERROR(probe_server->Start());
    port = probe_server->port();
  }
  server::NlqClient client;
  NLQ_RETURN_IF_ERROR(client.Connect("127.0.0.1", static_cast<uint16_t>(port)));
  Status status;
  report->Set("server.ping_ms", MedianMs(50, [&] {
                Status s = client.Ping();
                if (!s.ok()) status = s;
              }),
              "ms");
  NLQ_RETURN_IF_ERROR(status);

  Samples client_ms;
  MetricsDelta delta;
  delta.Begin();
  for (const ProbeStatement& st : ctx.statements) {
    if (!st.select || !Shared(st.cls)) continue;
    engine::ResultSet reply;
    for (int r = 0; r < 3; ++r) {
      const int64_t t0 = NowNs();
      auto rs = client.Query(st.sql);
      client_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
      if (!rs.ok()) return rs.status();
      reply = std::move(*rs);
    }
    server::WireWriter writer;
    report->Set("server.encode_ms." + st.cls, MedianMs(kReps, [&] {
                  writer = server::WireWriter();
                  server::EncodeResultSet(reply, &writer);
                }),
                "ms");
    report->Set("server.reply_bytes." + st.cls,
                static_cast<double>(writer.buffer().size()), "bytes");
    report->Set("server.decode_ms." + st.cls, MedianMs(kReps, [&] {
                  server::WireReader reader(writer.buffer());
                  auto rs = server::DecodeResultSet(&reader);
                  if (!rs.ok()) status = rs.status();
                }),
                "ms");
    NLQ_RETURN_IF_ERROR(status);
  }
  delta.End();
  client.Goodbye();
  if (probe_server == nullptr) return Status::OK();
  probe_server->Shutdown();
  report->Set("server.rejected", static_cast<double>(AdmissionRejections(delta)),
              "count");
  const auto [wait_ms, waits] = delta.Histogram("server.queue_wait");
  const auto [engine_ms, stmts] = delta.Histogram("query.latency");
  const double wait = Ratio(wait_ms, static_cast<double>(waits));
  const double engine = Ratio(engine_ms, static_cast<double>(stmts));
  report->Set("server.queue_wait_ms", wait, "ms");
  report->Set("server.engine_ms", engine, "ms");
  report->Set("server.overhead_ms", client_ms.Mean() - engine - wait, "ms");
  return Status::OK();
}

}  // namespace

Status RunLayerProbes(const ProbeContext& ctx, RunReport* report) {
  NLQ_RETURN_IF_ERROR(ProbeParsePlan(ctx, report));
  NLQ_RETURN_IF_ERROR(ProbeExec(ctx, report));
  NLQ_RETURN_IF_ERROR(ProbeKernelAndUdfs(ctx, report));
  NLQ_RETURN_IF_ERROR(ProbeStatsDecode(ctx, report));
  return ProbeServer(ctx, report);
}

}  // namespace nlq::repobench
