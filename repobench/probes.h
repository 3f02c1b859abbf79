#ifndef NLQ_REPOBENCH_PROBES_H_
#define NLQ_REPOBENCH_PROBES_H_

#include <string>
#include <vector>

#include "bench.h"
#include "engine/database.h"

namespace nlq::repobench {

/// A class's main statement, as the workload issues it.
struct ProbeStatement {
  std::string cls;
  std::string sql;
  bool select = true;  // false: parsed only (INSERT)
};

/// Inputs of the layer probes: calls made only for layer numbers, in
/// the traced run, outside every op span.
struct ProbeContext {
  engine::Database* db = nullptr;
  std::string table;                 // the workload's input table
  std::vector<std::string> columns;  // its n,L,Q columns
  size_t score_dims = 0;             // X1..X<score_dims> feed the scorer
  size_t kmeans_k = 0;
  std::vector<ProbeStatement> statements;
  std::string udf_sql;   // ungrouped nlq_list build (decode/model probes)
  std::string wide_sql;  // the same statistics as one long SUM row
  /// serve_mixed passes its live server's port and measures the
  /// statement-path split from the timed window; the embedded
  /// workloads get a probe server with one client instead.
  int server_port = -1;
};

/// Runs every probe and records its per-layer metrics:
/// engine.parse_ms / engine.plan_ms (+ .<class>), exec.run_ms,
/// exec.self_ms.<kind>, exec.vectorized_ratio, exec.worker_skew,
/// stats.kernel_ms, stats.decode_ms.{udf,sql}, stats.model_ms,
/// udf.call_ms.{score,kmeans}, server.ping_ms and
/// server.{encode,decode}_ms / reply_bytes per class, plus
/// server.{queue_wait,engine,overhead}_ms for the embedded workloads.
Status RunLayerProbes(const ProbeContext& ctx, RunReport* report);

/// The classes whose per-class layer metrics every workload reports.
inline const std::vector<std::string>& SharedClasses() {
  static const std::vector<std::string> k = {"build_grouped", "score"};
  return k;
}

}  // namespace nlq::repobench

#endif  // NLQ_REPOBENCH_PROBES_H_
