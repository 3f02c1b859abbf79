#ifndef NLQ_REPOBENCH_BENCH_H_
#define NLQ_REPOBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "sample_stats.h"

namespace nlq::repobench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory inside the checkout for spill files and the span dump.
  std::string work_dir;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// One op class of a workload: every latency sample, attempts and
/// failures (no silent retries: a failed op is counted and not re-run).
struct ClassStats {
  explicit ClassStats(std::string n) : name(std::move(n)) {}
  std::string name;
  Samples latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// What a workload hands back to main.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few mismatches / failures
  std::vector<std::string> header;  // "key: value" run header lines
  std::vector<std::string> detail;  // human-readable sample summaries
  std::map<std::string, Metric> metrics;

  void Fail(const std::string& error);
  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Adds "<label>: <summary>" detail lines for each class and folds its
  /// counts into attempted/failed.
  void AddClasses(const std::vector<ClassStats>& classes, const char* label);
};

/// Peak-RSS bookkeeping: ResetPeakRss returns freed heap to the kernel
/// and resets the high-water mark (writes 5 to /proc/self/clear_refs),
/// so PeakRssMiB reports what the timed window itself holds.
void ResetPeakRss();
double PeakRssMiB();

/// CPUs this process may run on (its affinity mask).
int AllowedCpus();

/// Restricts this process, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on; returns that CPU.
StatusOr<int> PinToOneCpu();

/// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();

/// Registry counters and histograms accumulated over the timed
/// stretches of a window: Begin/End bracket each stretch, so engine
/// statements the benchmark runs in between (reference checks, oracle
/// replays) are not counted.
class MetricsDelta {
 public:
  void Begin();
  void End();
  uint64_t Counter(const std::string& name) const;
  /// (sum in ms, count) of a latency histogram.
  std::pair<double, uint64_t> Histogram(const std::string& name) const;

 private:
  MetricsSnapshot start_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> histograms_;
};

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Storage-layer ratios every workload reports over its window.
void AddStorageCounterMetrics(const MetricsDelta& delta, uint64_t ops,
                              RunReport* report);

/// Statements the server's admission control refused (queue full,
/// queue-wait timeout, cancelled, shutdown).
uint64_t AdmissionRejections(const MetricsDelta& delta);

/// Span-derived metrics of a traced window: trace.statement_ms (median
/// duration of the spans named `statement_span`, the benchmark's calls
/// that send one statement) and trace.op_self_ms (median self time of
/// the op spans: the benchmark's own work between layer calls), plus a
/// detail line per span name.
class SpanLog;
void AddSpanMetrics(const std::vector<const SpanLog*>& logs,
                    const char* statement_span, RunReport* report);

/// Operator self time by kind (scan, join, project, aggregate, other)
/// for one executed statement, in milliseconds. Self time is an
/// operator's time minus its direct inputs'.
std::map<std::string, double> OperatorSelfMsByKind(
    const QueryStatsSnapshot& stats);

std::string FormatDouble(double v);

}  // namespace nlq::repobench

#endif  // NLQ_REPOBENCH_BENCH_H_
