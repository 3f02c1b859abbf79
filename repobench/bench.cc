#include "bench.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "trace.h"

namespace nlq::repobench {

void RunReport::Fail(const std::string& error) {
  correct = false;
  if (errors.size() < 16) errors.push_back(error);
}

void RunReport::AddClasses(const std::vector<ClassStats>& classes,
                           const char* label) {
  for (const ClassStats& c : classes) {
    attempted += c.attempted;
    failed += c.failed;
    detail.push_back(std::string(label) + " " + c.name + "_ms: " +
                     c.latency_ms.Summary("ms") + " attempted=" +
                     std::to_string(c.attempted) +
                     " failed=" + std::to_string(c.failed));
  }
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

StatusOr<int> PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return Status::Internal("sched_getaffinity failed");
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return Status::Internal("empty CPU affinity mask");
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    return Status::Internal("sched_setaffinity failed");
  }
  return cpu;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void MetricsDelta::Begin() { start_ = MetricsRegistry::Global().GetSnapshot(); }

void MetricsDelta::End() {
  const MetricsSnapshot end = MetricsRegistry::Global().GetSnapshot();
  for (const auto& [name, value] : end.counters) {
    auto it = start_.counters.find(name);
    counters_[name] += value - (it == start_.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, h] : end.histograms) {
    auto it = start_.histograms.find(name);
    const bool had = it != start_.histograms.end();
    auto& acc = histograms_[name];
    acc.first += h.sum_nanos - (had ? it->second.sum_nanos : 0);
    acc.second += h.count - (had ? it->second.count : 0);
  }
}

uint64_t MetricsDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::pair<double, uint64_t> MetricsDelta::Histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return {0, 0};
  return {static_cast<double>(it->second.first) / 1e6, it->second.second};
}

void AddStorageCounterMetrics(const MetricsDelta& counters, uint64_t ops,
                              RunReport* report) {
  auto delta = [&counters](const char* name) {
    return static_cast<double>(counters.Counter(name));
  };
  const double ops_d = static_cast<double>(ops);
  report->Set("storage.pages_decoded_per_op",
              Ratio(delta("storage.pages_decoded"), ops_d), "count");
  const double hits = delta("storage.column_cache.hits");
  report->Set("storage.column_cache_hit_ratio",
              Ratio(hits, hits + delta("storage.column_cache.misses")),
              "ratio");
  report->Set("storage.column_cache_fallbacks",
              delta("storage.column_cache.fallbacks"), "count");
  const double pool_hits = delta("pool.hits");
  report->Set("storage.pool_hit_ratio",
              Ratio(pool_hits, pool_hits + delta("pool.misses")), "ratio");
  report->Set("storage.readahead_useful_ratio",
              Ratio(delta("pool.readahead_hits"), delta("pool.readahead_pages")),
              "ratio");
  report->Set("storage.pool_evictions_per_op",
              Ratio(delta("pool.evictions"), ops_d), "count");
  const double bc_hits = delta("bytecode.cache_hits");
  report->Set("engine.bytecode_hit_ratio",
              Ratio(bc_hits, bc_hits + delta("bytecode.compiles")), "ratio");
  const double view_hits = delta("view.hits");
  report->Set("view.hit_ratio",
              Ratio(view_hits, view_hits + delta("view.misses")), "ratio");
  report->Set("view.delta_rows_per_hit",
              Ratio(delta("view.delta_rows"), view_hits), "count");
  report->Set("view.rebuilds", delta("view.rebuilds"), "count");
}

uint64_t AdmissionRejections(const MetricsDelta& delta) {
  uint64_t n = 0;
  for (const char* r : {"rejected_queue", "rejected_timeout",
                        "rejected_cancelled", "rejected_shutdown"}) {
    n += delta.Counter(std::string("server.admission.") + r);
  }
  return n;
}

void AddSpanMetrics(const std::vector<const SpanLog*>& logs,
                    const char* statement_span, RunReport* report) {
  const auto spans = SummarizeSpans(logs);
  Samples op_self;
  for (const auto& [name, t] : spans) {
    if (name.rfind("op.", 0) == 0) op_self.Append(t.self_ms);
    report->detail.push_back("span " + name + ": total " +
                             t.total_ms.Summary("ms") + "; self " +
                             t.self_ms.Summary("ms"));
  }
  auto it = spans.find(statement_span);
  report->Set("trace.statement_ms",
              it == spans.end() ? 0.0 : it->second.total_ms.Median(), "ms");
  report->Set("trace.op_self_ms", op_self.Median(), "ms");
}

std::map<std::string, double> OperatorSelfMsByKind(
    const QueryStatsSnapshot& stats) {
  auto kind_of = [](const std::string& name) -> const char* {
    if (name.find("Scan") != std::string::npos || name == "ConstantInput") {
      return "scan";
    }
    if (name == "CrossJoin") return "join";
    if (name.find("Project") != std::string::npos) return "project";
    if (name.find("Aggregate") != std::string::npos) return "aggregate";
    return "other";
  };
  std::map<std::string, double> out;
  const auto& ops = stats.operators;
  for (size_t i = 0; i < ops.size(); ++i) {
    uint64_t child_ns = 0;
    for (size_t j = i + 1; j < ops.size() && ops[j].depth > ops[i].depth; ++j) {
      if (ops[j].depth == ops[i].depth + 1) child_ns += ops[j].time_ns;
    }
    // Parallel streams sum per stream, so a child can exceed its
    // parent; clamp like EXPLAIN ANALYZE does.
    const uint64_t self = ops[i].time_ns > child_ns ? ops[i].time_ns - child_ns
                                                    : 0;
    out[kind_of(ops[i].name)] += static_cast<double>(self) / 1e6;
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace nlq::repobench
