// Repository benchmark: runs one workload through the engine's public
// API and prints its metrics. See README.md for the workloads, the
// metrics and how to run it; run.py builds this program and runs it.
//
//   repobench --workload build_resident --seed 1 --seconds 20 --trace 0
//             --work-dir .bench_build/work
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is nonzero on any output mismatch or
// failed op.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "stats/nlq_kernel.h"
#include "trace.h"
#include "workloads.h"

#ifndef REPOBENCH_BUILD_TYPE
#define REPOBENCH_BUILD_TYPE "unknown"
#endif

namespace nlq::repobench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: repobench --workload build_resident|build_spilled|"
               "serve_mixed --seed N --seconds S --trace 0|1 --work-dir DIR\n");
}

bool ParseArgs(int argc, char** argv, BenchOptions* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      o->trace = value == "1";
    } else if (key == "--work-dir") {
      o->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0 &&
         !o->work_dir.empty();
}

void PrintJson(const RunReport& r) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + FormatDouble(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace nlq::repobench

int main(int argc, char** argv) {
  using namespace nlq::repobench;
  NowNs();  // start the process clock
  BenchOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  RunReport report;
  report.header.push_back(
      "workload: " + options.workload + " seed=" + std::to_string(options.seed) +
      " seconds=" + std::to_string(options.seconds) +
      " trace=" + (options.trace ? "1" : "0"));
  report.header.push_back(
      "host: nproc=" + std::to_string(std::thread::hardware_concurrency()) +
      " kernel=" + nlq::stats::NlqKernelVariant() +
      " build=" REPOBENCH_BUILD_TYPE);
  nlq::Status status;
  if (options.workload == "build_resident") {
    status = RunBuildWorkload(options, /*spilled=*/false, &report);
  } else if (options.workload == "build_spilled") {
    status = RunBuildWorkload(options, /*spilled=*/true, &report);
  } else if (options.workload == "serve_mixed") {
    status = RunServeWorkload(options, &report);
  } else {
    Usage();
    return 2;
  }
  for (const std::string& line : report.header) std::printf("# %s\n", line.c_str());
  for (const std::string& line : report.detail) std::printf("%s\n", line.c_str());
  for (const auto& [name, m] : report.metrics) {
    std::printf("metric %s = %s %s\n", name.c_str(), FormatDouble(m.value).c_str(),
                m.unit.c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "repobench: %s\n", status.ToString().c_str());
    return 1;
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "repobench: %s\n", e.c_str());
  }
  if (!report.correct || report.failed != 0 || report.attempted == 0) {
    std::fprintf(stderr, "repobench: output check failed\n");
    return 1;
  }
  PrintJson(report);
  return 0;
}
