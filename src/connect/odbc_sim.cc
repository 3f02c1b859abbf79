#include "connect/odbc_sim.h"

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace nlq::connect {

int64_t JitteredBackoffUs(const RetryPolicy& policy, int retry_index,
                          int64_t backoff_us) {
  if (backoff_us <= 0) return 0;
  if (!policy.jitter) return backoff_us;
  // One generator per (seed, retry_index): the draw for retry k does
  // not depend on how earlier draws consumed the stream, so a test
  // can predict any retry's sleep in isolation.
  Random rng(policy.jitter_seed * 0x9e3779b97f4a7c15ull +
             static_cast<uint64_t>(retry_index));
  return static_cast<int64_t>(
      rng.NextUint64(static_cast<uint64_t>(backoff_us) + 1));
}

double LinkModel::TransferSeconds(uint64_t rows, size_t values_per_row,
                                  uint64_t bytes) const {
  const double overhead_us =
      static_cast<double>(rows) *
      (per_row_overhead_us +
       per_value_overhead_us * static_cast<double>(values_per_row));
  const double wire_seconds =
      static_cast<double>(bytes) / (bandwidth_mbps * 125000.0);
  return overhead_us / 1e6 + wire_seconds;
}

double OdbcExportResult::TotalSeconds() const {
  return std::max(serialize_seconds, modeled_link_seconds);
}

StatusOr<OdbcExportResult> OdbcExporter::ExportTable(
    const storage::PartitionedTable& table, const std::string& path) const {
  int64_t backoff_us = retry_.initial_backoff_us;
  const int max_attempts = retry_.max_attempts > 0 ? retry_.max_attempts : 1;
  for (int attempt = 1;; ++attempt) {
    StatusOr<OdbcExportResult> result = ExportTableOnce(table, path);
    if (result.ok()) {
      result.value().attempts = attempt;
      return result;
    }
    // Only transient link/disk faults are retryable; anything else
    // (bad table state, cancellation) surfaces immediately.
    if (result.status().code() != StatusCode::kIOError ||
        attempt >= max_attempts) {
      return result.status();
    }
    MetricsRegistry::Global().counter("odbc.retries").Increment();
    const int64_t sleep_us =
        JitteredBackoffUs(retry_, /*retry_index=*/attempt - 1, backoff_us);
    if (sleep_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    }
    // The growth schedule stays on the un-jittered bound, so a lucky
    // short sleep does not also shrink every later bound.
    backoff_us = static_cast<int64_t>(static_cast<double>(backoff_us) *
                                      retry_.multiplier);
  }
}

StatusOr<OdbcExportResult> OdbcExporter::ExportTableOnce(
    const storage::PartitionedTable& table, const std::string& path) const {
  NLQ_FAILPOINT("odbc_export");
  Stopwatch watch;
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }

  OdbcExportResult result;
  std::string line;
  storage::RowBatch batch;
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    storage::BatchScanner scanner = table.partition(p).ScanBatch();
    while (scanner.Next(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        const storage::Row& row = batch.row(i);
        line.clear();
        for (size_t c = 0; c < row.size(); ++c) {
          if (c > 0) line.push_back(',');
          const storage::Datum& v = row[c];
          if (v.is_null()) continue;  // empty field
          switch (v.type()) {
            case storage::DataType::kDouble:
              AppendDouble(&line, v.double_value());
              break;
            case storage::DataType::kInt64:
              line += std::to_string(v.int_value());
              break;
            case storage::DataType::kVarchar:
              line += v.string_value();
              break;
          }
        }
        line.push_back('\n');
        if (std::fwrite(line.data(), 1, line.size(), file) != line.size()) {
          std::fclose(file);
          return Status::IOError("short write exporting to '" + path + "'");
        }
        result.bytes += line.size();
        ++result.rows;
      }
    }
    if (!scanner.status().ok()) {
      std::fclose(file);
      return scanner.status();
    }
  }
  if (std::fclose(file) != 0) {
    return Status::IOError("close failed for '" + path + "'");
  }
  result.serialize_seconds = watch.ElapsedSeconds();
  result.modeled_link_seconds = link_.TransferSeconds(
      result.rows, table.schema().num_columns(), result.bytes);
  return result;
}

}  // namespace nlq::connect
