#ifndef NLQ_STORAGE_PARTITIONED_TABLE_H_
#define NLQ_STORAGE_PARTITIONED_TABLE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace nlq::storage {

/// The partition, of `num_partitions`, that a row whose key (column 0)
/// has Datum::KeyHash `key_hash` belongs to: Fibonacci hashing of the
/// key hash spreads sequential ids evenly. The one routing rule —
/// PartitionedTable::AppendRow and the engine's table writer, which
/// routes rows still held in columns, both call it.
inline size_t RoutePartition(size_t key_hash, size_t num_partitions) {
  if (num_partitions <= 1) return 0;
  return key_hash * 0x9e3779b97f4a7c15ULL % num_partitions;
}

/// Horizontally hash-partitioned table — the shared-nothing layout the
/// paper's Teradata deployment uses ("data sets were horizontally
/// partitioned evenly among threads"). Rows are routed by the hash of
/// the first column (the point id `i`, see RoutePartition), which spreads
/// a sequential id space evenly across partitions.
class PartitionedTable {
 public:
  PartitionedTable(Schema schema, size_t num_partitions);

  const Schema& schema() const { return schema_; }
  size_t num_partitions() const { return partitions_.size(); }

  uint64_t num_rows() const;
  uint64_t data_bytes() const;

  /// Validates and appends, routing by hash of column 0.
  Status AppendRow(const Row& row);

  /// Trusted bulk-load path (no validation).
  void AppendRowUnchecked(const Row& row);

  /// Partition accessors for per-AMP parallel scans.
  const Table& partition(size_t p) const { return *partitions_[p]; }
  Table& partition(size_t p) { return *partitions_[p]; }

  /// Opens a batched cursor over partition `p`.
  BatchScanner ScanPartitionBatches(size_t p) const {
    return partitions_[p]->ScanBatch();
  }

  /// Opens a batched cursor over rows [begin_row, end_row) of
  /// partition `p` — one morsel of the engine's parallel scans.
  BatchScanner ScanPartitionBatches(size_t p, uint64_t begin_row,
                                    uint64_t end_row) const {
    return partitions_[p]->ScanBatchRange(begin_row, end_row);
  }

  /// Appends to an explicit partition, bypassing hash routing — for
  /// tests and benchmarks that need a controlled (e.g. skewed) layout.
  Status AppendRowToPartition(size_t p, const Row& row) {
    return partitions_[p]->AppendRow(row);
  }

  /// Materializes all rows across partitions (partition order, then
  /// insertion order within a partition).
  StatusOr<std::vector<Row>> ReadAllRows() const;

  /// Spills every partition to compressed on-disk segments under
  /// `path_prefix` (one scratch file per partition, suffixed ".pN"),
  /// read back through `pool`. See Table::SpillToDisk for semantics;
  /// already-spilled partitions are skipped, so re-spilling is a
  /// no-op, and a failure partway leaves earlier partitions spilled —
  /// scans stay correct either way.
  Status SpillToDisk(const std::string& path_prefix, BufferPool* pool);

  /// Removes all rows from all partitions.
  void Clear();

 private:
  size_t RouteRow(const Row& row) const;

  Schema schema_;
  std::vector<std::unique_ptr<Table>> partitions_;
};

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_PARTITIONED_TABLE_H_
