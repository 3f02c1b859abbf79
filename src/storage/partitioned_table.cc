#include "storage/partitioned_table.h"

namespace nlq::storage {

PartitionedTable::PartitionedTable(Schema schema, size_t num_partitions)
    : schema_(std::move(schema)) {
  if (num_partitions == 0) num_partitions = 1;
  partitions_.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    partitions_.push_back(std::make_unique<Table>(schema_));
  }
}

uint64_t PartitionedTable::num_rows() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) total += p->num_rows();
  return total;
}

uint64_t PartitionedTable::data_bytes() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) total += p->data_bytes();
  return total;
}

size_t PartitionedTable::RouteRow(const Row& row) const {
  if (row.empty()) return 0;
  return RoutePartition(row[0].KeyHash(), partitions_.size());
}

Status PartitionedTable::AppendRow(const Row& row) {
  return partitions_[RouteRow(row)]->AppendRow(row);
}

void PartitionedTable::AppendRowUnchecked(const Row& row) {
  partitions_[RouteRow(row)]->AppendRowUnchecked(row);
}

StatusOr<std::vector<Row>> PartitionedTable::ReadAllRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows());
  for (const auto& p : partitions_) {
    NLQ_ASSIGN_OR_RETURN(std::vector<Row> part_rows, p->ReadAllRows());
    for (auto& r : part_rows) rows.push_back(std::move(r));
  }
  return rows;
}

Status PartitionedTable::SpillToDisk(const std::string& path_prefix,
                                     BufferPool* pool) {
  for (size_t p = 0; p < partitions_.size(); ++p) {
    if (partitions_[p]->is_spilled()) continue;
    NLQ_RETURN_IF_ERROR(partitions_[p]->SpillToDisk(
        path_prefix + ".p" + std::to_string(p), pool));
  }
  return Status::OK();
}

void PartitionedTable::Clear() {
  for (auto& p : partitions_) p->Clear();
}

}  // namespace nlq::storage
