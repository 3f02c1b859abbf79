#include "storage/table.h"

#include <unistd.h>

#include <algorithm>

#include "common/failpoint.h"
#include "storage/disk_manager.h"

namespace nlq::storage {

ChunkCursor::ChunkCursor(const Table* table, std::vector<size_t> columns,
                         uint64_t begin_row, uint64_t end_row)
    : table_(table),
      columns_(std::move(columns)),
      next_row_(std::min(begin_row, table->num_rows())),
      end_row_(std::min(end_row, table->num_rows())),
      current_(columns_.size(), nullptr) {}

bool ChunkCursor::Next(size_t max_rows) {
  offset_ += rows_;
  rows_ = 0;
  if (offset_ == chunk_end_ && !LoadNextChunk()) return false;
  rows_ = std::min(chunk_end_ - offset_, max_rows);
  return true;
}

bool ChunkCursor::LoadNextChunk() {
  if (!status_.ok() || next_row_ >= end_row_) return false;
  NLQ_FAILPOINT_BOOL("page_decode", &status_);
  const uint64_t spilled = table_->spilled_rows();
  uint64_t first_row;
  uint64_t chunk_end;
  if (next_row_ < spilled) {
    const SpillSegment& seg = *table_->spill_;
    const size_t ci = seg.ChunkOfRow(next_row_);
    if (decoded_.size() != columns_.size()) {
      decoded_.resize(columns_.size());
      decoded_ptrs_.resize(columns_.size());
      for (size_t i = 0; i < decoded_.size(); ++i) {
        decoded_ptrs_[i] = &decoded_[i];
        current_[i] = &decoded_[i];
      }
    }
    status_ = seg.ReadChunk(ci, columns_, decoded_ptrs_, &scratch_);
    if (!status_.ok()) return false;
    const SpillChunkInfo& ck = seg.chunk(ci);
    pages_decoded_ += ck.pages;
    first_row = ck.first_row;
    chunk_end = ck.first_row + ck.rows;
  } else {
    const size_t j = static_cast<size_t>((next_row_ - spilled) / kChunkRows);
    const std::vector<ColumnVector>& chunk = table_->chunks_[j];
    for (size_t i = 0; i < columns_.size(); ++i) {
      current_[i] = &chunk[columns_[i]];
    }
    first_row = spilled + j * kChunkRows;
    chunk_end = std::min<uint64_t>(first_row + kChunkRows, table_->num_rows());
    // Read in place: count the projected bytes in the range in the
    // block unit of a spilled chunk's pool pages.
    const uint64_t bytes = (std::min(chunk_end, end_row_) - next_row_) *
                           columns_.size() * sizeof(double);
    pages_decoded_ += static_cast<size_t>((bytes + kPageSize - 1) / kPageSize);
  }
  offset_ = static_cast<size_t>(next_row_ - first_row);
  chunk_end_ = static_cast<size_t>(std::min(chunk_end, end_row_) - first_row);
  next_row_ = first_row + chunk_end_;
  return true;
}

namespace {

/// Every schema slot index: row readers project the whole row.
std::vector<size_t> AllSlots(const Schema& schema) {
  std::vector<size_t> slots(schema.num_columns());
  for (size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  return slots;
}

}  // namespace

BatchScanner::BatchScanner(const Table* table, uint64_t begin_row,
                           uint64_t end_row)
    : cursor_(table, AllSlots(table->schema()), begin_row, end_row) {}

bool BatchScanner::Next(RowBatch* out) {
  out->Clear();
  const size_t ncols = cursor_.num_columns();
  while (!out->full() && cursor_.Next(out->capacity() - out->size())) {
    const size_t begin = cursor_.offset();
    // Row-major gather: each output row is written once, contiguously,
    // while the chunk columns are read as parallel sequential streams.
    for (size_t r = begin; r < begin + cursor_.rows(); ++r) {
      Row& row = out->AppendRow();
      row.resize(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        const ColumnVector& col = cursor_.column(c);
        if (col.has_nulls() && NullBitGet(col.null_bits.data(), r)) {
          row[c] = Datum::Null(col.type);
        } else if (col.type == DataType::kDouble) {
          row[c] = Datum::Double(col.doubles[r]);
        } else if (col.type == DataType::kInt64) {
          row[c] = Datum::Int64(col.ints[r]);
        } else {
          row[c] = Datum::Varchar(col.strings[r]);
        }
      }
    }
  }
  return !out->empty();
}

Table::Table(Schema schema) : schema_(std::move(schema)) {}

Status Table::AppendRow(const Row& row) {
  NLQ_RETURN_IF_ERROR(schema_.ValidateRow(row));
  AppendRowUnchecked(row);
  return Status::OK();
}

void Table::AppendRowUnchecked(const Row& row) {
  if (chunks_.empty() || (num_rows_ - spilled_rows()) % kChunkRows == 0) {
    std::vector<ColumnVector>& chunk = chunks_.emplace_back(schema_.num_columns());
    for (size_t c = 0; c < chunk.size(); ++c) {
      chunk[c].type = schema_.column(c).type;
    }
  }
  std::vector<ColumnVector>& tail = chunks_.back();
  for (size_t c = 0; c < tail.size(); ++c) {
    tail[c].Append(row[c]);
    data_bytes_ += tail[c].type == DataType::kVarchar
                       ? tail[c].strings.back().size()
                       : sizeof(double);
  }
  ++num_rows_;
}

StatusOr<std::vector<Row>> Table::ReadAllRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  BatchScanner scanner = ScanBatch();
  RowBatch batch;
  while (scanner.Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      rows.push_back(std::move(batch.row(i)));
    }
  }
  if (!scanner.status().ok()) return scanner.status();
  return rows;
}

void Table::Clear() {
  chunks_.clear();
  spill_.reset();
  num_rows_ = 0;
  data_bytes_ = 0;
  ++mutation_epoch_;
}

Status Table::SpillToDisk(const std::string& path, BufferPool* pool) {
  if (is_spilled()) return Status::NotSupported("table is already spilled");
  NLQ_ASSIGN_OR_RETURN(spill_, SpillSegment::Create(*this, path, pool));
  chunks_.clear();
  ++mutation_epoch_;
  return Status::OK();
}

void Table::AppendColumns(std::vector<ColumnVector> columns) {
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  if (rows == 0) return;
  for (const ColumnVector& col : columns) {
    if (col.type != DataType::kVarchar) {
      data_bytes_ += rows * sizeof(double);
      continue;
    }
    for (const std::string& value : col.strings) data_bytes_ += value.size();
  }
  size_t tail_rows =
      static_cast<size_t>((num_rows_ - spilled_rows()) % kChunkRows);
  num_rows_ += rows;
  if (tail_rows == 0 && rows == kChunkRows) {
    chunks_.push_back(std::move(columns));
    return;
  }
  // Top up the open tail (a chunk after a spilled table's short last
  // chunk counts from the spilled rows), then open fresh chunks, so
  // every resident chunk but the last holds kChunkRows rows.
  for (size_t done = 0; done < rows;) {
    if (tail_rows == 0) {
      std::vector<ColumnVector>& fresh = chunks_.emplace_back(columns.size());
      for (size_t c = 0; c < columns.size(); ++c) {
        fresh[c].type = columns[c].type;
      }
    }
    const size_t take = std::min(rows - done, kChunkRows - tail_rows);
    std::vector<ColumnVector>& tail = chunks_.back();
    for (size_t c = 0; c < columns.size(); ++c) {
      tail[c].AppendRange(columns[c], done, take);
    }
    done += take;
    tail_rows = (tail_rows + take) % kChunkRows;
  }
}

Status Table::SaveToFile(const std::string& path) const {
  DiskManager disk;
  NLQ_RETURN_IF_ERROR(disk.Open(path, /*truncate=*/true));
  Status status = WriteChunks(*this, &disk).status();
  if (status.ok()) status = disk.Sync();
  // Never leave a partial file behind: it would load as a shorter table.
  if (!status.ok()) ::unlink(path.c_str());
  return status;
}

Status Table::LoadFromFile(const std::string& path) {
  // DiskManager::Open would create a missing file and load it as empty.
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound("no snapshot file '" + path + "'");
  }
  Clear();
  DiskManager disk;
  Status status = disk.Open(path, /*truncate=*/false);
  if (status.ok()) {
    status = ReadChunks(disk, schema_,
                        [this](std::vector<ColumnVector> chunk, size_t) {
                          AppendColumns(std::move(chunk));
                        });
  }
  if (status.ok()) return status;
  Clear();
  return Status(status.code(),
                "snapshot file '" + path + "': " + status.message());
}

}  // namespace nlq::storage
