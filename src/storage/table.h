#ifndef NLQ_STORAGE_TABLE_H_
#define NLQ_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_vector.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/spill_segment.h"
#include "storage/value.h"

namespace nlq::storage {

class Table;

/// The one reader of a partition's rows: walks the chunks that
/// intersect rows [begin_row, end_row) in insertion order and resolves
/// each one's projected columns — aliased in place for a resident
/// chunk, decoded from the SpillSegment through the buffer pool for a
/// spilled one, when the cursor reaches it and on the cursor's thread.
/// Columnar scans and the view refresh point spans at the columns,
/// BatchScanner boxes them into Datums, SpillToDisk encodes them.
///
/// Reading never mutates the table, so any number of cursors may scan
/// one partition concurrently; appends must not run alongside them
/// (the engine's statement gate excludes them, DESIGN.md §14).
class ChunkCursor {
 public:
  /// `columns` are schema slot indices. The range is clamped to the
  /// table's rows; ranges from one fixed grid tile the row space
  /// exactly, whatever thread drains them.
  ChunkCursor(const Table* table, std::vector<size_t> columns,
              uint64_t begin_row, uint64_t end_row);

  /// Moves to the next window of the range: at most `max_rows` (> 0)
  /// rows, all inside one chunk, resolving the next chunk once the
  /// current one is drained. Returns false once the range is exhausted
  /// or on a read error (see `status()`).
  bool Next(size_t max_rows);

  /// Projected column `i` (indexing the constructor's `columns`) of
  /// the current chunk, holding the whole chunk; the window is its
  /// rows [offset(), offset() + rows()). Valid until the next Next().
  const ColumnVector& column(size_t i) const { return *current_[i]; }
  size_t num_columns() const { return columns_.size(); }
  size_t offset() const { return offset_; }
  size_t rows() const { return rows_; }

  /// Error observed during the scan, if any.
  const Status& status() const { return status_; }

  /// Storage blocks this cursor read, in kPageSize units: the pool
  /// pages of every spilled chunk it decoded, and for every resident
  /// chunk the plain bytes of its projected columns inside the range
  /// (8 per value) rounded up to whole blocks. A chunk split across two
  /// ranges is counted by each range's cursor.
  size_t pages_decoded() const { return pages_decoded_; }

 private:
  /// Resolves the next chunk of the range; false once none is left or
  /// on a read error.
  bool LoadNextChunk();

  const Table* table_;
  std::vector<size_t> columns_;
  uint64_t next_row_;  // first table row past the current chunk's range
  uint64_t end_row_;
  size_t offset_ = 0;     // window start within the current chunk
  size_t rows_ = 0;       // window length
  size_t chunk_end_ = 0;  // end of the range within the current chunk
  std::vector<const ColumnVector*> current_;  // parallel to columns_
  std::vector<ColumnVector> decoded_;         // spilled chunk image
  std::vector<ColumnVector*> decoded_ptrs_;   // parallel to decoded_
  std::string scratch_;                       // spilled chunk reassembly
  size_t pages_decoded_ = 0;
  Status status_;
};

/// Batched row cursor over one table partition: boxes up to a batch's
/// capacity of rows per call from the chunk columns into Datums — the
/// interpreted row path, the ODBC export and ReadAllRows.
///
/// Scans rows [begin_row, end_row) in insertion order — the
/// morsel-granular unit of the engine's parallel scans.
class BatchScanner {
 public:
  BatchScanner(const Table* table, uint64_t begin_row, uint64_t end_row);

  /// Clears `out` and fills it with up to `out->capacity()` rows.
  /// Returns false when the scan is exhausted (out left empty) or a
  /// read error occurred (see `status()`).
  bool Next(RowBatch* out);

  /// Error observed during the scan, if any.
  const Status& status() const { return cursor_.status(); }

  /// Storage blocks read so far (see ChunkCursor::pages_decoded).
  size_t pages_decoded() const { return cursor_.pages_decoded(); }

 private:
  ChunkCursor cursor_;
};

/// Append-only table partition: a schema plus a run of kChunkRows-row
/// column chunks. The last chunk is the open tail that takes appends;
/// sealed chunks never change. SpillToDisk moves every chunk into a
/// compressed SpillSegment (same row ranges, now read through the
/// buffer pool); later appends open a fresh resident tail behind it.
///
/// A Table is one *partition* in engine terms; PartitionedTable
/// aggregates several into the shared-nothing layout the paper's
/// Teradata system uses.
class Table {
 public:
  explicit Table(Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }

  /// Counts destructive mutations: Clear(), SpillToDisk() and
  /// LoadFromFile() (which Clears first) bump it; appends do NOT —
  /// appends only grow the row space, so incremental consumers (the
  /// maintained-view registry) can tell "rows were added past my
  /// watermark" (epoch unchanged, num_rows grew: accumulate the delta)
  /// from "history I already consumed was rewritten" (epoch changed:
  /// discard and rebuild).
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// Bytes of the plain column image of every row, resident or
  /// spilled: 8 per DOUBLE/BIGINT value (NULL slots included) plus
  /// the string bytes of VARCHAR values. Null bitmaps are not counted.
  uint64_t data_bytes() const { return data_bytes_; }

  /// Validates against the schema and appends.
  Status AppendRow(const Row& row);

  /// Appends without schema validation (trusted bulk-load path).
  void AppendRowUnchecked(const Row& row);

  /// Appends the rows held in `columns` — one per schema slot, of the
  /// slot's type, all the same length, with a null bitmap covering
  /// every row wherever `null_count > 0` — behind the resident rows:
  /// the open tail is topped up to kChunkRows, the rest is cut into
  /// fresh kChunkRows-row chunks, and a whole chunk that starts on a
  /// chunk boundary is moved in. The bulk path of the table writer and
  /// LoadFromFile; nothing is validated.
  void AppendColumns(std::vector<ColumnVector> columns);

  /// Encodes every chunk (the open tail included) into a compressed
  /// columnar SpillSegment at `path`, read back through `pool`, and
  /// frees the in-memory columns — the larger-than-RAM mode of the
  /// engine. Every reader serves the same rows in the same order
  /// afterwards; appends land in a new resident tail. kNotSupported
  /// when already spilled.
  Status SpillToDisk(const std::string& path, BufferPool* pool);

  bool is_spilled() const { return spill_ != nullptr; }

  /// The on-disk segment holding the spilled rows (nullptr otherwise).
  const SpillSegment* spill() const { return spill_.get(); }

  /// Opens a batched row cursor over the whole partition.
  BatchScanner ScanBatch() const { return BatchScanner(this, 0, num_rows_); }

  /// Opens a batched row cursor over rows [begin_row, end_row) — one
  /// morsel of this partition.
  BatchScanner ScanBatchRange(uint64_t begin_row, uint64_t end_row) const {
    return BatchScanner(this, begin_row, end_row);
  }

  /// Materializes every row (tests / small model tables only).
  StatusOr<std::vector<Row>> ReadAllRows() const;

  /// Removes all rows, keeping the schema. A spilled table reverts to
  /// an empty in-memory one (the spill file is dropped).
  void Clear();

  /// Writes the rows to `path` as chunk blobs (WriteChunks, the spill's
  /// writer; no catalog metadata, the caller re-creates the schema).
  /// Spilled rows are read back through the buffer pool. A failed save
  /// removes the file rather than leave part of it.
  Status SaveToFile(const std::string& path) const;

  /// Replaces this table's rows with the content of `path`, written by
  /// SaveToFile with the same schema: each chunk blob is decoded
  /// straight into resident chunks, re-cut to kChunkRows rows apiece.
  /// kNotFound when the file does not exist; any other failure names
  /// the file and leaves the table empty. A file cut on a chunk
  /// boundary loads as a shorter table — the caller checks the count.
  Status LoadFromFile(const std::string& path);

 private:
  friend class ChunkCursor;

  /// Rows held by the spill segment; resident chunks start here.
  uint64_t spilled_rows() const { return spill_ ? spill_->num_rows() : 0; }

  Schema schema_;
  uint64_t num_rows_ = 0;
  uint64_t data_bytes_ = 0;
  uint64_t mutation_epoch_ = 0;

  /// Rows [0, spilled_rows()) once SpillToDisk succeeded; nullptr
  /// while the partition is fully resident.
  std::unique_ptr<SpillSegment> spill_;

  /// Resident chunks after the spilled rows, one ColumnVector per
  /// schema column each: kChunkRows rows apiece except the last.
  std::vector<std::vector<ColumnVector>> chunks_;
};

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_TABLE_H_
