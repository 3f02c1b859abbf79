#ifndef NLQ_STORAGE_TABLE_H_
#define NLQ_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_batch.h"
#include "storage/page.h"
#include "storage/row_batch.h"
#include "storage/row_codec.h"
#include "storage/schema.h"
#include "storage/spill_segment.h"
#include "storage/value.h"

namespace nlq::storage {

class Table;

/// Cursor state shared by the scanners when the partition is spilled:
/// the decoded image of the current chunk plus the absolute row window
/// still to produce. Lives behind a unique_ptr so the resident scan
/// path pays nothing for it.
struct SpilledScanState {
  const SpillSegment* seg = nullptr;
  std::vector<size_t> columns;          // schema slots decoded per chunk
  std::vector<ColumnVector> cols;       // parallel to columns
  std::vector<ColumnVector*> col_ptrs;  // parallel to cols
  std::string scratch;                  // chunk reassembly buffer
  uint64_t next_row = 0;                // absolute next row to produce
  uint64_t end_row = 0;
  size_t loaded_chunk = SIZE_MAX;
  size_t pages_decoded = 0;  // spill pages read for loaded chunks

  /// Decodes the chunk holding `row` unless already loaded, and queues
  /// background readahead for the next chunk of the scan window.
  Status EnsureChunkFor(uint64_t row);
};

/// Batched cursor over one table partition: decodes up to a batch's
/// capacity of rows per call (a page's worth or more), amortizing
/// cursor bookkeeping over the batch instead of paying it per row.
///
/// The range form scans rows [begin_row, end_row) in insertion order —
/// the morsel-granular unit of the engine's parallel scans. Seeking
/// skips whole pages by their row counts and size-steps the encoded
/// bytes inside the first page, so no skipped row is materialized.
class BatchScanner {
 public:
  explicit BatchScanner(const Table* table);
  BatchScanner(const Table* table, uint64_t begin_row, uint64_t end_row);

  /// Clears `out` and fills it with up to `out->capacity()` decoded
  /// rows. Returns false when the scan is exhausted (out left empty)
  /// or a decode error occurred (see `status()`).
  bool Next(RowBatch* out);

  /// Error observed during the scan, if any.
  const Status& status() const { return status_; }

  /// Distinct pages this cursor decoded rows from so far. Seeked-over
  /// pages don't count (their rows were never materialized); a page
  /// split across two ranges is counted once by each range's cursor.
  size_t pages_decoded() const { return pages_decoded_; }

 private:
  const Table* table_;
  RowCodec codec_;
  size_t page_index_ = 0;
  size_t page_offset_ = 0;
  size_t rows_left_in_page_ = 0;
  uint64_t rows_wanted_ = 0;  // rows still to produce before end_row
  size_t pages_decoded_ = 0;
  size_t counted_page_ = SIZE_MAX;  // last page charged to pages_decoded_
  Status status_;
  std::unique_ptr<SpilledScanState> spill_;  // set iff the table is spilled
};

/// Columnar cursor over one table partition: decodes the projected
/// columns of up to a batch's capacity of rows per call straight into
/// typed arrays (no Datum construction). Non-projected columns are
/// size-stepped in the encoded bytes.
class ColumnBatchScanner {
 public:
  /// `columns` are schema slot indices to materialize; each must be a
  /// DOUBLE or BIGINT column (VARCHAR stays on the row path).
  ColumnBatchScanner(const Table* table, std::vector<size_t> columns,
                     size_t batch_capacity = ColumnBatch::kDefaultCapacity);

  /// Range form: decodes rows [begin_row, end_row) only (the columnar
  /// morsel scan; see BatchScanner for the seek mechanics).
  ColumnBatchScanner(const Table* table, std::vector<size_t> columns,
                     uint64_t begin_row, uint64_t end_row,
                     size_t batch_capacity = ColumnBatch::kDefaultCapacity);

  /// Re-configures `out` for this scan's projection and fills it with
  /// up to `batch_capacity` decoded rows. Returns false when the scan
  /// is exhausted (out left empty) or on a decode error (see
  /// `status()`).
  bool Next(ColumnBatch* out);

  /// Error observed during the scan, if any.
  const Status& status() const { return status_; }

  /// Distinct pages this cursor decoded rows from (see
  /// BatchScanner::pages_decoded).
  size_t pages_decoded() const { return pages_decoded_; }

 private:
  /// Rejects VARCHAR projections; sets status_ and returns false.
  bool CheckColumnTypes();

  const Table* table_;
  std::vector<size_t> columns_;
  size_t batch_capacity_;
  ColumnDecoder decoder_;
  size_t page_index_ = 0;
  size_t page_offset_ = 0;
  size_t rows_left_in_page_ = 0;
  uint64_t rows_wanted_ = 0;  // rows still to produce before end_row
  size_t pages_decoded_ = 0;
  size_t counted_page_ = SIZE_MAX;  // last page charged to pages_decoded_
  Status status_;
  std::unique_ptr<SpilledScanState> spill_;  // set iff the table is spilled
};

/// Append-only heap table: a schema plus a run of 64 KB pages.
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
  size_t num_pages() const { return pages_.size(); }

  /// Counts destructive mutations: Clear(), SpillToDisk() and
  /// LoadFromFile() (which Clears first) bump it; appends do NOT —
  /// appends only grow the row space, so incremental consumers (the
  /// maintained-view registry) can tell "rows were added past my
  /// watermark" (epoch unchanged, num_rows grew: accumulate the delta)
  /// from "history I already consumed was rewritten" (epoch changed:
  /// discard and rebuild).
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// Total payload bytes across pages (row data only).
  uint64_t data_bytes() const { return data_bytes_; }

  /// Validates against the schema and appends. Fails with
  /// kNotSupported once the table is spilled.
  Status AppendRow(const Row& row);

  /// Appends without schema validation (trusted bulk-load path).
  /// Must not be called on a spilled table.
  void AppendRowUnchecked(const Row& row);

  /// Converts this partition's row pages into a compressed columnar
  /// SpillSegment at `path`, read back through `pool`, and frees the
  /// in-memory pages — the larger-than-RAM mode of the engine. Every
  /// scanner transparently serves the same rows in the same order
  /// afterwards; appends and SaveToFile become kNotSupported. VARCHAR
  /// schemas cannot spill.
  Status SpillToDisk(const std::string& path, BufferPool* pool,
                     size_t chunk_rows = SpillSegment::kDefaultChunkRows);

  bool is_spilled() const { return spill_ != nullptr; }

  /// The on-disk segment backing a spilled table (nullptr otherwise).
  const SpillSegment* spill() const { return spill_.get(); }

  /// Opens a batched scan cursor (one decode call per RowBatch).
  BatchScanner ScanBatch() const { return BatchScanner(this); }

  /// Opens a batched scan cursor over rows [begin_row, end_row) — one
  /// morsel of this partition. Ranges from the same fixed grid
  /// partition the row space exactly, whatever thread drains them.
  BatchScanner ScanBatchRange(uint64_t begin_row, uint64_t end_row) const {
    return BatchScanner(this, begin_row, end_row);
  }

  /// Opens a columnar scan cursor over `columns` (schema slot indices
  /// of DOUBLE/BIGINT columns).
  ColumnBatchScanner ScanColumnBatch(
      std::vector<size_t> columns,
      size_t batch_capacity = ColumnBatch::kDefaultCapacity) const {
    return ColumnBatchScanner(this, std::move(columns), batch_capacity);
  }

  /// Columnar counterpart of ScanBatchRange.
  ColumnBatchScanner ScanColumnBatchRange(
      std::vector<size_t> columns, uint64_t begin_row, uint64_t end_row,
      size_t batch_capacity = ColumnBatch::kDefaultCapacity) const {
    return ColumnBatchScanner(this, std::move(columns), begin_row, end_row,
                              batch_capacity);
  }

  /// Decoded-column cache: decodes every not-yet-cached column of
  /// `columns` in one pass over the pages and keeps the full-partition
  /// ColumnVectors for reuse (the paper's workload scans the same X
  /// for the model build and again for scoring). Invalidated by any
  /// append, Clear(), or LoadFromFile(). Concurrent fills from
  /// different statements serialize on an internal mutex; fills may
  /// run concurrently with readers of already-cached slots (the server
  /// executes many SELECTs against one table at once). Mutations are
  /// NOT safe against concurrent fills or reads — the engine excludes
  /// them with its statement gate (DESIGN.md §14).
  Status EnsureDecodedColumns(const std::vector<size_t>& columns) const;

  /// Cached decoded column `col`, or nullptr if not (or no longer)
  /// cached. Pointers stay valid until the next mutation of the table.
  /// Safe to call concurrently with fills of other statements; a
  /// non-null result is fully decoded (release/acquire pairing with
  /// the filling thread).
  const ColumnVector* decoded_column(size_t col) const {
    return col < cache_->slots.size()
               ? cache_->slots[col].load(std::memory_order_acquire)
               : nullptr;
  }

  /// Materializes every row (tests / small model tables only).
  StatusOr<std::vector<Row>> ReadAllRows() const;

  /// Removes all rows, keeping the schema. A spilled table reverts to
  /// an empty in-memory one (the spill file is dropped).
  void Clear();

  /// Persists pages to `path` (page images preceded by no catalog
  /// metadata; the caller re-creates the schema). kNotSupported on a
  /// spilled table.
  Status SaveToFile(const std::string& path) const;

  /// Replaces this table's pages with the content of `path`. The file
  /// must have been produced by SaveToFile with the same schema.
  Status LoadFromFile(const std::string& path);

  const Page& page(size_t idx) const { return *pages_[idx]; }

 private:
  friend class BatchScanner;
  friend class ColumnBatchScanner;

  Schema schema_;
  RowCodec codec_;
  std::vector<std::unique_ptr<Page>> pages_;
  uint64_t num_rows_ = 0;
  uint64_t data_bytes_ = 0;
  uint64_t mutation_epoch_ = 0;
  std::string encode_buffer_;

  /// Lazily filled by EnsureDecodedColumns; one owning slot per schema
  /// column, nullptr = not cached. The slot array is sized once at
  /// construction and never resized, so readers need no lock: they
  /// acquire-load their slot while another statement's fill
  /// release-stores a different one. fill_mu serializes fills; any
  /// mutation (which the engine runs exclusively) clears every slot.
  /// Held behind unique_ptr so Table stays movable despite the mutex.
  struct ColumnCache {
    explicit ColumnCache(size_t num_slots) : slots(num_slots) {}
    ~ColumnCache() { Invalidate(); }
    void Invalidate() {
      for (auto& slot : slots) {
        delete slot.exchange(nullptr, std::memory_order_acq_rel);
      }
    }
    std::mutex fill_mu;
    std::vector<std::atomic<ColumnVector*>> slots;
  };
  std::unique_ptr<ColumnCache> cache_;

  /// Non-null once SpillToDisk succeeded; pages_ is empty then and
  /// every scan goes through the segment + buffer pool.
  std::unique_ptr<SpillSegment> spill_;
};

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_TABLE_H_
