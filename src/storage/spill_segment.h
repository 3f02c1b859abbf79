#ifndef NLQ_STORAGE_SPILL_SEGMENT_H_
#define NLQ_STORAGE_SPILL_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/column_vector.h"
#include "storage/disk_manager.h"
#include "storage/schema.h"

namespace nlq::storage {

class Table;

/// Directory entry for one spilled chunk. A chunk is `rows`
/// consecutive table rows encoded column-at-a-time (column_codec
/// blocks behind a small chunk header) into one blob that occupies
/// whole pages [first_page, first_page + pages) of the scratch file —
/// page alignment is what lets the buffer pool cache and the readahead
/// worker operate on chunks as plain page runs.
struct SpillChunkInfo {
  uint64_t first_row = 0;
  uint32_t rows = 0;
  uint64_t first_page = 0;
  uint32_t pages = 0;
  uint64_t bytes = 0;  // blob bytes (before page padding)
};

/// On-disk columnar image of one table partition, read back through a
/// BufferPool — the larger-than-RAM half of the storage engine.
///
/// Created by Table::SpillToDisk: every kChunkRows-row column chunk of
/// the partition keeps its row range, each of its columns is
/// compressed into a column block, and the blobs land page-aligned in
/// a scratch file that is unlinked as soon as it is open (the fd keeps
/// it alive, so crashes never leak spill files). The chunk directory
/// stays in memory — it is a few dozen bytes per chunk.
///
/// Reading is chunk-granular and thread-safe: each worker pins the
/// chunk's pages one at a time, reassembles the blob in its own
/// scratch buffer, and decodes only the projected columns (others are
/// header-skipped without touching their payload). Peak pool usage per
/// worker is therefore one frame, whatever the chunk size.
///
/// VARCHAR schemas are not spillable (columnar codecs cover
/// fixed-width types only); Create rejects them upfront.
class SpillSegment {
 public:
  /// Encodes every chunk of `table` into `path` and registers the
  /// file with `pool`. The table must be fully resident (not yet
  /// spilled) and hold only DOUBLE/BIGINT columns.
  static StatusOr<std::unique_ptr<SpillSegment>> Create(
      const Table& table, const std::string& path, BufferPool* pool);

  ~SpillSegment();

  SpillSegment(const SpillSegment&) = delete;
  SpillSegment& operator=(const SpillSegment&) = delete;

  uint64_t num_rows() const { return num_rows_; }
  size_t num_chunks() const { return chunks_.size(); }
  const SpillChunkInfo& chunk(size_t i) const { return chunks_[i]; }
  size_t num_columns() const { return num_columns_; }

  /// Chunk index holding table row `row`.
  size_t ChunkOfRow(uint64_t row) const { return row / kChunkRows; }

  /// Encoded blob bytes across all chunks (before page padding).
  uint64_t compressed_bytes() const { return compressed_bytes_; }
  /// Plain fixed-width footprint of the same data (rows * columns * 8);
  /// compressed_bytes / raw_bytes is the segment's compression ratio.
  uint64_t raw_bytes() const { return num_rows_ * num_columns_ * 8; }

  /// Decodes chunk `chunk_idx`'s projected columns into `dests`
  /// (parallel to `columns`, which are schema slot indices).
  /// `scratch` is caller-owned reassembly space — pass a per-worker
  /// buffer to make concurrent reads allocation-free and thread-safe.
  Status ReadChunk(size_t chunk_idx, const std::vector<size_t>& columns,
                   const std::vector<ColumnVector*>& dests,
                   std::string* scratch) const;

  /// Queues chunk `chunk_idx`'s page run with the pool's background
  /// readahead worker (no-op past the last chunk).
  void ScheduleChunkReadahead(size_t chunk_idx) const;

 private:
  SpillSegment() = default;

  std::unique_ptr<DiskManager> disk_;
  BufferPool* pool_ = nullptr;
  uint32_t file_id_ = 0;
  uint64_t num_rows_ = 0;
  size_t num_columns_ = 0;
  uint64_t compressed_bytes_ = 0;
  std::vector<SpillChunkInfo> chunks_;
};

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_SPILL_SEGMENT_H_
