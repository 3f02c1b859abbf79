#ifndef NLQ_STORAGE_SPILL_SEGMENT_H_
#define NLQ_STORAGE_SPILL_SEGMENT_H_

#include <cstdint>
#include <functional>
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

/// Directory entry for one written chunk: `rows` consecutive table
/// rows whose blob occupies whole pages [first_page, first_page +
/// pages) of its file — page alignment is what lets the buffer pool
/// cache a chunk as a plain run of pages, pinned one at a time.
struct SpillChunkInfo {
  uint64_t first_row = 0;
  uint32_t rows = 0;
  uint64_t first_page = 0;
  uint32_t pages = 0;
  uint64_t bytes = 0;  // blob bytes (before page padding)
};

/// The chunk writer of spill and snapshot files, the one on-disk
/// encoding of table rows. Writes every row of `table`, spilled and
/// resident, to `disk` from page 0 on as one *chunk blob* per chunk of
/// the table, in row order: a 16-byte header [u32 magic][u32 rows]
/// [u32 cols][u32 pages], then one column_codec block per schema
/// column, zero-padded to `pages` whole kPageSize pages. Returns the
/// blobs' directory. A spilled table with a resident tail writes its
/// last spilled chunk short, mid-file.
StatusOr<std::vector<SpillChunkInfo>> WriteChunks(const Table& table,
                                                  DiskManager* disk);

/// The chunk reader of snapshot files: walks the blobs WriteChunks
/// wrote to `disk` by their page counts, with no directory, and hands
/// each one's decoded columns (one per `schema` column) and row count
/// to `sink`, in file order. Every header and block is checked against
/// `schema` and the file's extent before its columns are handed out;
/// any mismatch is kCorruption.
Status ReadChunks(
    const DiskManager& disk, const Schema& schema,
    const std::function<void(std::vector<ColumnVector>, size_t)>& sink);

/// On-disk columnar image of one table partition, read back through a
/// BufferPool — the larger-than-RAM half of the storage engine.
///
/// Created by Table::SpillToDisk: WriteChunks encodes every
/// kChunkRows-row column chunk of the partition, keeping its row range,
/// into a scratch file that is unlinked as soon as it is open (the fd
/// keeps it alive, so crashes never leak spill files). The chunk
/// directory stays in memory — it is a few dozen bytes per chunk.
///
/// Reading is chunk-granular and thread-safe: each worker pins the
/// chunk's pages one at a time, reassembles the blob in its own
/// scratch buffer, and decodes only the projected columns (others are
/// header-skipped without touching their payload). Peak pool usage per
/// worker is therefore one frame, whatever the chunk size.
class SpillSegment {
 public:
  /// Encodes every chunk of `table` into `path` and registers the
  /// file with `pool`. The table must be fully resident (not yet
  /// spilled).
  static StatusOr<std::unique_ptr<SpillSegment>> Create(
      const Table& table, const std::string& path, BufferPool* pool);

  ~SpillSegment();

  SpillSegment(const SpillSegment&) = delete;
  SpillSegment& operator=(const SpillSegment&) = delete;

  uint64_t num_rows() const { return num_rows_; }
  size_t num_chunks() const { return chunks_.size(); }
  const SpillChunkInfo& chunk(size_t i) const { return chunks_[i]; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Chunk index holding table row `row`.
  size_t ChunkOfRow(uint64_t row) const { return row / kChunkRows; }

  /// Encoded blob bytes across all chunks (before page padding).
  uint64_t compressed_bytes() const { return compressed_bytes_; }
  /// Plain column image of the same data (Table::data_bytes at spill
  /// time); compressed_bytes / raw_bytes is the segment's compression
  /// ratio.
  uint64_t raw_bytes() const { return raw_bytes_; }

  /// Decodes chunk `chunk_idx`'s projected columns into `dests`
  /// (parallel to `columns`, which are schema slot indices).
  /// `scratch` is caller-owned reassembly space — pass a per-worker
  /// buffer to make concurrent reads allocation-free and thread-safe.
  Status ReadChunk(size_t chunk_idx, const std::vector<size_t>& columns,
                   const std::vector<ColumnVector*>& dests,
                   std::string* scratch) const;

 private:
  SpillSegment() = default;

  std::unique_ptr<DiskManager> disk_;
  BufferPool* pool_ = nullptr;
  uint32_t file_id_ = 0;
  uint64_t num_rows_ = 0;
  Schema schema_;
  uint64_t raw_bytes_ = 0;
  uint64_t compressed_bytes_ = 0;
  std::vector<SpillChunkInfo> chunks_;
};

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_SPILL_SEGMENT_H_
