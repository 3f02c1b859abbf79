#include "storage/spill_segment.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "storage/column_codec.h"
#include "storage/table.h"

namespace nlq::storage {
namespace {

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void WriteU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

size_t PagesFor(size_t bytes) { return (bytes + kPageSize - 1) / kPageSize; }

/// A chunk blob's header (see WriteChunks).
struct ChunkHeader {
  static constexpr uint32_t kMagic = 0x6B68634E;  // "Nchk"
  static constexpr size_t kEncodedSize = 16;

  uint32_t rows = 0;   // 1..kChunkRows
  uint32_t cols = 0;
  uint32_t pages = 0;  // >= 1
};

/// Reads the header at the start of a chunk blob of `size` bytes.
/// kCorruption for a short buffer, a bad magic, a row count outside
/// [1, kChunkRows] or zero pages.
StatusOr<ChunkHeader> PeekChunkHeader(const char* data, size_t size) {
  if (size < ChunkHeader::kEncodedSize) {
    return Status::Corruption("chunk truncated before its header");
  }
  if (ReadU32(data) != ChunkHeader::kMagic) {
    return Status::Corruption("chunk has a bad magic");
  }
  ChunkHeader h;
  h.rows = ReadU32(data + 4);
  h.cols = ReadU32(data + 8);
  h.pages = ReadU32(data + 12);
  if (h.rows == 0 || h.rows > kChunkRows) {
    return Status::Corruption("chunk row count " + std::to_string(h.rows) +
                              " out of range");
  }
  if (h.pages == 0) return Status::Corruption("chunk of zero pages");
  return h;
}

/// The chunk decoder: decodes the blob `data[0, size)` of a table with
/// `schema`. Checks the header, every block's type and row count and
/// the blob's page count against them, decodes the columns whose
/// `dests[slot]` is set and header-skips the others.
StatusOr<ChunkHeader> DecodeChunk(const char* data, size_t size,
                                  const Schema& schema,
                                  const std::vector<ColumnVector*>& dests) {
  NLQ_ASSIGN_OR_RETURN(const ChunkHeader h, PeekChunkHeader(data, size));
  if (h.cols != schema.num_columns()) {
    return Status::Corruption("chunk has " + std::to_string(h.cols) +
                              " columns, the table " +
                              std::to_string(schema.num_columns()));
  }
  size_t pos = ChunkHeader::kEncodedSize;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    size_t payload = pos;
    NLQ_ASSIGN_OR_RETURN(const ColumnBlockHeader block,
                         PeekColumnBlockHeader(data, size, &payload));
    if (block.type != static_cast<uint8_t>(schema.column(c).type) ||
        block.rows != h.rows) {
      return Status::Corruption("chunk column " + std::to_string(c) +
                                " block does not match the table");
    }
    if (dests[c] != nullptr) {
      NLQ_RETURN_IF_ERROR(DecodeColumnBlock(data, size, &pos, dests[c]));
    } else {
      pos += ColumnBlockBytes(block);
    }
  }
  if (PagesFor(pos) != h.pages) {
    return Status::Corruption("chunk page count does not match its blocks");
  }
  return h;
}

}  // namespace

StatusOr<std::vector<SpillChunkInfo>> WriteChunks(const Table& table,
                                                  DiskManager* disk) {
  std::vector<size_t> all_columns(table.schema().num_columns());
  std::iota(all_columns.begin(), all_columns.end(), size_t{0});
  // The range starts at row 0 and a window never crosses a chunk, so
  // every window is one whole chunk, spilled or resident, whose columns
  // encode as they are.
  ChunkCursor cursor(&table, all_columns, 0, table.num_rows());
  std::vector<SpillChunkInfo> chunks;
  std::string blob;
  uint64_t next_page = 0;
  uint64_t first = 0;
  while (cursor.Next(kChunkRows)) {
    const size_t rows = cursor.rows();
    blob.assign(ChunkHeader::kEncodedSize, '\0');  // patched below
    for (size_t c = 0; c < all_columns.size(); ++c) {
      NLQ_RETURN_IF_ERROR(
          EncodeColumnBlock(cursor.column(c), rows, &blob).status());
    }

    SpillChunkInfo info;
    info.first_row = first;
    info.rows = static_cast<uint32_t>(rows);
    info.first_page = next_page;
    info.pages = static_cast<uint32_t>(PagesFor(blob.size()));
    info.bytes = blob.size();
    WriteU32(blob.data(), ChunkHeader::kMagic);
    WriteU32(blob.data() + 4, info.rows);
    WriteU32(blob.data() + 8, static_cast<uint32_t>(all_columns.size()));
    WriteU32(blob.data() + 12, info.pages);
    blob.resize(static_cast<size_t>(info.pages) * kPageSize, '\0');
    for (uint32_t p = 0; p < info.pages; ++p) {
      NLQ_RETURN_IF_ERROR(disk->WritePage(
          next_page + p, blob.data() + static_cast<size_t>(p) * kPageSize));
    }
    next_page += info.pages;
    first += rows;
    chunks.push_back(info);
  }
  NLQ_RETURN_IF_ERROR(cursor.status());
  return chunks;
}

Status ReadChunks(
    const DiskManager& disk, const Schema& schema,
    const std::function<void(std::vector<ColumnVector>, size_t)>& sink) {
  NLQ_ASSIGN_OR_RETURN(const uint64_t file_pages, disk.PageCount());
  std::string blob;
  uint64_t page = 0;
  while (page < file_pages) {
    // The first page holds the header, which says how many more pages
    // the blob spans.
    blob.resize(kPageSize);
    NLQ_RETURN_IF_ERROR(disk.ReadPages(page, {blob.data()}));
    NLQ_ASSIGN_OR_RETURN(const ChunkHeader h,
                         PeekChunkHeader(blob.data(), blob.size()));
    if (h.pages > file_pages - page) {
      return Status::Corruption("chunk at page " + std::to_string(page) +
                                " runs past the end of the file");
    }
    blob.resize(static_cast<size_t>(h.pages) * kPageSize);
    std::vector<char*> rest;
    for (uint32_t p = 1; p < h.pages; ++p) {
      rest.push_back(blob.data() + static_cast<size_t>(p) * kPageSize);
    }
    NLQ_RETURN_IF_ERROR(disk.ReadPages(page + 1, rest));
    std::vector<ColumnVector> chunk(schema.num_columns());
    std::vector<ColumnVector*> dests;
    for (ColumnVector& col : chunk) dests.push_back(&col);
    NLQ_RETURN_IF_ERROR(
        DecodeChunk(blob.data(), blob.size(), schema, dests).status());
    sink(std::move(chunk), h.rows);
    page += h.pages;
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<SpillSegment>> SpillSegment::Create(
    const Table& table, const std::string& path, BufferPool* pool) {
  if (pool == nullptr) {
    return Status::InvalidArgument("SpillSegment requires a buffer pool");
  }
  const Schema& schema = table.schema();
  if (schema.num_columns() == 0) {
    return Status::NotSupported("cannot spill table with no columns");
  }

  std::unique_ptr<SpillSegment> seg(new SpillSegment());
  seg->disk_ = std::make_unique<DiskManager>();
  NLQ_RETURN_IF_ERROR(seg->disk_->Open(path, /*truncate=*/true));
  // Unlink immediately: the open fd keeps the scratch file alive, and
  // a crash can never leave a stale spill file behind.
  ::unlink(path.c_str());

  seg->num_rows_ = table.num_rows();
  seg->raw_bytes_ = table.data_bytes();
  seg->schema_ = schema;
  NLQ_ASSIGN_OR_RETURN(seg->chunks_, WriteChunks(table, seg->disk_.get()));
  for (const SpillChunkInfo& ck : seg->chunks_) {
    seg->compressed_bytes_ += ck.bytes;
  }

  seg->pool_ = pool;
  seg->file_id_ = pool->RegisterFile(seg->disk_.get());
  return seg;
}

SpillSegment::~SpillSegment() {
  if (pool_ != nullptr) pool_->UnregisterFile(file_id_);
  // DiskManager closes the fd; the file was unlinked at creation.
}

Status SpillSegment::ReadChunk(size_t chunk_idx,
                               const std::vector<size_t>& columns,
                               const std::vector<ColumnVector*>& dests,
                               std::string* scratch) const {
  if (chunk_idx >= chunks_.size()) {
    return Status::OutOfRange("spill chunk index out of range");
  }
  if (columns.size() != dests.size()) {
    return Status::InvalidArgument("ReadChunk columns/dests size mismatch");
  }
  const SpillChunkInfo& ck = chunks_[chunk_idx];

  // Reassemble the blob one pinned page at a time: peak pool usage per
  // reader is a single frame regardless of chunk size, so a pool at
  // its minimum frame floor still serves a full worker complement.
  scratch->resize(ck.bytes);
  for (uint32_t p = 0; p < ck.pages; ++p) {
    auto pin = pool_->Pin(file_id_, ck.first_page + p);
    if (!pin.ok()) return pin.status();
    const size_t off = static_cast<size_t>(p) * kPageSize;
    const size_t n = std::min(kPageSize, static_cast<size_t>(ck.bytes) - off);
    std::memcpy(scratch->data() + off, pin->data(), n);
  }

  std::vector<ColumnVector*> by_slot(schema_.num_columns(), nullptr);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] >= schema_.num_columns()) {
      return Status::InvalidArgument("ReadChunk column slot out of range");
    }
    by_slot[columns[i]] = dests[i];
  }
  NLQ_ASSIGN_OR_RETURN(
      const ChunkHeader h,
      DecodeChunk(scratch->data(), scratch->size(), schema_, by_slot));
  if (h.rows != ck.rows || h.pages != ck.pages) {
    return Status::Corruption("spill chunk header mismatch");
  }
  return Status::OK();
}

}  // namespace nlq::storage
