#include "storage/spill_segment.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "storage/column_codec.h"
#include "storage/table.h"

namespace nlq::storage {
namespace {

/// Chunk blob header: [u32 magic][u32 rows][u32 cols][u32 reserved],
/// followed by one column block per schema column, in schema order.
constexpr uint32_t kChunkMagic = 0x6B68634E;  // "Nchk"
constexpr size_t kChunkHeaderSize = 16;

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

StatusOr<std::unique_ptr<SpillSegment>> SpillSegment::Create(
    const Table& table, const std::string& path, BufferPool* pool) {
  if (pool == nullptr) {
    return Status::InvalidArgument("SpillSegment requires a buffer pool");
  }
  const Schema& schema = table.schema();
  std::vector<size_t> all_columns;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == DataType::kVarchar) {
      return Status::NotSupported(
          "cannot spill table with VARCHAR column '" + schema.column(c).name +
          "': columnar codecs cover fixed-width types only");
    }
    all_columns.push_back(c);
  }
  if (all_columns.empty()) {
    return Status::NotSupported("cannot spill table with no columns");
  }

  std::unique_ptr<SpillSegment> seg(new SpillSegment());
  seg->disk_ = std::make_unique<DiskManager>();
  NLQ_RETURN_IF_ERROR(seg->disk_->Open(path, /*truncate=*/true));
  // Unlink immediately: the open fd keeps the scratch file alive, and
  // a crash can never leave a stale spill file behind.
  ::unlink(path.c_str());

  seg->num_rows_ = table.num_rows();
  seg->num_columns_ = all_columns.size();

  // A resident table's chunks start at row 0 and hold kChunkRows rows
  // each but the tail, so every cursor window is one whole chunk whose
  // columns encode as they are.
  ChunkCursor cursor(&table, all_columns, 0, table.num_rows());
  std::string blob;
  Page io_page;
  uint64_t next_page = 0;
  uint64_t first = 0;
  while (cursor.Next(kChunkRows)) {
    const size_t rows = cursor.rows();
    blob.clear();
    AppendU32(&blob, kChunkMagic);
    AppendU32(&blob, static_cast<uint32_t>(rows));
    AppendU32(&blob, static_cast<uint32_t>(all_columns.size()));
    AppendU32(&blob, 0);
    for (size_t c = 0; c < all_columns.size(); ++c) {
      EncodeColumnBlock(cursor.column(c), rows, &blob);
    }

    SpillChunkInfo info;
    info.first_row = first;
    info.rows = static_cast<uint32_t>(rows);
    info.first_page = next_page;
    info.pages = static_cast<uint32_t>((blob.size() + kPageSize - 1) / kPageSize);
    info.bytes = blob.size();
    for (uint32_t p = 0; p < info.pages; ++p) {
      const size_t off = static_cast<size_t>(p) * kPageSize;
      const size_t n = std::min(kPageSize, blob.size() - off);
      std::memcpy(io_page.raw(), blob.data() + off, n);
      NLQ_RETURN_IF_ERROR(seg->disk_->WritePage(next_page + p, io_page));
    }
    next_page += info.pages;
    first += rows;
    seg->compressed_bytes_ += info.bytes;
    seg->chunks_.push_back(info);
  }
  NLQ_RETURN_IF_ERROR(cursor.status());

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

  const char* data = scratch->data();
  const size_t size = scratch->size();
  if (size < kChunkHeaderSize) {
    return Status::Corruption("spill chunk truncated before header");
  }
  if (ReadU32(data) != kChunkMagic) {
    return Status::Corruption("spill chunk bad magic");
  }
  const uint32_t rows = ReadU32(data + 4);
  const uint32_t cols = ReadU32(data + 8);
  if (rows != ck.rows || cols != num_columns_) {
    return Status::Corruption("spill chunk header mismatch");
  }

  std::vector<ColumnVector*> by_slot(num_columns_, nullptr);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] >= num_columns_) {
      return Status::InvalidArgument("ReadChunk column slot out of range");
    }
    by_slot[columns[i]] = dests[i];
  }

  size_t pos = kChunkHeaderSize;
  for (size_t c = 0; c < num_columns_; ++c) {
    if (by_slot[c] != nullptr) {
      NLQ_RETURN_IF_ERROR(DecodeColumnBlock(data, size, &pos, by_slot[c]));
    } else {
      size_t peek = pos;
      NLQ_ASSIGN_OR_RETURN(ColumnBlockHeader h,
                           PeekColumnBlockHeader(data, size, &peek));
      pos += ColumnBlockBytes(h);
      if (pos > size) {
        return Status::Corruption("spill chunk column block overruns chunk");
      }
    }
  }
  return Status::OK();
}

void SpillSegment::ScheduleChunkReadahead(size_t chunk_idx) const {
  if (chunk_idx >= chunks_.size()) return;
  const SpillChunkInfo& ck = chunks_[chunk_idx];
  pool_->ScheduleReadahead(file_id_, ck.first_page, ck.pages);
}

}  // namespace nlq::storage
