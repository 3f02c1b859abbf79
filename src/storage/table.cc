#include "storage/table.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/failpoint.h"
#include "common/strings.h"
#include "storage/disk_manager.h"

namespace nlq::storage {
namespace {

/// Every schema slot index, for spilled full-row scans.
std::vector<size_t> AllSlots(const Schema& schema) {
  std::vector<size_t> slots(schema.num_columns());
  for (size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  return slots;
}

/// Builds the spilled-scan cursor for rows [begin, end) over the
/// projected `columns` of `table`'s segment.
std::unique_ptr<SpilledScanState> MakeSpilledState(const Table* table,
                                                   std::vector<size_t> columns,
                                                   uint64_t begin,
                                                   uint64_t end) {
  auto st = std::make_unique<SpilledScanState>();
  st->seg = table->spill();
  st->columns = std::move(columns);
  st->cols.resize(st->columns.size());
  st->col_ptrs.resize(st->columns.size());
  for (size_t i = 0; i < st->cols.size(); ++i) st->col_ptrs[i] = &st->cols[i];
  st->next_row = std::min(begin, table->num_rows());
  st->end_row = std::min(end, table->num_rows());
  return st;
}

/// Copies `take` rows starting at `src_off` of `src` into `dst` at
/// `dst_off` — values via memcpy (NULL slots already hold canonical
/// 0), null bits per row since the offsets rarely share word
/// alignment.
void CopyColumnSlice(const ColumnVector& src, size_t src_off, size_t take,
                     ColumnVector* dst, size_t dst_off) {
  if (src.type == DataType::kDouble) {
    std::memcpy(dst->doubles.data() + dst_off, src.doubles.data() + src_off,
                take * sizeof(double));
  } else {
    std::memcpy(dst->ints.data() + dst_off, src.ints.data() + src_off,
                take * sizeof(int64_t));
  }
  if (src.has_nulls()) {
    for (size_t r = 0; r < take; ++r) {
      if (NullBitGet(src.null_bits.data(), src_off + r)) {
        NullBitSet(dst->null_bits.data(), dst_off + r);
        dst->null_count++;
      }
    }
  }
}

/// Materializes row `r` of the decoded chunk columns as Datums.
void SynthesizeRow(const SpilledScanState& st, size_t r, Row* row) {
  row->resize(st.cols.size());
  for (size_t i = 0; i < st.cols.size(); ++i) {
    const ColumnVector& cv = st.cols[i];
    if (cv.has_nulls() && NullBitGet(cv.null_bits.data(), r)) {
      (*row)[i] = Datum::Null(cv.type);
    } else if (cv.type == DataType::kDouble) {
      (*row)[i] = Datum::Double(cv.doubles[r]);
    } else {
      (*row)[i] = Datum::Int64(cv.ints[r]);
    }
  }
}

}  // namespace

Status SpilledScanState::EnsureChunkFor(uint64_t row) {
  const size_t ci = seg->ChunkOfRow(row);
  if (ci == loaded_chunk) return Status::OK();
  NLQ_RETURN_IF_ERROR(seg->ReadChunk(ci, columns, col_ptrs, &scratch));
  loaded_chunk = ci;
  pages_decoded += seg->chunk(ci).pages;
  // Warm the next chunk of this scan window while we drain this one.
  if (ci + 1 < seg->num_chunks() && seg->chunk(ci + 1).first_row < end_row) {
    seg->ScheduleChunkReadahead(ci + 1);
  }
  return Status::OK();
}

namespace {

/// Positions a scan cursor at absolute row `begin` of `table`: skips
/// whole pages by their row counts, then size-steps the encoded bytes
/// of the first partially-skipped page (an empty-projection
/// ColumnDecoder steps every column without materializing anything).
/// On return *page_index/*page_offset address row `begin` and
/// *rows_left is the row count remaining in that page; past-the-end
/// begins land on page_index == num_pages with rows_left == 0.
Status SeekToRow(const Table& table, uint64_t begin, size_t* page_index,
                 size_t* page_offset, size_t* rows_left) {
  uint64_t remaining = begin;
  size_t pi = 0;
  while (pi < table.num_pages() && remaining >= table.page(pi).row_count()) {
    remaining -= table.page(pi).row_count();
    ++pi;
  }
  *page_index = pi;
  *page_offset = 0;
  if (pi >= table.num_pages()) {
    *rows_left = 0;
    return Status::OK();
  }
  *rows_left = table.page(pi).row_count();
  if (remaining > 0) {
    const ColumnDecoder skipper(&table.schema(), {});
    const Page& page = table.page(pi);
    for (uint64_t i = 0; i < remaining; ++i) {
      NLQ_RETURN_IF_ERROR(skipper.DecodeRow(page.payload(),
                                            page.payload_size(), page_offset,
                                            nullptr, 0));
    }
    *rows_left -= static_cast<size_t>(remaining);
  }
  return Status::OK();
}

}  // namespace

BatchScanner::BatchScanner(const Table* table)
    : table_(table), codec_(&table->schema()), rows_wanted_(table->num_rows()) {
  if (table_->is_spilled()) {
    spill_ = MakeSpilledState(table_, AllSlots(table_->schema()), 0,
                              table_->num_rows());
    return;
  }
  if (table_->num_pages() > 0) {
    rows_left_in_page_ = table_->page(0).row_count();
  }
}

BatchScanner::BatchScanner(const Table* table, uint64_t begin_row,
                           uint64_t end_row)
    : table_(table),
      codec_(&table->schema()),
      rows_wanted_(end_row > begin_row ? end_row - begin_row : 0) {
  if (table_->is_spilled()) {
    spill_ = MakeSpilledState(table_, AllSlots(table_->schema()), begin_row,
                              end_row);
    return;
  }
  status_ = SeekToRow(*table, begin_row, &page_index_, &page_offset_,
                      &rows_left_in_page_);
}

bool BatchScanner::Next(RowBatch* out) {
  out->Clear();
  if (!status_.ok()) return false;
  NLQ_FAILPOINT_BOOL("page_decode", &status_);
  if (spill_ != nullptr) {
    SpilledScanState& st = *spill_;
    while (!out->full() && st.next_row < st.end_row) {
      status_ = st.EnsureChunkFor(st.next_row);
      if (!status_.ok()) return false;
      const SpillChunkInfo& ck = st.seg->chunk(st.loaded_chunk);
      const size_t in_chunk = static_cast<size_t>(st.next_row - ck.first_row);
      size_t take = std::min<size_t>(ck.rows - in_chunk,
                                     out->capacity() - out->size());
      take = std::min<size_t>(take,
                              static_cast<size_t>(st.end_row - st.next_row));
      for (size_t i = 0; i < take; ++i) {
        SynthesizeRow(st, in_chunk + i, &out->AppendRow());
      }
      st.next_row += take;
    }
    pages_decoded_ = st.pages_decoded;
    return !out->empty();
  }
  while (!out->full() && rows_wanted_ > 0) {
    while (page_index_ < table_->num_pages() && rows_left_in_page_ == 0) {
      ++page_index_;
      page_offset_ = 0;
      if (page_index_ < table_->num_pages()) {
        rows_left_in_page_ = table_->page(page_index_).row_count();
      }
    }
    if (page_index_ >= table_->num_pages()) break;
    if (page_index_ != counted_page_) {
      counted_page_ = page_index_;
      ++pages_decoded_;
    }
    // Decode the rest of the current page (or as much as fits) in one
    // tight loop over the page payload.
    const Page& page = table_->page(page_index_);
    size_t take = rows_left_in_page_;
    const size_t space = out->capacity() - out->size();
    if (take > space) take = space;
    if (take > rows_wanted_) take = static_cast<size_t>(rows_wanted_);
    for (size_t i = 0; i < take; ++i) {
      status_ = codec_.Decode(page.payload(), page.payload_size(),
                              &page_offset_, &out->AppendRow());
      if (!status_.ok()) {
        out->Truncate(out->size() - 1);
        return false;
      }
    }
    rows_left_in_page_ -= take;
    rows_wanted_ -= take;
  }
  return !out->empty();
}

ColumnBatchScanner::ColumnBatchScanner(const Table* table,
                                       std::vector<size_t> columns,
                                       size_t batch_capacity)
    : table_(table),
      columns_(std::move(columns)),
      batch_capacity_(batch_capacity),
      decoder_(&table->schema(), columns_),
      rows_wanted_(table->num_rows()) {
  if (!CheckColumnTypes()) return;
  if (table_->is_spilled()) {
    spill_ = MakeSpilledState(table_, columns_, 0, table_->num_rows());
    return;
  }
  if (table_->num_pages() > 0) {
    rows_left_in_page_ = table_->page(0).row_count();
  }
}

ColumnBatchScanner::ColumnBatchScanner(const Table* table,
                                       std::vector<size_t> columns,
                                       uint64_t begin_row, uint64_t end_row,
                                       size_t batch_capacity)
    : table_(table),
      columns_(std::move(columns)),
      batch_capacity_(batch_capacity),
      decoder_(&table->schema(), columns_),
      rows_wanted_(end_row > begin_row ? end_row - begin_row : 0) {
  if (!CheckColumnTypes()) return;
  if (table_->is_spilled()) {
    spill_ = MakeSpilledState(table_, columns_, begin_row, end_row);
    return;
  }
  status_ = SeekToRow(*table, begin_row, &page_index_, &page_offset_,
                      &rows_left_in_page_);
}

bool ColumnBatchScanner::CheckColumnTypes() {
  for (const size_t slot : columns_) {
    if (table_->schema().column(slot).type == DataType::kVarchar) {
      status_ = Status::InvalidArgument(
          "columnar scan supports only DOUBLE/BIGINT columns");
      return false;
    }
  }
  return true;
}

bool ColumnBatchScanner::Next(ColumnBatch* out) {
  out->Configure(table_->schema(), columns_, batch_capacity_);
  if (!status_.ok()) return false;
  NLQ_FAILPOINT_BOOL("page_decode", &status_);
  if (spill_ != nullptr) {
    SpilledScanState& st = *spill_;
    size_t filled = 0;
    while (filled < batch_capacity_ && st.next_row < st.end_row) {
      status_ = st.EnsureChunkFor(st.next_row);
      if (!status_.ok()) return false;
      const SpillChunkInfo& ck = st.seg->chunk(st.loaded_chunk);
      const size_t in_chunk = static_cast<size_t>(st.next_row - ck.first_row);
      size_t take = std::min<size_t>(ck.rows - in_chunk,
                                     batch_capacity_ - filled);
      take = std::min<size_t>(take,
                              static_cast<size_t>(st.end_row - st.next_row));
      for (size_t i = 0; i < st.cols.size(); ++i) {
        CopyColumnSlice(st.cols[i], in_chunk, take, &out->columns_[i], filled);
      }
      st.next_row += take;
      filled += take;
    }
    out->size_ = filled;
    pages_decoded_ = st.pages_decoded;
    return filled > 0;
  }
  std::vector<ColumnVector*> dests(out->columns_.size());
  for (size_t i = 0; i < dests.size(); ++i) dests[i] = &out->columns_[i];
  size_t filled = 0;
  while (filled < batch_capacity_ && rows_wanted_ > 0) {
    while (page_index_ < table_->num_pages() && rows_left_in_page_ == 0) {
      ++page_index_;
      page_offset_ = 0;
      if (page_index_ < table_->num_pages()) {
        rows_left_in_page_ = table_->page(page_index_).row_count();
      }
    }
    if (page_index_ >= table_->num_pages()) break;
    if (page_index_ != counted_page_) {
      counted_page_ = page_index_;
      ++pages_decoded_;
    }
    const Page& page = table_->page(page_index_);
    size_t take = rows_left_in_page_;
    const size_t space = batch_capacity_ - filled;
    if (take > space) take = space;
    if (take > rows_wanted_) take = static_cast<size_t>(rows_wanted_);
    for (size_t i = 0; i < take; ++i) {
      status_ = decoder_.DecodeRow(page.payload(), page.payload_size(),
                                   &page_offset_, dests.data(), filled + i);
      if (!status_.ok()) return false;
    }
    filled += take;
    rows_left_in_page_ -= take;
    rows_wanted_ -= take;
  }
  out->size_ = filled;
  return filled > 0;
}

Table::Table(Schema schema)
    : schema_(std::move(schema)),
      codec_(&schema_),
      cache_(std::make_unique<ColumnCache>(schema_.num_columns())) {}

Status Table::AppendRow(const Row& row) {
  if (is_spilled()) {
    return Status::NotSupported(
        "cannot append to a spilled table: spilled partitions are "
        "read-only");
  }
  NLQ_RETURN_IF_ERROR(schema_.ValidateRow(row));
  AppendRowUnchecked(row);
  return Status::OK();
}

void Table::AppendRowUnchecked(const Row& row) {
  assert(!is_spilled() && "cannot append to a spilled table");
  cache_->Invalidate();
  encode_buffer_.clear();
  codec_.Encode(row, &encode_buffer_);
  if (pages_.empty() || !pages_.back()->Fits(encode_buffer_.size())) {
    pages_.push_back(std::make_unique<Page>());
  }
  pages_.back()->AppendEncodedRow(encode_buffer_.data(),
                                  encode_buffer_.size());
  ++num_rows_;
  data_bytes_ += encode_buffer_.size();
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
  pages_.clear();
  num_rows_ = 0;
  data_bytes_ = 0;
  cache_->Invalidate();
  spill_.reset();
  ++mutation_epoch_;
}

Status Table::SpillToDisk(const std::string& path, BufferPool* pool,
                          size_t chunk_rows) {
  if (is_spilled()) return Status::NotSupported("table is already spilled");
  NLQ_ASSIGN_OR_RETURN(std::unique_ptr<SpillSegment> seg,
                       SpillSegment::Create(*this, path, pool, chunk_rows));
  spill_ = std::move(seg);
  pages_.clear();
  cache_->Invalidate();
  ++mutation_epoch_;
  return Status::OK();
}

Status Table::EnsureDecodedColumns(const std::vector<size_t>& columns) const {
  // Fills serialize: a concurrent statement asking for the same slots
  // waits here and then sees them already cached. Readers never take
  // this lock — they acquire-load their slot pointers.
  std::lock_guard<std::mutex> fill_lock(cache_->fill_mu);
  std::vector<size_t> missing;
  for (const size_t slot : columns) {
    if (schema_.column(slot).type == DataType::kVarchar) {
      return Status::InvalidArgument(
          "column cache supports only DOUBLE/BIGINT columns");
    }
    if (cache_->slots[slot].load(std::memory_order_relaxed) == nullptr) {
      missing.push_back(slot);
    }
  }
  if (missing.empty()) return Status::OK();
  NLQ_FAILPOINT("page_decode");

  std::vector<std::unique_ptr<ColumnVector>> fresh(missing.size());
  std::vector<ColumnVector*> dests(missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    fresh[i] = std::make_unique<ColumnVector>();
    fresh[i]->Reset(schema_.column(missing[i]).type, num_rows_);
    dests[i] = fresh[i].get();
  }
  if (is_spilled()) {
    // Chunk-at-a-time decode, gathered into the full-partition vectors.
    std::vector<ColumnVector> chunk_cols(missing.size());
    std::vector<ColumnVector*> chunk_ptrs(missing.size());
    for (size_t i = 0; i < missing.size(); ++i) chunk_ptrs[i] = &chunk_cols[i];
    std::string scratch;
    for (size_t ci = 0; ci < spill_->num_chunks(); ++ci) {
      NLQ_RETURN_IF_ERROR(
          spill_->ReadChunk(ci, missing, chunk_ptrs, &scratch));
      const SpillChunkInfo& ck = spill_->chunk(ci);
      for (size_t i = 0; i < missing.size(); ++i) {
        CopyColumnSlice(chunk_cols[i], 0, ck.rows, dests[i],
                        static_cast<size_t>(ck.first_row));
      }
    }
  } else {
    const ColumnDecoder decoder(&schema_, missing);
    size_t r = 0;
    for (const auto& page : pages_) {
      size_t offset = 0;
      const uint32_t rows = page->row_count();
      for (uint32_t i = 0; i < rows; ++i) {
        NLQ_RETURN_IF_ERROR(decoder.DecodeRow(
            page->payload(), page->payload_size(), &offset, dests.data(),
            r++));
      }
    }
  }
  for (size_t i = 0; i < missing.size(); ++i) {
    cache_->slots[missing[i]].store(fresh[i].release(),
                                    std::memory_order_release);
  }
  return Status::OK();
}

Status Table::SaveToFile(const std::string& path) const {
  if (is_spilled()) {
    return Status::NotSupported("cannot save a spilled table");
  }
  DiskManager disk;
  NLQ_RETURN_IF_ERROR(disk.Open(path, /*truncate=*/true));
  for (size_t i = 0; i < pages_.size(); ++i) {
    NLQ_RETURN_IF_ERROR(disk.WritePage(i, *pages_[i]));
  }
  return disk.Sync();
}

Status Table::LoadFromFile(const std::string& path) {
  DiskManager disk;
  NLQ_RETURN_IF_ERROR(disk.Open(path, /*truncate=*/false));
  NLQ_ASSIGN_OR_RETURN(uint64_t page_count, disk.PageCount());
  Clear();
  for (uint64_t i = 0; i < page_count; ++i) {
    auto page = std::make_unique<Page>();
    NLQ_RETURN_IF_ERROR(disk.ReadPage(i, page.get()));
    num_rows_ += page->row_count();
    data_bytes_ += page->used_bytes() - Page::kHeaderSize;
    pages_.push_back(std::move(page));
  }
  return Status::OK();
}

}  // namespace nlq::storage
