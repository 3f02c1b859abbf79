#include "engine/exec/columnar_scan_node.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "storage/column_vector.h"

namespace nlq::engine::exec {

using storage::ColumnVector;
using storage::DataType;
using storage::NullBitGet;
using storage::NullBitmapWords;
using storage::NullBitSet;

namespace {

/// ANDs one pushed-down comparison into `keep`. Values are widened to
/// double exactly like Datum::AsDouble, so the verdict matches the
/// row-path interpreter bit for bit; NULL operands fail every
/// comparison (UNKNOWN drops the row, as in FilterNode).
void ApplyColumnFilter(const ColumnFilter& f, const ColumnSpanBatch& in,
                       uint8_t* keep) {
  const double* dv = in.doubles[f.col];
  const int64_t* iv = in.ints[f.col];
  const uint64_t* nb = in.null_bits[f.col];
  const double lit = f.value;
  for (size_t r = 0; r < in.rows; ++r) {
    if (!keep[r]) continue;
    if (nb != nullptr && NullBitGet(nb, r)) {
      keep[r] = 0;
      continue;
    }
    const double v = dv != nullptr ? dv[r] : static_cast<double>(iv[r]);
    bool pass = false;
    switch (f.op) {
      case BinaryOp::kEq: pass = v == lit; break;
      case BinaryOp::kNe: pass = v != lit; break;
      case BinaryOp::kLt: pass = v < lit; break;
      case BinaryOp::kLe: pass = v <= lit; break;
      case BinaryOp::kGt: pass = v > lit; break;
      case BinaryOp::kGe: pass = v >= lit; break;
      default: break;
    }
    if (!pass) keep[r] = 0;
  }
}

/// Stream over one morsel — rows [begin, end) of one partition. Each
/// batch is a slice of the cursor's current chunk: spans point into
/// the chunk columns, and only a slice starting off a 64-row boundary
/// repacks its null bits. Filtered batches are compacted
/// (order-preserving) into stream-owned scratch columns.
class ColumnarScanStream : public ColumnStream {
 public:
  ColumnarScanStream(const storage::Table* partition, uint64_t begin_row,
                     uint64_t end_row, const std::vector<size_t>& slots,
                     const std::vector<ColumnFilter>& filters,
                     size_t batch_capacity, const QueryContext* ctx)
      : cursor_(partition, slots, begin_row, end_row),
        filters_(filters),
        batch_capacity_(batch_capacity),
        ctx_(ctx),
        scratch_(slots.size()),
        slice_bits_(slots.size()) {}

  StatusOr<bool> Next(ColumnSpanBatch* out) override {
    if (ctx_ != nullptr) NLQ_RETURN_IF_ERROR(ctx_->CheckAlive());
    NLQ_FAILPOINT("partition_scan");
    for (;;) {
      const bool more = cursor_.Next(batch_capacity_);
      const size_t decoded = cursor_.pages_decoded();
      if (decoded != pages_reported_ && ctx_ != nullptr &&
          ctx_->stats() != nullptr) {
        ctx_->stats()->pages_decoded.fetch_add(decoded - pages_reported_,
                                               std::memory_order_relaxed);
        pages_reported_ = decoded;
      }
      if (!cursor_.status().ok()) return cursor_.status();
      if (!more) return false;
      Point(out, cursor_.offset(), cursor_.rows());
      if (Filter(out)) return true;
    }
  }

 private:
  /// Points `out`'s spans at rows [begin, begin + rows) of the current
  /// chunk's columns.
  void Point(ColumnSpanBatch* out, size_t begin, size_t rows) {
    const size_t ncols = slice_bits_.size();
    out->rows = rows;
    out->doubles.assign(ncols, nullptr);
    out->ints.assign(ncols, nullptr);
    out->null_bits.assign(ncols, nullptr);
    for (size_t c = 0; c < ncols; ++c) {
      const ColumnVector& col = cursor_.column(c);
      if (col.type == DataType::kDouble) {
        out->doubles[c] = col.double_data() + begin;
      } else {
        out->ints[c] = col.int_data() + begin;
      }
      if (!col.has_nulls()) continue;
      if (begin % 64 == 0) {
        // Word-aligned slice: alias the chunk bitmap directly (bits
        // past `rows` in the last word are never read).
        out->null_bits[c] = col.null_bits.data() + begin / 64;
      } else {
        // Misaligned morsel boundary: repack the slice's bits to start
        // at bit 0 of stream-owned scratch words.
        std::vector<uint64_t>& dst = slice_bits_[c];
        dst.assign(NullBitmapWords(rows), 0);
        for (size_t r = 0; r < rows; ++r) {
          if (NullBitGet(col.null_bits.data(), begin + r)) {
            NullBitSet(dst.data(), r);
          }
        }
        out->null_bits[c] = dst.data();
      }
    }
  }

  /// Applies the pushed-down comparisons to `out` in place, compacting
  /// survivors into scratch columns when any row is dropped. Returns
  /// false when no row survives (the caller skips the batch).
  bool Filter(ColumnSpanBatch* out) {
    if (filters_.empty()) return true;
    keep_.assign(out->rows, 1);
    for (const ColumnFilter& f : filters_) {
      ApplyColumnFilter(f, *out, keep_.data());
    }
    return CompactColumnSpans(out, keep_.data(), &scratch_) > 0;
  }

  storage::ChunkCursor cursor_;
  const std::vector<ColumnFilter>& filters_;
  size_t batch_capacity_;
  const QueryContext* ctx_;
  size_t pages_reported_ = 0;
  std::vector<uint8_t> keep_;
  std::vector<ScratchColumn> scratch_;
  std::vector<std::vector<uint64_t>> slice_bits_;  // per column
};

}  // namespace

ColumnarScanNode::ColumnarScanNode(const storage::PartitionedTable* table,
                                   std::string table_name,
                                   std::vector<size_t> slots,
                                   std::vector<ColumnFilter> filters,
                                   size_t batch_capacity, uint64_t morsel_rows,
                                   const QueryContext* ctx)
    : PlanNode(nullptr),
      table_(table),
      table_name_(std::move(table_name)),
      slots_(std::move(slots)),
      filters_(std::move(filters)),
      batch_capacity_(batch_capacity),
      morsel_rows_(morsel_rows),
      ctx_(ctx),
      grid_(BuildMorselGrid(*table, morsel_rows)) {}

std::string ColumnarScanNode::annotation() const {
  std::string out = StringPrintf(
      "%s: %llu rows, %zu partitions, %zu of %zu column(s), batch %zu, "
      "morsel %llu (%zu morsel(s))",
      table_name_.c_str(), static_cast<unsigned long long>(table_->num_rows()),
      table_->num_partitions(), slots_.size(),
      table_->schema().num_columns(), batch_capacity_,
      static_cast<unsigned long long>(morsel_rows_), grid_.size());
  if (!filters_.empty()) {
    out += ", filter: ";
    for (size_t i = 0; i < filters_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += filters_[i].text;
    }
  }
  if (!broadcast_note_.empty()) out += ", broadcast: " + broadcast_note_;
  return out;
}

StatusOr<ExecStreamPtr> ColumnarScanNode::OpenStreamImpl(size_t) const {
  return Status::Internal(
      "ColumnarScan produces column spans; it must be driven by a "
      "columnar consumer (VectorFilter, VectorProject or "
      "VectorHashAggregate)");
}

StatusOr<ColumnStreamPtr> ColumnarScanNode::OpenColumnStreamImpl(
    size_t s) const {
  const Morsel& m = grid_[s];
  return ColumnStreamPtr(
      new ColumnarScanStream(&table_->partition(m.partition), m.begin, m.end,
                             slots_, filters_, batch_capacity_, ctx_));
}

}  // namespace nlq::engine::exec
