#include "engine/exec/scan_node.h"

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace nlq::engine::exec {
namespace {

class ScanStream : public ExecStream {
 public:
  ScanStream(storage::BatchScanner scanner, const QueryContext* ctx)
      : scanner_(std::move(scanner)), ctx_(ctx) {}

  StatusOr<bool> Next(RowBatch* out) override {
    if (ctx_ != nullptr) NLQ_RETURN_IF_ERROR(ctx_->CheckAlive());
    NLQ_FAILPOINT("partition_scan");
    const bool more = scanner_.Next(out);
    if (ctx_ != nullptr && ctx_->stats() != nullptr) {
      // Report the scanner's page counter as deltas so the query-wide
      // total stays exact no matter how many batches a page spans.
      const size_t decoded = scanner_.pages_decoded();
      ctx_->stats()->pages_decoded.fetch_add(decoded - pages_reported_,
                                             std::memory_order_relaxed);
      pages_reported_ = decoded;
    }
    if (!scanner_.status().ok()) return scanner_.status();
    return more;
  }

 private:
  storage::BatchScanner scanner_;
  const QueryContext* ctx_;
  size_t pages_reported_ = 0;
};

class ConstantStream : public ExecStream {
 public:
  explicit ConstantStream(size_t num_rows) : rows_left_(num_rows) {}

  StatusOr<bool> Next(RowBatch* out) override {
    out->Clear();
    while (rows_left_ > 0 && !out->full()) {
      out->AppendRow().clear();
      --rows_left_;
    }
    return !out->empty();
  }

 private:
  size_t rows_left_;
};

}  // namespace

ParallelScanNode::ParallelScanNode(const storage::PartitionedTable* table,
                                   std::string table_name,
                                   size_t batch_capacity, uint64_t morsel_rows,
                                   const QueryContext* ctx)
    : PlanNode(nullptr),
      table_(table),
      table_name_(std::move(table_name)),
      batch_capacity_(batch_capacity),
      morsel_rows_(morsel_rows),
      ctx_(ctx),
      grid_(BuildMorselGrid(*table, morsel_rows)) {}

std::string ParallelScanNode::annotation() const {
  std::string out = StringPrintf(
      "%s: %llu rows, %zu partitions, batch %zu, morsel %llu (%zu morsel(s))",
      table_name_.c_str(), static_cast<unsigned long long>(table_->num_rows()),
      table_->num_partitions(), batch_capacity_,
      static_cast<unsigned long long>(morsel_rows_), grid_.size());
  if (!broadcast_note_.empty()) out += ", broadcast: " + broadcast_note_;
  return out;
}

size_t ParallelScanNode::output_width() const {
  return table_->schema().num_columns();
}

StatusOr<ExecStreamPtr> ParallelScanNode::OpenStreamImpl(size_t s) const {
  const Morsel& m = grid_[s];
  return ExecStreamPtr(new ScanStream(
      table_->ScanPartitionBatches(m.partition, m.begin, m.end), ctx_));
}

ConstantInputNode::ConstantInputNode(size_t num_rows)
    : PlanNode(nullptr), num_rows_(num_rows) {}

StatusOr<ExecStreamPtr> ConstantInputNode::OpenStreamImpl(size_t) const {
  return ExecStreamPtr(new ConstantStream(num_rows_));
}

}  // namespace nlq::engine::exec
