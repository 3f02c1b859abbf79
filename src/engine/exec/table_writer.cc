#include "engine/exec/table_writer.h"

#include <cstring>
#include <type_traits>
#include <utility>

#include "common/strings.h"
#include "engine/exec/gather_node.h"
#include "engine/exec/vector_project_node.h"
#include "storage/row_batch.h"

namespace nlq::engine::exec {
namespace {

using storage::ColumnVector;
using storage::DataType;
using storage::Datum;
using storage::NullBitGet;
using storage::NullBitmapWords;
using storage::NullBitSet;
using storage::Row;

Status CoercionError(DataType from, DataType to, const std::string& column) {
  return Status::InvalidArgument(
      StringPrintf("cannot coerce %s to %s for column '%s'",
                   DataTypeName(from), DataTypeName(to), column.c_str()));
}

/// Copies `n` lane values into `dst` (already sized), casting across
/// the numeric types exactly as ColumnVector::Append does.
template <typename To, typename From>
void CastLane(const From* src, size_t n, To* dst) {
  if constexpr (std::is_same_v<To, From>) {
    std::memcpy(dst, src, n * sizeof(To));
  } else {
    for (size_t r = 0; r < n; ++r) dst[r] = static_cast<To>(src[r]);
  }
}

/// Copies staged lane `src` of column `c` to row pos[r] of partition
/// dest[r] in `parts`, after growing each partition's lane to its new
/// row count `rows[p]`.
template <typename T>
void ScatterLane(const std::vector<T>& src, std::vector<T> ColumnVector::*lane,
                 size_t c, const std::vector<size_t>& rows,
                 const std::vector<uint32_t>& dest,
                 const std::vector<uint32_t>& pos,
                 std::vector<std::vector<ColumnVector>>* parts) {
  std::vector<T*> out(rows.size());
  for (size_t p = 0; p < rows.size(); ++p) {
    std::vector<T>& values = (*parts)[p][c].*lane;
    values.resize(rows[p]);
    out[p] = values.data();
  }
  for (size_t r = 0; r < src.size(); ++r) out[dest[r]][pos[r]] = src[r];
}

/// Buffer bytes the values of `col` take once routed.
size_t ValueBytes(const ColumnVector& col) {
  if (col.type != DataType::kVarchar) return col.size() * sizeof(double);
  size_t bytes = col.size() * sizeof(std::string);
  for (const std::string& value : col.strings) bytes += value.size();
  return bytes;
}

}  // namespace

TableWriter::TableWriter(storage::Schema schema, size_t num_partitions,
                         MemoryTracker* memory)
    : schema_(std::move(schema)),
      num_partitions_(num_partitions == 0 ? 1 : num_partitions),
      memory_(memory) {}

Status TableWriter::StageSpans(const ColumnSpanBatch& batch,
                               StreamBuffers* b) const {
  const size_t n = batch.rows;
  const size_t width = schema_.num_columns();
  if (batch.doubles.size() != width) {
    return Status::InvalidArgument(StringPrintf(
        "expected %zu values, got %zu", width, batch.doubles.size()));
  }
  // Lanes are numeric: a VARCHAR column takes only their NULLs. The
  // first non-NULL value, in row order, is the error.
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < width; ++c) {
      if (schema_.column(c).type != DataType::kVarchar) continue;
      const uint64_t* nulls = batch.null_bits[c];
      if (nulls != nullptr && NullBitGet(nulls, r)) continue;
      return CoercionError(batch.doubles[c] != nullptr ? DataType::kDouble
                                                       : DataType::kInt64,
                           DataType::kVarchar, schema_.column(c).name);
    }
  }
  b->staged.resize(width);
  const size_t words = NullBitmapWords(n);
  for (size_t c = 0; c < width; ++c) {
    ColumnVector& col = b->staged[c];
    col.Reset(schema_.column(c).type, n);
    const double* d = batch.doubles[c];
    const int64_t* i = batch.ints[c];
    if (col.type == DataType::kDouble && d != nullptr) {
      CastLane(d, n, col.doubles.data());
    } else if (col.type == DataType::kDouble) {
      CastLane(i, n, col.doubles.data());
    } else if (col.type == DataType::kInt64 && d != nullptr) {
      CastLane(d, n, col.ints.data());
    } else if (col.type == DataType::kInt64) {
      CastLane(i, n, col.ints.data());
    }  // a VARCHAR column: every row is NULL (checked above)
    const uint64_t* nulls = batch.null_bits[c];
    if (nulls == nullptr) continue;
    std::memcpy(col.null_bits.data(), nulls, words * sizeof(uint64_t));
    // A register's bitmap may hold bits past the batch's last row.
    if (n % 64 != 0) col.null_bits[words - 1] &= (uint64_t{1} << (n % 64)) - 1;
    for (size_t r = 0; r < n; ++r) {
      if (!NullBitGet(col.null_bits.data(), r)) continue;
      ++col.null_count;
      // NULL slots hold the canonical zero, whatever the lane held.
      if (col.type == DataType::kDouble) col.doubles[r] = 0.0;
      if (col.type == DataType::kInt64) col.ints[r] = 0;
    }
  }
  return Status::OK();
}

Status TableWriter::StageRows(const Row* rows, size_t n,
                              StreamBuffers* b) const {
  const size_t width = schema_.num_columns();
  b->staged.resize(width);
  for (size_t c = 0; c < width; ++c) {
    b->staged[c].Reset(schema_.column(c).type, 0);
  }
  for (size_t r = 0; r < n; ++r) {
    const Row& row = rows[r];
    if (row.size() != width) {
      return Status::InvalidArgument(
          StringPrintf("expected %zu values, got %zu", width, row.size()));
    }
    for (size_t c = 0; c < width; ++c) {
      const Datum& v = row[c];
      const DataType want = schema_.column(c).type;
      if (!v.is_null() && v.type() != want &&
          (want == DataType::kVarchar || v.type() == DataType::kVarchar)) {
        return CoercionError(v.type(), want, schema_.column(c).name);
      }
    }
    for (size_t c = 0; c < width; ++c) b->staged[c].Append(row[c]);
  }
  return Status::OK();
}

Status TableWriter::RouteStaged(StreamBuffers* b) {
  const size_t width = schema_.num_columns();
  const size_t n = b->staged.empty() ? 0 : b->staged[0].size();
  if (n == 0) return Status::OK();
  if (b->parts.empty()) {
    b->parts.resize(num_partitions_);
    for (std::vector<ColumnVector>& part : b->parts) {
      part.resize(width);
      for (size_t c = 0; c < width; ++c) part[c].type = schema_.column(c).type;
    }
  }
  // Each row's target partition and its row there.
  b->dest.resize(n);
  b->pos.resize(n);
  std::vector<size_t> rows(num_partitions_);
  for (size_t p = 0; p < num_partitions_; ++p) rows[p] = b->parts[p][0].size();
  const ColumnVector& key = b->staged[0];
  for (size_t r = 0; r < n; ++r) {
    const size_t p = storage::RoutePartition(key.KeyHash(r), num_partitions_);
    b->dest[r] = static_cast<uint32_t>(p);
    b->pos[r] = static_cast<uint32_t>(rows[p]++);
  }
  size_t bytes = 0;
  for (size_t c = 0; c < width; ++c) {
    const ColumnVector& src = b->staged[c];
    bytes += ValueBytes(src);
    switch (src.type) {
      case DataType::kDouble:
        ScatterLane(src.doubles, &ColumnVector::doubles, c, rows, b->dest,
                    b->pos, &b->parts);
        break;
      case DataType::kInt64:
        ScatterLane(src.ints, &ColumnVector::ints, c, rows, b->dest,
                    b->pos, &b->parts);
        break;
      case DataType::kVarchar:
        ScatterLane(src.strings, &ColumnVector::strings, c, rows, b->dest,
                    b->pos, &b->parts);
        break;
    }
    if (src.has_nulls()) {
      for (size_t r = 0; r < n; ++r) {
        if (!NullBitGet(src.null_bits.data(), r)) continue;
        ColumnVector& dst = b->parts[b->dest[r]][c];
        if (dst.null_bits.size() < NullBitmapWords(b->pos[r] + 1)) {
          dst.null_bits.resize(NullBitmapWords(b->pos[r] + 1), 0);
        }
        NullBitSet(dst.null_bits.data(), b->pos[r]);
        ++dst.null_count;
      }
    }
    // Once a column holds a NULL, its bitmap covers every row.
    for (size_t p = 0; p < num_partitions_; ++p) {
      ColumnVector& dst = b->parts[p][c];
      if (dst.has_nulls()) dst.null_bits.resize(NullBitmapWords(rows[p]), 0);
    }
  }
  if (memory_ != nullptr) {
    NLQ_RETURN_IF_ERROR(memory_->Charge(bytes, "table writer buffers"));
  }
  return Status::OK();
}

Status TableWriter::DrainRows(const PlanNode& root, const QueryContext* ctx) {
  if (root.num_streams() != 1) {
    return Status::Internal("plan root must produce a single stream");
  }
  NLQ_ASSIGN_OR_RETURN(ExecStreamPtr stream, root.OpenStream(0));
  streams_.resize(1);
  StreamBuffers* b = &streams_[0];
  storage::RowBatch batch;
  for (;;) {
    if (ctx != nullptr) NLQ_RETURN_IF_ERROR(ctx->CheckAlive());
    NLQ_ASSIGN_OR_RETURN(const bool more, stream->Next(&batch));
    if (!more) return Status::OK();
    NLQ_RETURN_IF_ERROR(StageRows(batch.rows(), batch.size(), b));
    NLQ_RETURN_IF_ERROR(RouteStaged(b));
  }
}

Status TableWriter::Drain(const PhysicalPlan& plan, ThreadPool* pool,
                          const QueryContext* ctx) {
  const PlanNode* top = plan.root.get();
  if (dynamic_cast<const GatherNode*>(top) != nullptr) top = top->child();
  const auto* project = dynamic_cast<const VectorProjectNode*>(top);
  if (project == nullptr) return DrainRows(*plan.root, ctx);

  const size_t streams = project->num_streams();
  streams_.resize(streams);
  auto drain_one = [&](size_t s) -> Status {
    NLQ_ASSIGN_OR_RETURN(ColumnStreamPtr stream, project->OpenColumnStream(s));
    StreamBuffers* b = &streams_[s];
    ColumnSpanBatch batch;
    for (;;) {
      if (ctx != nullptr) NLQ_RETURN_IF_ERROR(ctx->CheckAlive());
      NLQ_ASSIGN_OR_RETURN(const bool more, stream->Next(&batch));
      if (!more) return Status::OK();
      NLQ_RETURN_IF_ERROR(StageSpans(batch, b));
      NLQ_RETURN_IF_ERROR(RouteStaged(b));
    }
  };
  if (streams == 1 || pool == nullptr) {
    for (size_t s = 0; s < streams; ++s) NLQ_RETURN_IF_ERROR(drain_one(s));
    return Status::OK();
  }
  return pool->ParallelFor(streams, drain_one, ctx);
}

Status TableWriter::AddRows(const std::vector<Row>& rows) {
  if (streams_.empty()) streams_.resize(1);
  StreamBuffers* b = &streams_.back();
  NLQ_RETURN_IF_ERROR(StageRows(rows.data(), rows.size(), b));
  return RouteStaged(b);
}

void TableWriter::AppendTo(storage::PartitionedTable* table) {
  for (size_t p = 0; p < num_partitions_; ++p) {
    for (StreamBuffers& b : streams_) {
      if (b.parts.empty()) continue;
      table->partition(p).AppendColumns(std::move(b.parts[p]));
    }
  }
  streams_.clear();
}

}  // namespace nlq::engine::exec
