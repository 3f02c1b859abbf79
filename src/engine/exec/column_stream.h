#ifndef NLQ_ENGINE_EXEC_COLUMN_STREAM_H_
#define NLQ_ENGINE_EXEC_COLUMN_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace nlq::engine::exec {

/// A batch of typed column spans — the unit of the columnar pipeline
/// (ColumnarScan → VectorFilter → VectorProject/VectorHashAggregate).
/// Spans alias the table's column chunks or buffers owned by the
/// producing stream and stay valid until its next Next() call.
struct ColumnSpanBatch {
  size_t rows = 0;
  /// Per projected column: a dense value span of length `rows`.
  /// Exactly one of doubles[i] / ints[i] is non-null, by column type.
  std::vector<const double*> doubles;
  std::vector<const int64_t*> ints;
  /// Null bitmap per column (bit r set = row r NULL; value slot holds
  /// 0/0.0 there), or nullptr when the span contains no NULLs.
  std::vector<const uint64_t*> null_bits;
};

/// Pull cursor over one stream of column spans — the columnar
/// counterpart of ExecStream. Batches are never empty: a filter that
/// eliminates every row of a batch advances to the next one, so
/// consumers can treat each batch as evidence that rows survived (the
/// row path's FilterNode gives its aggregate the same guarantee).
class ColumnStream {
 public:
  virtual ~ColumnStream() = default;

  /// Points `out` at the next batch of spans; returns true while rows
  /// were produced, false once the stream is exhausted.
  virtual StatusOr<bool> Next(ColumnSpanBatch* out) = 0;
};

using ColumnStreamPtr = std::unique_ptr<ColumnStream>;

/// Stream-owned storage backing one compacted column of a filtered
/// span batch.
struct ScratchColumn {
  std::vector<double> doubles;
  std::vector<int64_t> ints;
  std::vector<uint64_t> null_bits;
  bool has_nulls = false;
};

/// Compacts `batch` in place to the rows with keep[r] != 0,
/// order-preserving, repointing its spans at `scratch` (resized to the
/// batch's column count). When every row survives the batch is left
/// untouched. Returns the surviving row count; 0 means the caller must
/// skip the batch (its spans are unspecified).
size_t CompactColumnSpans(ColumnSpanBatch* batch, const uint8_t* keep,
                          std::vector<ScratchColumn>* scratch);

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_COLUMN_STREAM_H_
