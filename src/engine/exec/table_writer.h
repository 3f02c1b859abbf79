#ifndef NLQ_ENGINE_EXEC_TABLE_WRITER_H_
#define NLQ_ENGINE_EXEC_TABLE_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/memory_tracker.h"
#include "common/query_context.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "engine/exec/column_stream.h"
#include "engine/exec/planner.h"
#include "storage/column_vector.h"
#include "storage/partitioned_table.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace nlq::engine::exec {

/// The one writer of the statements that fill a table: CREATE TABLE …
/// AS, INSERT … SELECT and INSERT … VALUES (DESIGN.md §11).
///
/// Every row is type-checked against the target schema (a VARCHAR
/// value never coerces to a numeric column nor a numeric one to
/// VARCHAR; numeric values cast like ColumnVector::Append), routed by
/// RoutePartition over its key column, and buffered per (source
/// stream, target partition) in ColumnVectors of the target's types,
/// charged to the statement's MemoryTracker. Nothing outside the
/// writer changes until every row is in: AppendTo then appends each
/// partition's buffers in stream order through Table::AppendColumns.
/// A statement that fails therefore creates and appends nothing, and
/// one that succeeds leaves the same rows, in the same partitions, in
/// the same order, cut into the same chunks as row-at-a-time appends
/// of the gathered result would.
class TableWriter {
 public:
  /// `schema` and `num_partitions` are the target table's; `memory`
  /// (may be null) is charged for the buffers.
  TableWriter(storage::Schema schema, size_t num_partitions,
              MemoryTracker* memory);

  /// Runs `plan` into the buffers, polling `ctx` (may be null) at every
  /// batch. When the plan's top, under its Gather, is a VectorProject,
  /// that node's column streams are drained in parallel on `pool`, one
  /// buffer set per stream (morsel), and the result lanes are copied
  /// with no boxing. Any other plan (Sort, Limit, an aggregate, the row
  /// path) feeds the rows of its root stream.
  Status Drain(const PhysicalPlan& plan, ThreadPool* pool,
               const QueryContext* ctx);

  /// Buffers rows produced outside a plan (INSERT … VALUES).
  Status AddRows(const std::vector<storage::Row>& rows);

  /// Appends every buffered row to `table`, which must have the
  /// writer's schema and partition count, and empties the buffers.
  void AppendTo(storage::PartitionedTable* table);

 private:
  /// One source stream's buffers.
  struct StreamBuffers {
    /// The current batch, converted to the target's types.
    std::vector<storage::ColumnVector> staged;
    /// [target partition][schema column]: the stream's routed rows.
    std::vector<std::vector<storage::ColumnVector>> parts;
    std::vector<uint32_t> dest;  // per staged row: target partition
    std::vector<uint32_t> pos;   // per staged row: row in parts[dest]
  };

  /// Converts a span batch into `b->staged`: lanes copied, or cast to
  /// the column's numeric type; NULL slots zeroed.
  Status StageSpans(const ColumnSpanBatch& batch, StreamBuffers* b) const;

  /// Type-checks `n` rows and converts them into `b->staged`.
  Status StageRows(const storage::Row* rows, size_t n,
                   StreamBuffers* b) const;

  /// Routes the staged rows into `b->parts` and charges their bytes.
  Status RouteStaged(StreamBuffers* b);

  /// Feeds every batch of one row stream into stream buffer 0.
  Status DrainRows(const PlanNode& root, const QueryContext* ctx);

  storage::Schema schema_;
  size_t num_partitions_;
  MemoryTracker* memory_;
  std::vector<StreamBuffers> streams_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_TABLE_WRITER_H_
