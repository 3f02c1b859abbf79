#ifndef NLQ_ENGINE_EXEC_SCAN_NODE_H_
#define NLQ_ENGINE_EXEC_SCAN_NODE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "engine/exec/morsel.h"
#include "engine/exec/plan.h"
#include "storage/partitioned_table.h"

namespace nlq::engine::exec {

/// Leaf: batched scan over a hash-partitioned table, one stream per
/// *morsel* — a fixed-size row range of one partition. The morsel grid
/// is built from the partition layout and `morsel_rows` alone (never
/// the thread count), so a skewed partition fans out into many
/// independently claimable streams and downstream stream-order merges
/// stay deterministic whatever pool drains them. `morsel_rows == 0`
/// degrades to one stream per partition (the pre-morsel per-AMP scan).
class ParallelScanNode : public PlanNode {
 public:
  ParallelScanNode(const storage::PartitionedTable* table,
                   std::string table_name, size_t batch_capacity,
                   uint64_t morsel_rows = kDefaultMorselRows,
                   const QueryContext* ctx = nullptr);

  const char* name() const override { return "ParallelScan"; }
  std::string annotation() const override;
  size_t output_width() const override;
  size_t num_streams() const override { return grid_.size(); }
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

  /// EXPLAIN text naming the one-row tables whose columns the
  /// operators above bind as constants; empty when there are none.
  void set_broadcast_note(std::string note) {
    broadcast_note_ = std::move(note);
  }

 private:
  const storage::PartitionedTable* table_;
  std::string table_name_;
  size_t batch_capacity_;
  uint64_t morsel_rows_;
  const QueryContext* ctx_;
  std::vector<Morsel> grid_;
  std::string broadcast_note_;
};

/// Leaf for FROM-less queries: one stream yielding `num_rows` empty
/// (zero-width) rows — one for `SELECT 1+1`, zero under aggregation
/// (a global aggregate over no input still finalizes one group).
class ConstantInputNode : public PlanNode {
 public:
  explicit ConstantInputNode(size_t num_rows);

  const char* name() const override { return "ConstantInput"; }
  std::string annotation() const override { return "no FROM"; }
  size_t output_width() const override { return 0; }
  size_t num_streams() const override { return 1; }
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

 private:
  size_t num_rows_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_SCAN_NODE_H_
