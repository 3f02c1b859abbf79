#ifndef NLQ_ENGINE_EXEC_VIEW_REGISTRY_H_
#define NLQ_ENGINE_EXEC_VIEW_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/query_context.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "engine/exec/aggregate_state.h"
#include "engine/exec/columnar_scan_node.h"
#include "storage/partitioned_table.h"

namespace nlq::engine::exec {

/// Identity of one maintainable aggregate query shape: the (table,
/// column-set, WHERE-conjunct, aggregate-list) key a materialized
/// sufficient-statistic view is registered under. The aggregation is
/// referenced, not owned — it lives in the plan node serving the view.
struct ViewDescriptor {
  const storage::PartitionedTable* table = nullptr;
  std::string table_name;
  std::vector<size_t> slots;            // projected schema slots
  std::vector<ColumnFilter> filters;    // pushed-down conjuncts
  const std::vector<AggregateSpec>* specs = nullptr;
  const std::vector<VectorAggSpec>* args = nullptr;  // parallel to specs
  const std::vector<int>* slot_to_col = nullptr;     // slot -> span column
  uint64_t morsel_rows = 0;
  size_t batch_capacity = 1024;
};

/// Plan-time freshness probe result.
struct ViewProbe {
  bool registered = false;  // a live, current entry exists
  bool invalidated = false; // an entry existed but was stale (now dropped)
  uint64_t delta_rows = 0;  // rows past the watermark a Serve would accumulate
  uint64_t total_rows = 0;  // current table row count
};

/// Registry of materialized sufficient-statistic views: per-morsel
/// aggregate partials (aggregate_state.h AggState) kept across
/// statements, keyed by query shape. A Serve() accumulates only the
/// rows appended past each partition's watermark — O(delta) — then
/// merges a *clone* of the stored partials in morsel-index order, so
/// the result is bit-identical to a full rescan by the engine's
/// merge-order contract (DESIGN.md section 13 gives the argument).
///
/// Staleness: each entry captures every partition's mutation epoch at
/// registration. Appends do not bump epochs (they only move num_rows
/// past the watermark); Clear/SpillToDisk/LoadFromFile do. An epoch
/// mismatch, a table-pointer change (DROP + CREATE), or a shrunken row
/// space invalidates the entry — Probe drops it and the planner falls
/// back to the aggregate node's own scan for that statement.
///
/// Thread-safety: all public methods take one internal mutex; like the
/// Database itself, one statement executes at a time, but invalidation
/// hooks (DROP TABLE) and probes may interleave with online refresh
/// loops that serialize externally.
class ViewRegistry {
 public:
  /// `max_views` bounds memoization: registering past the cap evicts
  /// the least-recently-served entry. `memory_limit_bytes` bounds the
  /// total bytes of stored partial state (0 = unlimited, tracked);
  /// exceeding it fails the accumulate, which drops the entry (the
  /// statement then degrades to a plain rescan).
  explicit ViewRegistry(size_t max_views = 16,
                        uint64_t memory_limit_bytes = 0);

  ViewRegistry(const ViewRegistry&) = delete;
  ViewRegistry& operator=(const ViewRegistry&) = delete;

  /// Plan-time freshness check. Side effect: a stale entry is dropped
  /// (its state can never be reused — any future statement would have
  /// to reseed anyway).
  ViewProbe Probe(const ViewDescriptor& d);

  /// Serves the descriptor's aggregate values: seeds the view (full
  /// accumulate, one partial per grid morsel) when no entry exists,
  /// delta-accumulates rows past each partition watermark otherwise,
  /// then clones + merges the stored partials in morsel-index order
  /// and finalizes. On any failure the entry is dropped and the error
  /// returned: a half-applied delta leaves the stored partials
  /// unusable. The caller degrades to a full rescan (unless the
  /// statement was cancelled or timed out) — never a wrong result.
  StatusOr<storage::Row> Serve(const ViewDescriptor& d, ThreadPool* pool,
                               const QueryContext* ctx);

  /// Drops every view registered against `table_name` (DROP TABLE and
  /// SpillTable hook: a recreated table must never alias a stale
  /// entry's epochs).
  void InvalidateTable(const std::string& table_name);

  /// Bytes of partial state currently held (all views).
  uint64_t state_bytes() const { return memory_.used(); }

  size_t num_views() const;

 private:
  struct Entry {
    const storage::PartitionedTable* table = nullptr;
    std::string table_name;
    std::vector<uint64_t> epochs;      // per partition, at registration
    std::vector<uint64_t> watermarks;  // rows accumulated per partition
    /// partials[p][m]: state of morsel m of partition p, in the same
    /// (partition, morsel-index) order BuildMorselGrid emits.
    std::vector<std::vector<std::unique_ptr<AggState>>> partials;
    uint64_t last_served = 0;  // LRU tick for eviction
  };

  /// Canonical map key of a descriptor (table name + slots + filter
  /// conjuncts with literal bit patterns + aggregate specs).
  static std::string KeyOf(const ViewDescriptor& d);

  /// True when `e` may serve `d` against the current table state.
  static bool EntryCurrent(const Entry& e, const ViewDescriptor& d);

  /// Accumulates rows [wm, rows) of every partition into `e`'s
  /// partials, extending the tail morsel and appending new ones.
  Status AccumulateDeltas(Entry* e, const ViewDescriptor& d, ThreadPool* pool,
                          const QueryContext* ctx, uint64_t* delta_rows);

  /// Clones `e`'s stored partials and folds them in morsel-index
  /// order, then finalizes.
  StatusOr<storage::Row> FoldAndFinalize(const Entry& e,
                                         const ViewDescriptor& d);

  void EvictIfNeeded();

  mutable std::mutex mu_;
  size_t max_views_;
  MemoryTracker memory_;
  uint64_t lru_tick_ = 0;
  std::map<std::string, std::unique_ptr<Entry>> views_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_VIEW_REGISTRY_H_
