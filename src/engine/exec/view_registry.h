#ifndef NLQ_ENGINE_EXEC_VIEW_REGISTRY_H_
#define NLQ_ENGINE_EXEC_VIEW_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "engine/exec/aggregate_state.h"
#include "engine/exec/columnar_scan_node.h"
#include "engine/exec/morsel.h"
#include "storage/partitioned_table.h"

namespace nlq::engine::exec {

/// Identity of one maintainable aggregate query shape: the table it
/// reads and the registry key (ViewKey) its partials are stored under.
struct ViewDescriptor {
  const storage::PartitionedTable* table = nullptr;
  std::string table_name;
  std::string key;
};

/// The registry key of a view shape: table name, projected schema
/// slots, pushed-down conjuncts (literal bit patterns), aggregate specs
/// with their constant and compiled arguments, and morsel size —
/// everything that shapes the aggregation.
std::string ViewKey(const std::string& table_name,
                    const std::vector<size_t>& slots,
                    const std::vector<ColumnFilter>& filters,
                    const std::vector<AggregateSpec>& specs,
                    const std::vector<VectorAggSpec>& args,
                    uint64_t morsel_rows);

/// What one statement takes from the registry: for each morsel of its
/// grid, the stored partial and the row that partial reaches.
struct ViewLease {
  /// A current entry was taken: the statement is a hit.
  bool registered = false;
  /// A stale entry was found and dropped: the statement runs its plain
  /// scan, unmaintained, and the next one seeds.
  bool invalidated = false;
  /// The statement's morsel grid (BuildMorselGrid), each morsel
  /// starting at the first row its stored partial does not cover; a
  /// covered morsel starts at its end.
  std::vector<Morsel> grid;
  /// Per grid morsel, the state of its rows before grid[s].begin (both
  /// null when nothing is stored or none of those rows reached the ROW
  /// phase). A covered morsel's partial stays in the entry and is read
  /// in place (`stored`); a partial the statement extends leaves the
  /// entry (`taken`), so no other statement reads it while it grows,
  /// and comes back with Store.
  std::vector<std::shared_ptr<const AggState>> stored;
  std::vector<std::shared_ptr<AggState>> taken;
  std::vector<uint64_t> epochs;  // per partition, at the take
  uint64_t delta_rows = 0;       // rows of `grid` (what the scan reads)
  uint64_t total_rows = 0;       // current table row count
};

/// Registry of maintained sufficient-statistic views: the per-morsel
/// partial states of VectorHashAggregateNode's own scan (one AggState
/// per morsel of the BuildMorselGrid grid), kept between statements
/// and keyed by query shape. It runs no aggregate: a served statement
/// takes its entry once, at plan time, resumes its ordinary scan at the
/// rows the partials reach, and stores the extended partials back
/// (DESIGN.md §13). Shared partials are only read; one a statement
/// extends is its alone until stored (a concurrent statement scans that
/// morsel whole), so no partial is read while written, nor copied.
///
/// Staleness: each entry captures every partition's mutation epoch at
/// registration. Appends do not bump epochs (they only move num_rows
/// past the stored rows); Clear/SpillToDisk/LoadFromFile do. An epoch
/// mismatch, a table-pointer change (DROP + CREATE), or a shrunken row
/// space makes an entry stale: Take drops it, and the statement runs
/// the aggregate node's plain scan.
///
/// Storing is best effort: a store that fails (the view memory budget,
/// the `view_maintenance` failpoint) drops the entry. Only a statement
/// that succeeded stores what it scanned, so a stored partial never
/// disagrees with its row count.
///
/// Thread-safety: all public methods take one internal mutex, held
/// only for the lookup or the swap, never across a scan.
class ViewRegistry {
 public:
  /// `max_views` bounds memoization: storing past the cap evicts the
  /// least-recently-served entry. `memory_limit_bytes` bounds the total
  /// bytes of stored partial state (0 = unlimited, tracked); a store
  /// that would exceed it drops its entry instead.
  explicit ViewRegistry(size_t max_views = 16,
                        uint64_t memory_limit_bytes = 0);

  ViewRegistry(const ViewRegistry&) = delete;
  ViewRegistry& operator=(const ViewRegistry&) = delete;

  /// The statement's one lookup, over its morsel `grid`. A stale entry
  /// is dropped (`invalidated`); a take the `view_maintenance`
  /// failpoint fails drops the entry, and the statement seeds.
  ViewLease Take(const ViewDescriptor& d, std::vector<Morsel> grid);

  /// Puts a lease's partials back: for each morsel not read in place
  /// (`stored` null), lease.taken[s] as the state of its rows before
  /// lease.grid[s].begin. A successful statement stores its extended
  /// partials with each scanned morsel's `begin` moved to its end; a
  /// plan that never ran gives back what it took. Heap charges move to
  /// the registry's budget. On failure the entry is dropped.
  void Store(const ViewDescriptor& d, ViewLease lease);

  /// Drops every view registered against `table_name` (DROP TABLE and
  /// SpillTable hook: a recreated table must never alias a stale
  /// entry's epochs).
  void InvalidateTable(const std::string& table_name);

  /// Bytes of partial state currently held (all views).
  uint64_t state_bytes() const { return memory_.used(); }

  size_t num_views() const;

 private:
  /// One stored morsel: the state of rows [morsel begin, row).
  struct Partial {
    std::shared_ptr<AggState> state;
    uint64_t row = 0;
  };

  struct Entry {
    const storage::PartitionedTable* table = nullptr;
    std::string table_name;
    std::vector<uint64_t> epochs;  // per partition, at registration
    /// partials[p][m]: morsel m of partition p, in the same
    /// (partition, morsel-index) order BuildMorselGrid emits.
    std::vector<std::vector<Partial>> partials;
    uint64_t last_served = 0;  // LRU tick for eviction
  };

  /// True when `e` may serve `d` against the current table state.
  static bool EntryCurrent(const Entry& e, const ViewDescriptor& d);

  /// Store's body, under mu_.
  Status StoreLocked(const ViewDescriptor& d, ViewLease* lease);

  void EvictIfNeeded();

  mutable std::mutex mu_;
  size_t max_views_;
  MemoryTracker memory_;
  uint64_t lru_tick_ = 0;
  std::map<std::string, std::unique_ptr<Entry>> views_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_VIEW_REGISTRY_H_
