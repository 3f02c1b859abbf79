#ifndef NLQ_COMMON_METRICS_H_
#define NLQ_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nlq {

/// A monotonically increasing counter sharded across cache lines so
/// concurrent writers (pool workers incrementing per-batch) never
/// contend on one atomic. Writes pick a shard by the calling thread's
/// registration slot and add with relaxed ordering; reads sum every
/// shard — cheap enough per increment that the engine can afford one
/// on every batch boundary, which is what makes per-operator
/// instrumentation affordable at morsel granularity.
class ShardedCounter {
 public:
  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(uint64_t n);
  void Increment() { Add(1); }

  /// Sum of every shard. Concurrent with writers: the result is some
  /// valid point-in-time-ish total (each shard read atomically), never
  /// torn.
  uint64_t Value() const;

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kShards];
};

/// A last-write-wins instantaneous value (queue depths, live-query
/// counts). Plain atomic: gauges are set rarely.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram over nanosecond observations. Bucket
/// b counts observations with value < 2^b microseconds (the last
/// bucket is unbounded), so the bucket layout is identical for every
/// histogram and needs no per-instance configuration. Counts, like the
/// running count/sum, live in sharded counters so many workers can
/// observe concurrently.
class Histogram {
 public:
  /// Buckets cover [1us, ~134s) in powers of two plus an overflow
  /// bucket.
  static constexpr size_t kNumBuckets = 28;

  void Observe(uint64_t nanos);

  uint64_t Count() const { return count_.Value(); }
  uint64_t SumNanos() const { return sum_nanos_.Value(); }
  uint64_t BucketCount(size_t b) const { return buckets_[b].Value(); }

  /// Exclusive upper bound of bucket `b` in nanoseconds
  /// (UINT64_MAX for the overflow bucket).
  static uint64_t BucketUpperNanos(size_t b);

  /// Upper-bound estimate of the q-quantile (q in [0, 1]) in
  /// nanoseconds: the exclusive upper bound of the bucket holding the
  /// ceil(q * count)-th observation. Returns 0 for an empty histogram
  /// and UINT64_MAX when the quantile lands in the overflow bucket.
  /// Safe to call concurrently with writers; the result is then a
  /// point-in-time-ish estimate, never a crash.
  uint64_t Percentile(double q) const;

 private:
  ShardedCounter buckets_[kNumBuckets];
  ShardedCounter count_;
  ShardedCounter sum_nanos_;
};

/// Point-in-time copy of every registered metric, serializable to
/// JSON. Histogram buckets with zero counts are omitted from the JSON
/// to keep snapshots small.
struct MetricsSnapshot {
  struct HistogramData {
    uint64_t count = 0;
    uint64_t sum_nanos = 0;
    /// (exclusive upper bound in nanos, count), zero buckets omitted.
    std::vector<std::pair<uint64_t, uint64_t>> buckets;

    /// Same quantile estimate as Histogram::Percentile, computed from
    /// the snapshot's sparse bucket list (so wire/JSON consumers share
    /// one audited implementation instead of re-deriving it).
    uint64_t PercentileNanos(double q) const;
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  std::string ToJson() const;
};

/// Process-wide registry of named metrics. Lookup takes a mutex and
/// returns a stable reference — callers on hot paths look up once and
/// keep the pointer; the increments themselves are lock-free. The
/// engine accounts statement outcomes, latency, storage counters and
/// fault events here (names in DESIGN.md section 10).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  ShardedCounter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot GetSnapshot() const;

  /// Drops every registered metric. Tests only: invalidates references
  /// handed out earlier, so never call while queries run.
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<ShardedCounter>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Per-operator actuals recorded while a plan executes: rows/batches
/// the operator produced and the cumulative wall time spent inside its
/// Next() calls, summed across every parallel stream of the operator
/// (so under parallel execution an operator's time can exceed the
/// statement's wall clock; self-time is derived and clamped at render
/// time). Name/annotation/depth are captured from the plan node when
/// the stats tree is attached — the plan itself does not outlive the
/// statement, the stats do.
struct OperatorStats {
  OperatorStats(std::string name_in, std::string annotation_in,
                size_t depth_in)
      : name(std::move(name_in)),
        annotation(std::move(annotation_in)),
        depth(depth_in) {}

  std::string name;
  std::string annotation;
  size_t depth = 0;
  std::atomic<uint64_t> rows_out{0};
  std::atomic<uint64_t> batches_out{0};
  std::atomic<uint64_t> time_ns{0};
};

/// The per-query stats tree hung off QueryContext: one OperatorStats
/// per plan node (root first — plans are linear chains) plus
/// statement-level storage and scheduling counters. Writers are the
/// exec streams and pool workers; everything mutable concurrently is
/// atomic. Snapshot after the statement with SnapshotQueryStats.
class QueryStats {
 public:
  QueryStats() = default;
  QueryStats(const QueryStats&) = delete;
  QueryStats& operator=(const QueryStats&) = delete;

  /// Registers the operator at `depth` (0 = root) and returns its
  /// stats sink; pointers stay valid for the QueryStats lifetime.
  OperatorStats* AddOperator(std::string name, std::string annotation,
                             size_t depth);
  const std::deque<OperatorStats>& operators() const { return operators_; }

  /// Sizes the per-worker morsel-claim counters (worker 0 is the
  /// thread calling ParallelFor*). Claims from unknown worker ids are
  /// dropped rather than crashing.
  void SetWorkerCount(size_t n);
  void CountMorselClaim(size_t worker_id);
  std::vector<uint64_t> WorkerMorselClaims() const;

  // Storage-layer counters (see DESIGN.md section 10).
  /// Storage blocks the statement's chunk cursors read, in 64 KB
  /// (kPageSize) units: the buffer-pool pages of every spilled chunk a
  /// cursor decoded, plus for every resident chunk it visited the plain
  /// bytes of the projected columns inside its range (8 per value)
  /// rounded up to whole blocks. A chunk shared by two morsels counts
  /// once per morsel.
  std::atomic<uint64_t> pages_decoded{0};
  std::atomic<uint64_t> rows_returned{0};
  /// Rows whose expressions ran through the compiled bytecode path
  /// (engine/exec/bytecode.h) rather than the interpreter; each
  /// vectorized operator counts its input batch once per batch.
  std::atomic<uint64_t> rows_vectorized{0};

  // Maintained-view counters (engine/exec/view_registry.h). A hit is a
  // statement served from registered partials (delta_rows = appended
  // rows it accumulated, possibly 0); a miss had to seed the view from
  // a full accumulate; rebuilds counts those full accumulations
  // (seeding and degrade-to-rescan fallbacks alike).
  std::atomic<uint64_t> view_hits{0};
  std::atomic<uint64_t> view_misses{0};
  std::atomic<uint64_t> view_delta_rows{0};
  std::atomic<uint64_t> view_rebuilds{0};

  // Statement-level values written once, after execution.
  uint64_t query_id = 0;
  uint64_t wall_time_ns = 0;
  uint64_t memory_peak_bytes = 0;

 private:
  std::deque<OperatorStats> operators_;
  struct alignas(64) WorkerCounter {
    std::atomic<uint64_t> claims{0};
  };
  std::deque<WorkerCounter> workers_;
};

/// Plain-data copy of a QueryStats tree, safe to keep after the query
/// (Database::last_query_stats) and to serialize for the bench
/// harness.
struct OperatorStatsSnapshot {
  std::string name;
  std::string annotation;
  size_t depth = 0;
  uint64_t rows_out = 0;
  uint64_t batches_out = 0;
  uint64_t time_ns = 0;
};

struct QueryStatsSnapshot {
  uint64_t query_id = 0;
  uint64_t wall_time_ns = 0;
  uint64_t memory_peak_bytes = 0;
  uint64_t rows_returned = 0;
  uint64_t pages_decoded = 0;  // unit: see QueryStats::pages_decoded
  uint64_t rows_vectorized = 0;
  uint64_t view_hits = 0;
  uint64_t view_misses = 0;
  uint64_t view_delta_rows = 0;
  uint64_t view_rebuilds = 0;
  std::vector<OperatorStatsSnapshot> operators;
  std::vector<uint64_t> worker_morsel_claims;

  std::string ToJson() const;
};

QueryStatsSnapshot SnapshotQueryStats(const QueryStats& stats);

}  // namespace nlq

#endif  // NLQ_COMMON_METRICS_H_
