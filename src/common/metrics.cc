#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/strings.h"

namespace nlq {
namespace {

/// Stable per-thread shard slot: threads get consecutive slots on
/// first use, so up to kShards concurrent writers never collide.
size_t ThreadShardSlot() {
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StringPrintf("\\u%04x", c));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void ShardedCounter::Add(uint64_t n) {
  shards_[ThreadShardSlot() % kShards].value.fetch_add(
      n, std::memory_order_relaxed);
}

uint64_t ShardedCounter::Value() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Observe(uint64_t nanos) {
  // Bucket b holds observations in [2^(b-1), 2^b) microseconds; the
  // index is just the bit width of the value in whole microseconds.
  const uint64_t micros = nanos / 1000;
  size_t b = static_cast<size_t>(std::bit_width(micros));
  if (b >= kNumBuckets) b = kNumBuckets - 1;
  buckets_[b].Increment();
  count_.Increment();
  sum_nanos_.Add(nanos);
}

uint64_t Histogram::BucketUpperNanos(size_t b) {
  if (b + 1 >= kNumBuckets) return UINT64_MAX;
  return (uint64_t{1} << b) * 1000;
}

namespace {

/// Shared quantile walk over (upper_nanos, count) pairs in bucket
/// order. `total` is the observation count the rank is taken against.
uint64_t PercentileFromBuckets(
    const std::vector<std::pair<uint64_t, uint64_t>>& buckets,
    uint64_t total, double q) {
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based: ceil(q * total), clamped
  // into [1, total] so q == 0 still selects the first observation.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  uint64_t cumulative = 0;
  for (const auto& [upper, count] : buckets) {
    cumulative += count;
    if (cumulative >= rank) return upper;
  }
  // Writers may race a concurrent snapshot so the bucket sum can trail
  // `total`; answer with the largest populated bucket.
  return buckets.empty() ? 0 : buckets.back().first;
}

}  // namespace

uint64_t Histogram::Percentile(double q) const {
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
  buckets.reserve(kNumBuckets);
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t count = buckets_[b].Value();
    if (count > 0) buckets.emplace_back(BucketUpperNanos(b), count);
  }
  return PercentileFromBuckets(buckets, Count(), q);
}

uint64_t MetricsSnapshot::HistogramData::PercentileNanos(double q) const {
  return PercentileFromBuckets(buckets, count, q);
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(name, &out);
    out += StringPrintf(": %llu", static_cast<unsigned long long>(value));
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(name, &out);
    out += StringPrintf(": %lld", static_cast<long long>(value));
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(name, &out);
    out += StringPrintf(": {\"count\": %llu, \"sum_nanos\": %llu, \"buckets\": [",
                     static_cast<unsigned long long>(h.count),
                     static_cast<unsigned long long>(h.sum_nanos));
    bool first_bucket = true;
    for (const auto& [upper, count] : h.buckets) {
      if (!first_bucket) out += ", ";
      first_bucket = false;
      if (upper == UINT64_MAX) {
        out += StringPrintf("{\"le_nanos\": null, \"count\": %llu}",
                         static_cast<unsigned long long>(count));
      } else {
        out += StringPrintf("{\"le_nanos\": %llu, \"count\": %llu}",
                         static_cast<unsigned long long>(upper),
                         static_cast<unsigned long long>(count));
      }
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

ShardedCounter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<ShardedCounter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters[name] = c->Value();
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = g->Value();
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.count = h->Count();
    data.sum_nanos = h->SumNanos();
    for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      const uint64_t count = h->BucketCount(b);
      if (count > 0) {
        data.buckets.emplace_back(Histogram::BucketUpperNanos(b), count);
      }
    }
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

OperatorStats* QueryStats::AddOperator(std::string name,
                                       std::string annotation, size_t depth) {
  return &operators_.emplace_back(std::move(name), std::move(annotation),
                                  depth);
}

void QueryStats::SetWorkerCount(size_t n) {
  while (workers_.size() < n) workers_.emplace_back();
}

void QueryStats::CountMorselClaim(size_t worker_id) {
  if (worker_id < workers_.size()) {
    workers_[worker_id].claims.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<uint64_t> QueryStats::WorkerMorselClaims() const {
  std::vector<uint64_t> claims;
  claims.reserve(workers_.size());
  for (const WorkerCounter& w : workers_) {
    claims.push_back(w.claims.load(std::memory_order_relaxed));
  }
  return claims;
}

std::string QueryStatsSnapshot::ToJson() const {
  std::string out = StringPrintf(
      "{\"query_id\": %llu, \"wall_time_ns\": %llu, "
      "\"memory_peak_bytes\": %llu, \"rows_returned\": %llu, "
      "\"pages_decoded\": %llu, "
      "\"rows_vectorized\": %llu, \"view_hits\": %llu, "
      "\"view_misses\": %llu, \"view_delta_rows\": %llu, "
      "\"view_rebuilds\": %llu, \"operators\": [",
      static_cast<unsigned long long>(query_id),
      static_cast<unsigned long long>(wall_time_ns),
      static_cast<unsigned long long>(memory_peak_bytes),
      static_cast<unsigned long long>(rows_returned),
      static_cast<unsigned long long>(pages_decoded),
      static_cast<unsigned long long>(rows_vectorized),
      static_cast<unsigned long long>(view_hits),
      static_cast<unsigned long long>(view_misses),
      static_cast<unsigned long long>(view_delta_rows),
      static_cast<unsigned long long>(view_rebuilds));
  bool first = true;
  for (const OperatorStatsSnapshot& op : operators) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": ";
    AppendJsonString(op.name, &out);
    out += ", \"annotation\": ";
    AppendJsonString(op.annotation, &out);
    out += StringPrintf(
        ", \"depth\": %zu, \"rows_out\": %llu, \"batches_out\": %llu, "
        "\"time_ns\": %llu}",
        op.depth, static_cast<unsigned long long>(op.rows_out),
        static_cast<unsigned long long>(op.batches_out),
        static_cast<unsigned long long>(op.time_ns));
  }
  out += "], \"worker_morsel_claims\": [";
  first = true;
  for (const uint64_t claims : worker_morsel_claims) {
    if (!first) out += ", ";
    first = false;
    out += StringPrintf("%llu", static_cast<unsigned long long>(claims));
  }
  out += "]}";
  return out;
}

QueryStatsSnapshot SnapshotQueryStats(const QueryStats& stats) {
  QueryStatsSnapshot snap;
  snap.query_id = stats.query_id;
  snap.wall_time_ns = stats.wall_time_ns;
  snap.memory_peak_bytes = stats.memory_peak_bytes;
  snap.rows_returned = stats.rows_returned.load(std::memory_order_relaxed);
  snap.pages_decoded = stats.pages_decoded.load(std::memory_order_relaxed);
  snap.rows_vectorized =
      stats.rows_vectorized.load(std::memory_order_relaxed);
  snap.view_hits = stats.view_hits.load(std::memory_order_relaxed);
  snap.view_misses = stats.view_misses.load(std::memory_order_relaxed);
  snap.view_delta_rows =
      stats.view_delta_rows.load(std::memory_order_relaxed);
  snap.view_rebuilds = stats.view_rebuilds.load(std::memory_order_relaxed);
  for (const OperatorStats& op : stats.operators()) {
    OperatorStatsSnapshot s;
    s.name = op.name;
    s.annotation = op.annotation;
    s.depth = op.depth;
    s.rows_out = op.rows_out.load(std::memory_order_relaxed);
    s.batches_out = op.batches_out.load(std::memory_order_relaxed);
    s.time_ns = op.time_ns.load(std::memory_order_relaxed);
    snap.operators.push_back(std::move(s));
  }
  snap.worker_morsel_claims = stats.WorkerMorselClaims();
  return snap;
}

}  // namespace nlq
