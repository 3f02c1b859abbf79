#ifndef NLQ_COMMON_MEMORY_TRACKER_H_
#define NLQ_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace nlq {

/// Per-query memory accountant. Execution-time consumers of unbounded
/// memory — UDF heap segments, hash-aggregate tables, sort/gather row
/// buffers — charge their allocations here;
/// a charge that would push the total past the budget fails with
/// kResourceExhausted and the query unwinds cleanly instead of growing
/// without bound (the in-DBMS safety argument of the paper: user code
/// on server threads must degrade into a query error, never an
/// engine crash).
///
/// Charges are approximate (container headers and allocator slack are
/// estimated, not measured) and deliberately conservative. All methods
/// are thread-safe: parallel morsel drains charge concurrently.
class MemoryTracker {
 public:
  /// `limit_bytes` == 0 means unlimited (usage is still tracked).
  explicit MemoryTracker(uint64_t limit_bytes = 0) : limit_(limit_bytes) {}

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  uint64_t limit() const { return limit_; }
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// Charges `bytes` against the budget. On overflow the charge is
  /// rolled back and kResourceExhausted names `what` (e.g. "aggregate
  /// UDF heap segment") plus the would-be total vs the limit.
  Status Charge(uint64_t bytes, const char* what);

  /// Non-failing variant for callers with a fallback path (the server's
  /// admission reservation): returns false and charges nothing when
  /// the budget would overflow.
  bool TryCharge(uint64_t bytes);

  /// Returns previously charged bytes to the budget.
  void Release(uint64_t bytes);

 private:
  const uint64_t limit_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
};

}  // namespace nlq

#endif  // NLQ_COMMON_MEMORY_TRACKER_H_
