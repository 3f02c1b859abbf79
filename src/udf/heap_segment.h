#ifndef NLQ_UDF_HEAP_SEGMENT_H_
#define NLQ_UDF_HEAP_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/memory_tracker.h"
#include "common/status.h"

namespace nlq::udf {

/// Default heap capacity per aggregate state. Mirrors the Teradata
/// constraint the paper describes: "the amount of memory that can be
/// allocated ... is currently limited to one 64 kb segment".
inline constexpr size_t kDefaultHeapCapacity = 64 * 1024;

/// Bump allocator bounded to a single segment. Aggregate UDFs keep all
/// cross-row state here; an allocation that would exceed the segment
/// fails (forcing the MAX_d-style static sizing and the partitioned
/// high-d scheme of the paper's Table 6).
class HeapSegment {
 public:
  explicit HeapSegment(size_t capacity = kDefaultHeapCapacity)
      : capacity_(capacity), buffer_(new char[capacity]) {}

  HeapSegment(const HeapSegment&) = delete;
  HeapSegment& operator=(const HeapSegment&) = delete;

  ~HeapSegment() {
    if (tracker_ != nullptr) tracker_->Release(capacity_);
  }

  /// Budget-charged construction: charges `capacity` against `tracker`
  /// up front (segments are allocated whole) and fails with
  /// kResourceExhausted instead of allocating past the query's memory
  /// limit. The charge is released when the segment is destroyed —
  /// partial aggregation states merged away mid-query give their
  /// memory back. A null tracker means no budget (untracked segment).
  static StatusOr<std::unique_ptr<HeapSegment>> Create(
      MemoryTracker* tracker, size_t capacity = kDefaultHeapCapacity) {
    if (tracker != nullptr) {
      NLQ_RETURN_IF_ERROR(tracker->Charge(capacity, "UDF heap segment"));
    }
    auto segment = std::make_unique<HeapSegment>(capacity);
    segment->tracker_ = tracker;
    return segment;
  }

  /// Moves the segment's charge to `tracker` (nullptr = untracked): a
  /// state built under a statement's budget and kept under another (a
  /// maintained view stores it). On kResourceExhausted the charge stays
  /// where it was.
  Status MoveCharge(MemoryTracker* tracker) {
    if (tracker == tracker_) return Status::OK();
    if (tracker != nullptr) {
      NLQ_RETURN_IF_ERROR(tracker->Charge(capacity_, "UDF heap segment"));
    }
    if (tracker_ != nullptr) tracker_->Release(capacity_);
    tracker_ = tracker;
    return Status::OK();
  }

  size_t capacity() const { return capacity_; }
  size_t used() const { return used_; }
  size_t remaining() const { return capacity_ - used_; }

  /// Allocates `bytes` (8-byte aligned); nullptr when the segment
  /// would overflow.
  void* Allocate(size_t bytes) {
    const size_t aligned = (bytes + 7) & ~size_t{7};
    if (aligned > remaining()) return nullptr;
    void* ptr = buffer_.get() + used_;
    used_ += aligned;
    return ptr;
  }

  /// Typed allocation, zero-initialized. T must be trivially
  /// destructible — UDF state is dropped without destructor calls,
  /// exactly like a C struct in the Teradata API.
  template <typename T>
  T* AllocateObject() {
    static_assert(std::is_trivially_destructible_v<T>,
                  "UDF heap state must be trivially destructible");
    void* ptr = Allocate(sizeof(T));
    if (ptr == nullptr) return nullptr;
    return new (ptr) T{};
  }

 private:
  size_t capacity_;
  size_t used_ = 0;
  std::unique_ptr<char[]> buffer_;
  MemoryTracker* tracker_ = nullptr;  // set by Create or MoveCharge;
                                      // released in dtor
};

}  // namespace nlq::udf

#endif  // NLQ_UDF_HEAP_SEGMENT_H_
