#ifndef NLQ_STORAGE_BUFFER_POOL_H_
#define NLQ_STORAGE_BUFFER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "storage/disk_manager.h"

namespace nlq::storage {

class BufferPool;

/// RAII pin on one pool frame. While live, the frame cannot be
/// evicted and `data()` stays valid. Movable, not copyable.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle() { Reset(); }

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  const char* data() const { return data_; }

  /// Unpins early (idempotent).
  void Reset();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, size_t frame, const char* data)
      : pool_(pool), frame_(frame), data_(data) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  const char* data_ = nullptr;
};

/// Point-in-time pool counters (also mirrored into the process metrics
/// registry as pool.hits / pool.misses / pool.evictions /
/// pool.readahead_pages / pool.readahead_hits).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t readahead_pages = 0;  // pages loaded by the readahead worker
  uint64_t readahead_hits = 0;   // pins served by a readahead-loaded frame
  uint64_t bytes_cached = 0;     // frames allocated * kPageSize
};

/// Bounded cache of read-only page images fronting one or more
/// DiskManagers — the memory ceiling for larger-than-RAM scans.
///
/// Frames hold immutable 64 KB page images of registered files
/// (spilled segments never change once written, so there is no dirty
/// state and eviction is free). Lookup pins the frame (clock-swept,
/// pin-counted); a miss reads its page through the DiskManager. A
/// background readahead worker loads announced page runs into unpinned
/// frames, one vectored ReadPages per consecutive run, so scans find
/// them warm — the next chunk of a scan is the announcement unit.
///
/// Frame memory is charged to the pool's MemoryTracker on allocation,
/// so `tracker().peak()` is the provable RSS bound of the storage
/// layer: it never exceeds budget_bytes rounded up to whole frames.
///
/// Thread-safe: workers pin/unpin concurrently with the readahead
/// worker. When every frame is pinned simultaneously a pin fails with
/// kResourceExhausted rather than growing past the budget.
class BufferPool {
 public:
  /// `budget_bytes` bounds frame memory; at least kMinFrames frames
  /// are always available so tiny budgets cannot deadlock a scan.
  explicit BufferPool(uint64_t budget_bytes);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  static constexpr size_t kMinFrames = 16;

  /// Registers an open file; pages are keyed by the returned id. The
  /// DiskManager must outlive its registration.
  uint32_t RegisterFile(const DiskManager* disk);

  /// Drops every cached page of `file_id` (must have no pins on them)
  /// and forgets the file.
  void UnregisterFile(uint32_t file_id);

  /// Pins the frame holding page (file_id, page_id), reading it from
  /// disk on a miss. The handle unpins on destruction.
  StatusOr<PageHandle> Pin(uint32_t file_id, uint64_t page_id);

  /// Queues pages [first, first+count) for the background readahead
  /// worker. Drops the request when the queue is saturated; readahead
  /// is best-effort by design.
  void ScheduleReadahead(uint32_t file_id, uint64_t first, size_t count);

  /// Blocks until the readahead queue is empty (tests).
  void DrainReadaheadForTest();

  size_t num_frames() const { return frames_.size(); }
  uint64_t budget_bytes() const { return budget_bytes_; }
  const MemoryTracker& tracker() const { return tracker_; }
  BufferPoolStats GetStats() const;

 private:
  friend class PageHandle;

  struct Frame {
    std::unique_ptr<char[]> data;  // kPageSize, allocated on first use
    uint64_t key = 0;              // (file_id << 40) | page_id when valid
    bool valid = false;
    bool loading = false;     // I/O in flight; waiters on loaded_cv_
    bool referenced = false;  // clock bit
    bool from_readahead = false;
    uint32_t pins = 0;
  };

  static uint64_t Key(uint32_t file_id, uint64_t page_id) {
    return (static_cast<uint64_t>(file_id) << 40) | page_id;
  }

  void Unpin(size_t frame);

  /// Picks a victim frame with the clock hand (mu_ held). Returns
  /// SIZE_MAX when every frame is pinned or loading.
  size_t EvictLocked();

  /// Claims a frame for `key`, marking it loading (mu_ held). Returns
  /// SIZE_MAX when no frame is available.
  size_t ClaimFrameLocked(uint64_t key);

  /// Publishes or abandons a frame claimed by readahead after I/O
  /// (locks mu_). A failed load drops the mapping so a later Pin
  /// retries the read.
  void FinishLoad(size_t frame, bool ok);

  void ReadaheadLoop();

  /// Loads the missing pages of [first, first+count) into unpinned
  /// frames for the readahead worker, one vectored ReadPages per
  /// consecutive run. Pages that cannot get a frame (all pinned) are
  /// skipped: readahead is an optimization, Pin is the correctness
  /// path.
  Status LoadRun(uint32_t file_id, uint64_t first, size_t count);

  const uint64_t budget_bytes_;
  MemoryTracker tracker_;

  mutable std::mutex mu_;
  std::condition_variable loaded_cv_;
  // Sized to the budget at construction and never resized, so frame
  // buffers can be filled outside mu_ while other threads claim.
  std::vector<Frame> frames_;
  size_t allocated_frames_ = 0;  // frames whose data is allocated
  std::unordered_map<uint64_t, size_t> page_map_;  // key -> frame
  std::unordered_map<uint32_t, const DiskManager*> files_;
  uint32_t next_file_id_ = 1;
  size_t clock_hand_ = 0;

  // Counters (mu_ held; reads copy under the lock).
  BufferPoolStats stats_;

  // Readahead worker.
  struct ReadaheadRequest {
    uint32_t file_id;
    uint64_t first;
    size_t count;
  };
  std::mutex ra_mu_;
  std::condition_variable ra_cv_;
  std::condition_variable ra_idle_cv_;
  std::deque<ReadaheadRequest> ra_queue_;
  bool ra_busy_ = false;
  bool shutting_down_ = false;
  std::thread ra_thread_;
};

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_BUFFER_POOL_H_
