#ifndef NLQ_STORAGE_BUFFER_POOL_H_
#define NLQ_STORAGE_BUFFER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
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
/// registry as pool.hits / pool.misses / pool.evictions). Frame memory
/// is `BufferPool::tracker().used()`.
struct BufferPoolStats {
  uint64_t hits = 0;       // pins served by a cached frame
  uint64_t misses = 0;     // pins that read their page from disk
  uint64_t evictions = 0;  // cached pages dropped to free a frame
};

/// Bounded cache of read-only page images fronting one or more
/// DiskManagers — the memory ceiling for larger-than-RAM scans.
///
/// Frames hold immutable 64 KB page images of registered files
/// (spilled segments never change once written, so there is no dirty
/// state and eviction is free). Lookup pins the frame (clock-swept,
/// pin-counted); a miss reads its page through the DiskManager on the
/// pinning thread. The pool loads nothing on its own: a page is read
/// when, and only when, a scan pins it.
///
/// Frame memory is charged to the pool's MemoryTracker on allocation,
/// so `tracker().peak()` is the provable RSS bound of the storage
/// layer: it never exceeds budget_bytes rounded up to whole frames.
///
/// Thread-safe: scan workers pin/unpin concurrently, and a pin of a
/// page another worker is reading waits for that read instead of
/// issuing its own. When every frame is pinned simultaneously a pin
/// fails with kResourceExhausted rather than growing past the budget.
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

  size_t num_frames() const { return frames_.size(); }
  uint64_t budget_bytes() const { return budget_bytes_; }
  const MemoryTracker& tracker() const { return tracker_; }
  BufferPoolStats GetStats() const;

 private:
  friend class PageHandle;

  struct Frame {
    std::unique_ptr<char[]> data;  // kPageSize, allocated on first use
    uint64_t key = 0;              // (file_id << 40) | page_id
    bool loading = false;     // I/O in flight; waiters on loaded_cv_
    bool referenced = false;  // clock bit
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

  const uint64_t budget_bytes_;
  MemoryTracker tracker_;

  mutable std::mutex mu_;
  std::condition_variable loaded_cv_;
  // Sized to the budget at construction and never resized, so a frame
  // buffer can be filled outside mu_ while other threads claim.
  std::vector<Frame> frames_;
  size_t allocated_frames_ = 0;  // frames whose data is allocated
  std::unordered_map<uint64_t, size_t> page_map_;  // key -> frame
  std::unordered_map<uint32_t, const DiskManager*> files_;
  uint32_t next_file_id_ = 1;
  size_t clock_hand_ = 0;

  // Counters (mu_ held; reads copy under the lock).
  BufferPoolStats stats_;
};

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_BUFFER_POOL_H_
