#include "storage/buffer_pool.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace nlq::storage {
namespace {

constexpr size_t kInvalidFrame = static_cast<size_t>(-1);

/// Mirrors a pool event into the process metrics registry. Looked up
/// per call: ResetForTest invalidates cached references, and the cost
/// amortizes over 64 KB of page I/O.
void CountPool(const char* name, uint64_t n) {
  MetricsRegistry::Global().counter(name).Add(n);
}

}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Reset();
    pool_ = other.pool_;
    frame_ = other.frame_;
    data_ = other.data_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void PageHandle::Reset() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

BufferPool::BufferPool(uint64_t budget_bytes) : budget_bytes_(budget_bytes) {
  const size_t budget_frames = static_cast<size_t>(budget_bytes / kPageSize);
  frames_.resize(std::max(kMinFrames, budget_frames));
}

BufferPool::~BufferPool() {
  tracker_.Release(static_cast<uint64_t>(allocated_frames_) * kPageSize);
}

uint32_t BufferPool::RegisterFile(const DiskManager* disk) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t id = next_file_id_++;
  files_[id] = disk;
  return id;
}

void BufferPool::UnregisterFile(uint32_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(file_id);
  for (auto it = page_map_.begin(); it != page_map_.end();) {
    if ((it->first >> 40) == file_id) {
      frames_[it->second].referenced = false;
      it = page_map_.erase(it);
    } else {
      ++it;
    }
  }
}

StatusOr<PageHandle> BufferPool::Pin(uint32_t file_id, uint64_t page_id) {
  const uint64_t key = Key(file_id, page_id);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = page_map_.find(key);
    if (it != page_map_.end()) {
      Frame& f = frames_[it->second];
      if (f.loading) {
        // Another thread is reading this page; when it publishes (or
        // abandons) the frame we re-check the map from scratch.
        loaded_cv_.wait(lock);
        continue;
      }
      f.pins++;
      f.referenced = true;
      stats_.hits++;
      CountPool("pool.hits", 1);
      return PageHandle(this, it->second, f.data.get());
    }

    auto fit = files_.find(file_id);
    if (fit == files_.end()) {
      return Status::InvalidArgument("buffer pool: unknown file id " +
                                     std::to_string(file_id));
    }
    const DiskManager* disk = fit->second;
    const size_t frame = ClaimFrameLocked(key);
    if (frame == kInvalidFrame) {
      return Status::ResourceExhausted(
          "buffer pool: every frame pinned (budget " +
          std::to_string(budget_bytes_) + " bytes, " +
          std::to_string(frames_.size()) + " frames)");
    }
    stats_.misses++;
    CountPool("pool.misses", 1);
    char* buf = frames_[frame].data.get();

    lock.unlock();
    std::vector<char*> one{buf};
    Status s = disk->ReadPages(page_id, one);
    lock.lock();

    Frame& f = frames_[frame];
    f.loading = false;
    if (!s.ok()) {
      page_map_.erase(key);
      loaded_cv_.notify_all();
      return s;
    }
    f.pins = 1;
    f.referenced = true;
    loaded_cv_.notify_all();
    return PageHandle(this, frame, f.data.get());
  }
}

BufferPoolStats BufferPool::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BufferPool::Unpin(size_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame];
  if (f.pins > 0) f.pins--;
}

size_t BufferPool::EvictLocked() {
  const size_t n = allocated_frames_;
  if (n == 0) return kInvalidFrame;
  // Two sweeps: the first clears reference bits, the second takes the
  // first unreferenced unpinned frame. If nothing is evictable after
  // that, every frame is pinned or mid-load.
  for (size_t step = 0; step < 2 * n; ++step) {
    const size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    Frame& f = frames_[idx];
    if (f.pins > 0 || f.loading) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    return idx;
  }
  return kInvalidFrame;
}

size_t BufferPool::ClaimFrameLocked(uint64_t key) {
  size_t frame = kInvalidFrame;
  if (allocated_frames_ < frames_.size()) {
    frame = allocated_frames_++;
    frames_[frame].data = std::make_unique<char[]>(kPageSize);
    // The tracker has no limit of its own — the frame count is the
    // structural bound — so the charge only records usage/peak.
    Status charge = tracker_.Charge(kPageSize, "buffer pool frame");
    (void)charge;
  } else {
    frame = EvictLocked();
    if (frame == kInvalidFrame) return kInvalidFrame;
    Frame& victim = frames_[frame];
    // Drop the victim's mapping only if it still points at this frame
    // (a frame freed by a failed load carries a stale key).
    auto it = page_map_.find(victim.key);
    if (it != page_map_.end() && it->second == frame) {
      page_map_.erase(it);
      stats_.evictions++;
      CountPool("pool.evictions", 1);
    }
  }
  Frame& f = frames_[frame];
  f.key = key;
  f.loading = true;
  f.referenced = false;
  f.pins = 0;
  page_map_[key] = frame;
  return frame;
}

}  // namespace nlq::storage
