#include "storage/buffer_pool.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace nlq::storage {
namespace {

constexpr size_t kInvalidFrame = static_cast<size_t>(-1);
constexpr size_t kMaxReadaheadQueue = 64;

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
  ra_thread_ = std::thread([this] { ReadaheadLoop(); });
}

BufferPool::~BufferPool() {
  {
    std::lock_guard<std::mutex> lock(ra_mu_);
    shutting_down_ = true;
  }
  ra_cv_.notify_all();
  ra_thread_.join();
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
      Frame& f = frames_[it->second];
      f.valid = false;
      f.referenced = false;
      f.from_readahead = false;
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
      if (f.from_readahead) {
        stats_.readahead_hits++;
        f.from_readahead = false;
        CountPool("pool.readahead_hits", 1);
      }
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
    f.valid = true;
    f.pins = 1;
    f.referenced = true;
    loaded_cv_.notify_all();
    return PageHandle(this, frame, f.data.get());
  }
}

void BufferPool::ScheduleReadahead(uint32_t file_id, uint64_t first,
                                   size_t count) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(ra_mu_);
    if (shutting_down_ || ra_queue_.size() >= kMaxReadaheadQueue) return;
    ra_queue_.push_back({file_id, first, count});
  }
  ra_cv_.notify_one();
}

void BufferPool::DrainReadaheadForTest() {
  std::unique_lock<std::mutex> lock(ra_mu_);
  ra_idle_cv_.wait(lock, [this] { return ra_queue_.empty() && !ra_busy_; });
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
    stats_.bytes_cached += kPageSize;
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
  f.valid = false;
  f.loading = true;
  f.referenced = false;
  f.from_readahead = false;
  f.pins = 0;
  page_map_[key] = frame;
  return frame;
}

void BufferPool::FinishLoad(size_t frame, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame];
  f.loading = false;
  if (ok) {
    f.valid = true;
    f.from_readahead = true;
  } else {
    auto it = page_map_.find(f.key);
    if (it != page_map_.end() && it->second == frame) page_map_.erase(it);
  }
  loaded_cv_.notify_all();
}

Status BufferPool::LoadRun(uint32_t file_id, uint64_t first, size_t count) {
  struct Claimed {
    uint64_t page;
    size_t frame;
  };
  std::vector<Claimed> claimed;
  const DiskManager* disk = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto fit = files_.find(file_id);
    if (fit == files_.end()) {
      return Status::InvalidArgument("buffer pool: unknown file id " +
                                     std::to_string(file_id));
    }
    disk = fit->second;
    for (size_t i = 0; i < count; ++i) {
      const uint64_t page = first + i;
      if (page_map_.count(Key(file_id, page)) != 0) continue;  // resident
      const size_t frame = ClaimFrameLocked(Key(file_id, page));
      if (frame == kInvalidFrame) break;  // pool saturated; best effort
      claimed.push_back({page, frame});
    }
  }
  if (claimed.empty()) return Status::OK();

  // Read each consecutive run with one vectored call, scattering
  // straight into the claimed frames (safe outside mu_: frames_ never
  // resizes and a loading frame's buffer belongs to its loader).
  Status status = Status::OK();
  uint64_t loaded = 0;
  size_t i = 0;
  while (i < claimed.size()) {
    size_t j = i + 1;
    while (j < claimed.size() && claimed[j].page == claimed[j - 1].page + 1) {
      ++j;
    }
    std::vector<char*> bufs;
    bufs.reserve(j - i);
    for (size_t k = i; k < j; ++k) {
      bufs.push_back(frames_[claimed[k].frame].data.get());
    }
    Status s = disk->ReadPages(claimed[i].page, bufs);
    for (size_t k = i; k < j; ++k) FinishLoad(claimed[k].frame, s.ok());
    if (s.ok()) {
      loaded += j - i;
    } else if (status.ok()) {
      status = s;
    }
    i = j;
  }
  if (loaded > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.readahead_pages += loaded;
    }
    CountPool("pool.readahead_pages", loaded);
  }
  return status;
}

void BufferPool::ReadaheadLoop() {
  for (;;) {
    ReadaheadRequest req;
    {
      std::unique_lock<std::mutex> lock(ra_mu_);
      ra_cv_.wait(lock, [this] { return shutting_down_ || !ra_queue_.empty(); });
      if (shutting_down_) return;
      req = ra_queue_.front();
      ra_queue_.pop_front();
      ra_busy_ = true;
    }
    // Best effort: a failed readahead read just leaves the pages cold
    // and the scan's own Pin reports the real error.
    (void)LoadRun(req.file_id, req.first, req.count);
    {
      std::lock_guard<std::mutex> lock(ra_mu_);
      ra_busy_ = false;
      if (ra_queue_.empty()) ra_idle_cv_.notify_all();
    }
  }
}

}  // namespace nlq::storage
