// Buffer pool (storage/buffer_pool.h): pin/unpin lifetime, clock
// eviction under a bounded frame budget, counter accounting and the
// all-pinned kResourceExhausted edge. The pool is the RSS ceiling of
// spilled scans, so the MemoryTracker bound is asserted here too.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace nlq::storage {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "buffer_pool_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".pages";
    NLQ_ASSERT_OK(disk_.Open(path_, /*truncate=*/true));
  }

  void TearDown() override {
    disk_.Close();
    std::remove(path_.c_str());
  }

  /// Writes `n` pages whose payloads are self-identifying (page id
  /// repeated), so any frame mix-up shows as a content mismatch.
  void FillPages(size_t n) {
    std::vector<char> page(kPageSize);
    for (uint64_t p = 0; p < n; ++p) {
      for (size_t off = 0; off + sizeof(uint64_t) <= kPageSize;
           off += sizeof(uint64_t)) {
        std::memcpy(page.data() + off, &p, sizeof(uint64_t));
      }
      NLQ_ASSERT_OK(disk_.WritePage(p, page.data()));
    }
  }

  static uint64_t PageStamp(const char* data) {
    uint64_t v;
    std::memcpy(&v, data + kPageSize - sizeof(uint64_t), sizeof(v));
    return v;
  }

  std::string path_;
  DiskManager disk_;
};

TEST_F(BufferPoolTest, PinReadsThroughAndCaches) {
  FillPages(4);
  BufferPool pool(/*budget_bytes=*/kPageSize * 16);
  const uint32_t file = pool.RegisterFile(&disk_);

  NLQ_ASSERT_OK_AND_ASSIGN(PageHandle h0, pool.Pin(file, 0));
  NLQ_ASSERT_OK_AND_ASSIGN(PageHandle h3, pool.Pin(file, 3));
  EXPECT_EQ(PageStamp(h0.data()), 0u);
  EXPECT_EQ(PageStamp(h3.data()), 3u);
  BufferPoolStats s = pool.GetStats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);

  // Second pin of a resident page is a hit, even after unpinning.
  h0.Reset();
  NLQ_ASSERT_OK_AND_ASSIGN(PageHandle again, pool.Pin(file, 0));
  EXPECT_EQ(PageStamp(again.data()), 0u);
  s = pool.GetStats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST_F(BufferPoolTest, EvictsUnpinnedFramesWithinBudget) {
  // kMinFrames is the floor, so build a working set larger than it.
  const size_t frames = BufferPool::kMinFrames;
  const size_t pages = frames * 3;
  FillPages(pages);
  BufferPool pool(/*budget_bytes=*/kPageSize);  // floor: kMinFrames frames
  ASSERT_EQ(pool.num_frames(), frames);
  const uint32_t file = pool.RegisterFile(&disk_);

  // Stream every page twice; the pool must serve all of them correctly
  // from a fixed frame count, evicting as it goes.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t p = 0; p < pages; ++p) {
      NLQ_ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Pin(file, p));
      ASSERT_EQ(PageStamp(h.data()), p) << "pass " << pass;
    }
  }
  const BufferPoolStats s = pool.GetStats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GE(s.misses, pages);  // first pass all misses
  // Memory charged never exceeded the frame budget, and every frame
  // is allocated and charged.
  EXPECT_LE(pool.tracker().peak(), frames * kPageSize);
  EXPECT_EQ(pool.tracker().used(), frames * kPageSize);
}

TEST_F(BufferPoolTest, AllPinnedFailsResourceExhaustedNotDeadlock) {
  const size_t frames = BufferPool::kMinFrames;
  FillPages(frames + 1);
  BufferPool pool(/*budget_bytes=*/kPageSize);
  const uint32_t file = pool.RegisterFile(&disk_);

  std::vector<PageHandle> held;
  for (uint64_t p = 0; p < frames; ++p) {
    NLQ_ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Pin(file, p));
    held.push_back(std::move(h));
  }
  auto extra = pool.Pin(file, frames);
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kResourceExhausted);

  // Releasing one pin unblocks the pool.
  held.pop_back();
  NLQ_ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Pin(file, frames));
  EXPECT_EQ(PageStamp(h.data()), frames);
}

TEST_F(BufferPoolTest, PinPastEofFailsAndRetriesCleanly) {
  FillPages(2);
  BufferPool pool(kPageSize * 16);
  const uint32_t file = pool.RegisterFile(&disk_);
  auto bad = pool.Pin(file, 9);
  ASSERT_FALSE(bad.ok());
  // The failed load must not leave a poisoned mapping behind.
  auto again = pool.Pin(file, 9);
  ASSERT_FALSE(again.ok());
  NLQ_ASSERT_OK_AND_ASSIGN(PageHandle ok, pool.Pin(file, 1));
  EXPECT_EQ(PageStamp(ok.data()), 1u);
}

TEST_F(BufferPoolTest, UnregisterDropsCachedPages) {
  FillPages(4);
  BufferPool pool(kPageSize * 16);
  const uint32_t file = pool.RegisterFile(&disk_);
  { NLQ_ASSERT_OK(pool.Pin(file, 0).status()); }
  pool.UnregisterFile(file);

  // Re-registering the same DiskManager gets a fresh id and fresh
  // (miss) loads — no stale frames cross the unregister.
  const uint32_t file2 = pool.RegisterFile(&disk_);
  EXPECT_NE(file, file2);
  NLQ_ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Pin(file2, 0));
  EXPECT_EQ(PageStamp(h.data()), 0u);
  const BufferPoolStats s = pool.GetStats();
  EXPECT_EQ(s.misses, 2u);
}

TEST_F(BufferPoolTest, ConcurrentPinsOfOnePageLoadOnce) {
  FillPages(64);
  BufferPool pool(kPageSize * 128);
  const uint32_t file = pool.RegisterFile(&disk_);

  // Hammer the same small page set from several threads; every read
  // must see the right content and the pool must stay consistent.
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 7 + t;
      for (int i = 0; i < kIters; ++i) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t p = (rng >> 33) % 64;
        auto h = pool.Pin(file, p);
        if (!h.ok() || PageStamp(h->data()) != p) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const BufferPoolStats s = pool.GetStats();
  // 64 distinct pages, frames for all of them: every page loads
  // exactly once, everything else hits.
  EXPECT_EQ(s.misses, 64u);
  EXPECT_EQ(s.hits, kThreads * kIters - 64u);
}

TEST_F(BufferPoolTest, MetricsRegistryMirrorsPoolCounters) {
  FillPages(4);
  const MetricsSnapshot before = MetricsRegistry::Global().GetSnapshot();
  BufferPool pool(kPageSize * 16);
  const uint32_t file = pool.RegisterFile(&disk_);
  { NLQ_ASSERT_OK(pool.Pin(file, 0).status()); }
  { NLQ_ASSERT_OK(pool.Pin(file, 0).status()); }
  const MetricsSnapshot after = MetricsRegistry::Global().GetSnapshot();
  auto counter = [](const MetricsSnapshot& s, const std::string& n) {
    auto it = s.counters.find(n);
    return it == s.counters.end() ? uint64_t{0} : it->second;
  };
  EXPECT_GE(counter(after, "pool.misses"), counter(before, "pool.misses") + 1);
  EXPECT_GE(counter(after, "pool.hits"), counter(before, "pool.hits") + 1);
  EXPECT_GE(counter(after, "disk.pages_read"),
            counter(before, "disk.pages_read") + 1);
}

}  // namespace
}  // namespace nlq::storage
