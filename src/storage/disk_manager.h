#ifndef NLQ_STORAGE_DISK_MANAGER_H_
#define NLQ_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace nlq::storage {

/// Fixed page size: the unit of every storage file. A chunk blob
/// (spill_segment.h) is padded to whole pages, and the buffer pool
/// caches pages. 64 KB mirrors the Teradata segment granularity the
/// paper mentions.
inline constexpr size_t kPageSize = 64 * 1024;

/// Page-granular file I/O (pread/pwrite on a single backing file).
/// The chunk writer stores spill and snapshot files through it, the
/// buffer pool fronts it for spilled segments, and snapshot loads read
/// page runs straight from it.
///
/// Reads and writes tick the process metrics registry
/// (`disk.pages_read` / `disk.read_bytes` / `disk.pages_written` /
/// `disk.write_bytes`), so scan-path I/O is visible next to the buffer
/// pool's hit/miss counters.
class DiskManager {
 public:
  DiskManager() = default;
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Opens (creating if needed) the backing file. `truncate` discards
  /// existing content.
  Status Open(const std::string& path, bool truncate);

  /// Closes the backing file (no-op if not open).
  void Close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Number of pages currently in the file; kCorruption when the file
  /// ends in a partial page (every writer writes whole pages).
  StatusOr<uint64_t> PageCount() const;

  /// Writes the kPageSize bytes at `data` as the page at index
  /// `page_id`.
  Status WritePage(uint64_t page_id, const char* data);

  /// Vectored read of `bufs.size()` consecutive pages starting at
  /// `first_page`, scattering page i into bufs[i] (each a kPageSize
  /// buffer). One preadv covers up to IOV_MAX pages per syscall, so a
  /// snapshot load reads a chunk blob's page run in one call; a pool
  /// miss reads one page.
  Status ReadPages(uint64_t first_page,
                   const std::vector<char*>& bufs) const;

  /// Flushes file data to stable storage.
  Status Sync();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_DISK_MANAGER_H_
