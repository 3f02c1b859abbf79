#include "storage/disk_manager.h"

#include <fcntl.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

namespace nlq::storage {
namespace {

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::IOError(std::string(op) + " failed for '" + path +
                         "': " + std::strerror(errno));
}

/// Ticks the process-wide I/O counters. Looked up per call (amortized
/// over a 64 KB page, and ResetForTest invalidates cached references).
void CountIo(const char* pages_name, const char* bytes_name, size_t pages) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter(pages_name).Add(pages);
  metrics.counter(bytes_name).Add(pages * kPageSize);
}

}  // namespace

DiskManager::~DiskManager() { Close(); }

Status DiskManager::Open(const std::string& path, bool truncate) {
  Close();
  int flags = O_RDWR | O_CREAT;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return ErrnoStatus("open", path);
  path_ = path;
  return Status::OK();
}

void DiskManager::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<uint64_t> DiskManager::PageCount() const {
  if (fd_ < 0) return Status::Internal("DiskManager not open");
  struct stat st;
  if (::fstat(fd_, &st) != 0) return ErrnoStatus("fstat", path_);
  const uint64_t bytes = static_cast<uint64_t>(st.st_size);
  if (bytes % kPageSize != 0) {
    return Status::Corruption("file '" + path_ + "' of " +
                              std::to_string(bytes) +
                              " bytes ends in a partial page");
  }
  return bytes / kPageSize;
}

Status DiskManager::WritePage(uint64_t page_id, const char* data) {
  if (fd_ < 0) return Status::Internal("DiskManager not open");
  NLQ_FAILPOINT("disk_io");
  const off_t offset = static_cast<off_t>(page_id * kPageSize);
  size_t written = 0;
  while (written < kPageSize) {
    const ssize_t n = ::pwrite(fd_, data + written, kPageSize - written,
                               offset + static_cast<off_t>(written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", path_);
    }
    written += static_cast<size_t>(n);
  }
  CountIo("disk.pages_written", "disk.write_bytes", 1);
  return Status::OK();
}

Status DiskManager::ReadPages(uint64_t first_page,
                              const std::vector<char*>& bufs) const {
  if (fd_ < 0) return Status::Internal("DiskManager not open");
  if (bufs.empty()) return Status::OK();
  NLQ_FAILPOINT("disk_io");
  size_t done = 0;  // pages fully read
  while (done < bufs.size()) {
    const size_t batch = std::min<size_t>(bufs.size() - done, IOV_MAX);
    std::vector<struct iovec> iov(batch);
    for (size_t i = 0; i < batch; ++i) {
      iov[i].iov_base = bufs[done + i];
      iov[i].iov_len = kPageSize;
    }
    size_t batch_read = 0;  // bytes read within this batch
    const size_t batch_bytes = batch * kPageSize;
    while (batch_read < batch_bytes) {
      // Re-point the iovec at the resume position after a short read.
      const size_t skip_pages = batch_read / kPageSize;
      const size_t skip_into = batch_read % kPageSize;
      std::vector<struct iovec> rest(iov.begin() + skip_pages, iov.end());
      rest[0].iov_base = static_cast<char*>(rest[0].iov_base) + skip_into;
      rest[0].iov_len -= skip_into;
      const off_t offset =
          static_cast<off_t>((first_page + done) * kPageSize + batch_read);
      const ssize_t n =
          ::preadv(fd_, rest.data(), static_cast<int>(rest.size()), offset);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("preadv", path_);
      }
      if (n == 0) {
        return Status::IOError("short read: page run beyond end of file");
      }
      batch_read += static_cast<size_t>(n);
    }
    done += batch;
  }
  CountIo("disk.pages_read", "disk.read_bytes", bufs.size());
  return Status::OK();
}

Status DiskManager::Sync() {
  if (fd_ < 0) return Status::Internal("DiskManager not open");
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  return Status::OK();
}

}  // namespace nlq::storage
