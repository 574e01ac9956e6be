#include "storage/page_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace rcj {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// pread/pwrite loop handling short transfers and EINTR.
Status FullPread(int fd, uint8_t* out, size_t len, off_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, out + done, len - done,
                              offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("pread failed"));
    }
    if (n == 0) return Status::IoError("pread hit EOF mid-page");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FullPwrite(int fd, const uint8_t* data, size_t len, off_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd, data + done, len - done,
                               offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("pwrite failed"));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Per-thread bounce buffer for O_DIRECT reads, which require the
/// destination to be block-aligned (buffer-pool frames are not). Grown to
/// the largest page size any store on this thread reads; one memcpy per
/// page is noise next to a device read.
uint8_t* DirectReadBuffer(size_t size) {
  struct Buffer {
    void* ptr = nullptr;
    size_t capacity = 0;
    ~Buffer() { std::free(ptr); }
  };
  static thread_local Buffer buffer;
  if (buffer.capacity < size) {
    std::free(buffer.ptr);
    const size_t capacity = (size + 4095) & ~static_cast<size_t>(4095);
    buffer.ptr = std::aligned_alloc(4096, capacity);
    buffer.capacity = buffer.ptr != nullptr ? capacity : 0;
  }
  return static_cast<uint8_t*>(buffer.ptr);
}

}  // namespace

Status MemPageStore::Read(uint64_t page_no, uint8_t* out) const {
  if (page_no >= pages_.size()) {
    return Status::OutOfRange("read past end of MemPageStore");
  }
  std::memcpy(out, pages_[page_no].get(), page_size());
  return Status::OK();
}

Status MemPageStore::Write(uint64_t page_no, const uint8_t* data) {
  if (page_no >= pages_.size()) {
    return Status::OutOfRange("write past end of MemPageStore");
  }
  std::memcpy(pages_[page_no].get(), data, page_size());
  return Status::OK();
}

Result<uint64_t> MemPageStore::Allocate() {
  auto page = std::make_unique<uint8_t[]>(page_size());
  std::memset(page.get(), 0, page_size());
  pages_.push_back(std::move(page));
  return static_cast<uint64_t>(pages_.size() - 1);
}

// ---- FilePageStore -------------------------------------------------------

Result<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    const std::string& path, uint32_t page_size, bool create) {
  int flags = O_RDWR;
  if (create) flags |= O_CREAT;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (!create && errno == ENOENT) {
      return Status::NotFound("cannot open page file: " + path);
    }
    return Status::IoError(Errno("cannot open page file " + path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError(Errno("fstat failed on " + path));
  }
  if (st.st_size % static_cast<off_t>(page_size) != 0) {
    ::close(fd);
    return Status::Corruption(
        "page file size is not a multiple of the page size: " + path);
  }
  int direct_fd = -1;
#if defined(O_DIRECT)
  direct_fd = ::open(path.c_str(), O_RDONLY | O_DIRECT);
#endif
  return std::unique_ptr<FilePageStore>(new FilePageStore(
      fd, direct_fd, path, page_size,
      static_cast<uint64_t>(st.st_size) / page_size));
}

FilePageStore::~FilePageStore() {
  if (direct_fd_ >= 0) ::close(direct_fd_);
  if (fd_ >= 0) ::close(fd_);
}

Status FilePageStore::Read(uint64_t page_no, uint8_t* out) const {
  if (page_no >= num_pages()) {
    return Status::OutOfRange("read past end of FilePageStore");
  }
  const off_t offset = static_cast<off_t>(page_no * page_size());
  if (direct_reads_active()) {
    uint8_t* bounce = DirectReadBuffer(page_size());
    if (bounce != nullptr &&
        FullPread(direct_fd_, bounce, page_size(), offset).ok()) {
      std::memcpy(out, bounce, page_size());
      return Status::OK();
    }
    // Typically EINVAL: the page size or file offset violates the device's
    // direct-I/O alignment, or the filesystem refuses O_DIRECT. Permanent,
    // so fall back to the buffered descriptor for good.
    direct_ok_.store(false, std::memory_order_relaxed);
  }
  return FullPread(fd_, out, page_size(), offset);
}

Status FilePageStore::Write(uint64_t page_no, const uint8_t* data) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (page_no >= num_pages()) {
    return Status::OutOfRange("write past end of FilePageStore");
  }
  clean_.store(false, std::memory_order_release);
  return FullPwrite(fd_, data, page_size(),
                    static_cast<off_t>(page_no * page_size()));
}

Result<uint64_t> FilePageStore::Allocate() {
  std::lock_guard<std::mutex> lock(write_mu_);
  const uint64_t page_no = num_pages_.load(std::memory_order_relaxed);
  std::vector<uint8_t> zeros(page_size(), 0);
  clean_.store(false, std::memory_order_release);
  RINGJOIN_RETURN_IF_ERROR(
      FullPwrite(fd_, zeros.data(), page_size(),
                 static_cast<off_t>(page_no * page_size())));
  num_pages_.store(page_no + 1, std::memory_order_release);
  return page_no;
}

void FilePageStore::Prefetch(uint64_t page_no, uint64_t count) const {
  const uint64_t pages = num_pages();
  if (page_no >= pages || count == 0) return;
  if (direct_reads_active()) return;  // direct reads bypass the OS cache
  count = std::min(count, pages - page_no);
#if defined(POSIX_FADV_WILLNEED)
  (void)::posix_fadvise(fd_, static_cast<off_t>(page_no * page_size()),
                        static_cast<off_t>(count * page_size()),
                        POSIX_FADV_WILLNEED);
#endif
}

Status FilePageStore::DropOsCache() {
  RINGJOIN_RETURN_IF_ERROR(Sync());
#if defined(POSIX_FADV_DONTNEED)
  if (::posix_fadvise(fd_, 0, 0, POSIX_FADV_DONTNEED) != 0) {
    return Status::IoError(Errno("posix_fadvise(DONTNEED) failed"));
  }
#endif
  return Status::OK();
}

Status FilePageStore::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(Errno("fdatasync failed"));
  }
  // Nothing buffered is pending anymore, so O_DIRECT reads see every
  // completed write: re-arm direct mode.
  clean_.store(true, std::memory_order_release);
  return Status::OK();
}

}  // namespace rcj
