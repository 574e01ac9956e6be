// The disk: a flat array of fixed-size pages addressed by page number.
// Two backends share one interface and are both first-class hot paths:
//
//   * MemPageStore    — heap-resident pages. "Disk" behaviour is modeled by
//                       the buffer manager's fault accounting, exactly as
//                       the paper charges 10 ms per page fault rather than
//                       timing a physical disk.
//   * FilePageStore   — a POSIX file read with pread(2)/pwritten with
//                       pwrite(2). Reads are lock-free and genuinely
//                       concurrent: this is the backend the parallel engine
//                       drives at 10^7–10^8 points, where measured
//                       io_wall_seconds comes from real device reads. Once
//                       the file is synced, reads switch to an O_DIRECT
//                       descriptor: the buffer manager is the application's
//                       cache, so bypassing the OS page cache avoids double
//                       caching and makes every fault an honest device read
//                       (with automatic fallback to buffered pread where
//                       O_DIRECT is unsupported).
//
// Both backends support Prefetch() (readahead advice for the engine's
// leaf-order oracle) and DropOsCache() (best-effort eviction of the file's
// OS-cached pages, so benchmarks can measure honestly cold runs).
#ifndef RINGJOIN_STORAGE_PAGE_STORE_H_
#define RINGJOIN_STORAGE_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace rcj {

/// Default page size, matching the paper's experimental setup ("disk page
/// size of 1K bytes", Section 5).
inline constexpr uint32_t kDefaultPageSize = 1024;

/// Abstract page-addressed storage. All reads and writes transfer exactly
/// `page_size()` bytes.
///
/// Thread safety: concurrent Read()/Prefetch() calls are safe on every
/// backend as long as no thread is concurrently writing or allocating — the
/// situation the parallel join engine is in, where several worker buffer
/// pools fault pages of one immutable tree. Writes and allocation (tree
/// construction) remain single-threaded by design.
///
/// Lifetime: a store owns its backing resource (heap pages or file
/// descriptors) and must outlive every BufferManager and RTree view
/// opened over it.
class PageStore {
 public:
  explicit PageStore(uint32_t page_size) : page_size_(page_size) {}
  virtual ~PageStore() = default;

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(PageStore);

  uint32_t page_size() const { return page_size_; }

  /// Number of allocated pages; valid page numbers are [0, num_pages()).
  virtual uint64_t num_pages() const = 0;

  /// Reads page `page_no` into `out` (page_size() bytes).
  virtual Status Read(uint64_t page_no, uint8_t* out) const = 0;

  /// Writes page `page_no` from `data` (page_size() bytes).
  virtual Status Write(uint64_t page_no, const uint8_t* data) = 0;

  /// Appends a zero-filled page and returns its page number.
  virtual Result<uint64_t> Allocate() = 0;

  /// Advises the backend that pages [page_no, page_no + count) will be read
  /// soon. Purely a hint: the default (and the in-memory backend) is a
  /// no-op; the file backend translates it to posix_fadvise(WILLNEED).
  /// Safe to call concurrently with Read().
  virtual void Prefetch(uint64_t page_no, uint64_t count) const {
    (void)page_no;
    (void)count;
  }

  /// Best-effort eviction of this store's pages from the OS page cache, so
  /// the next reads hit the device — the honest "cold disk" reset real-I/O
  /// benchmarks need between measurements. No-op for the in-memory backend.
  /// Not thread-safe with concurrent writes (callers quiesce first).
  virtual Status DropOsCache() { return Status::OK(); }

  /// Flushes buffered writes to the backing device. No-op in memory; the
  /// file backend fdatasyncs and re-arms its O_DIRECT read path (see
  /// FilePageStore). Environments call this once after
  /// construction, before the trees go read-only.
  virtual Status Sync() { return Status::OK(); }

 private:
  uint32_t page_size_;
};

/// Heap-backed page store: the zero-I/O baseline for tests and modeled-cost
/// experiments. Concurrent Read() is naturally safe (pages are immutable
/// heap arrays and the page vector only grows during single-threaded
/// construction).
class MemPageStore : public PageStore {
 public:
  explicit MemPageStore(uint32_t page_size = kDefaultPageSize)
      : PageStore(page_size) {}

  uint64_t num_pages() const override { return pages_.size(); }
  Status Read(uint64_t page_no, uint8_t* out) const override;
  Status Write(uint64_t page_no, const uint8_t* data) override;
  Result<uint64_t> Allocate() override;

 private:
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
};

/// File-backed page store and the real-I/O hot path. The file is a dense
/// array of pages with no header (tree metadata lives in the tree's own
/// header page). Reads are positioned pread(2) calls on a shared file
/// descriptor — no seek state, no lock — so any number of worker threads
/// can fault pages concurrently and their device waits overlap. Writes and
/// Allocate() serialize on a mutex (single-threaded construction anyway).
///
/// Direct-read mode: while the store is clean (no write since the last
/// Sync()), reads go through a second O_RDONLY|O_DIRECT descriptor into a
/// thread-local aligned bounce buffer. The callers' buffer pools are the
/// only cache then — the OS page cache neither duplicates them nor hides
/// device latency, which is what lets benchmark I/O numbers mean something
/// and lets concurrent workers overlap genuine device waits. A write marks
/// the store dirty (reads fall back to the buffered descriptor, which is
/// coherent with pending writes); Sync() restores direct mode. If O_DIRECT
/// is unavailable (filesystem, alignment, page size below the device block
/// size) the store permanently falls back to buffered pread.
class FilePageStore : public PageStore {
 public:
  /// Opens (or creates, if `create` is true) the store at `path`. The file
  /// size must be a multiple of `page_size`.
  static Result<std::unique_ptr<FilePageStore>> Open(
      const std::string& path, uint32_t page_size = kDefaultPageSize,
      bool create = true);

  ~FilePageStore() override;

  uint64_t num_pages() const override {
    return num_pages_.load(std::memory_order_acquire);
  }
  Status Read(uint64_t page_no, uint8_t* out) const override;
  Status Write(uint64_t page_no, const uint8_t* data) override;
  Result<uint64_t> Allocate() override;

  /// posix_fadvise(POSIX_FADV_WILLNEED) over the page range. A no-op in
  /// direct-read mode, where populating the (bypassed) OS cache would cost
  /// a second device read per page.
  void Prefetch(uint64_t page_no, uint64_t count) const override;

  /// fdatasync + posix_fadvise(POSIX_FADV_DONTNEED): flushes dirty OS
  /// buffers, then asks the kernel to drop the file's cached pages.
  Status DropOsCache() override;

  /// Flushes OS buffers to the device (fdatasync) and re-arms direct-read
  /// mode: with no buffered writes pending, O_DIRECT reads are coherent.
  Status Sync() override;

  /// True while reads are served through the O_DIRECT descriptor.
  bool direct_reads_active() const {
    return direct_ok_.load(std::memory_order_relaxed) &&
           clean_.load(std::memory_order_acquire);
  }

  /// The backing file's path, for cleanup by the owner.
  const std::string& path() const { return path_; }

 private:
  FilePageStore(int fd, int direct_fd, std::string path, uint32_t page_size,
                uint64_t num_pages)
      : PageStore(page_size),
        fd_(fd),
        direct_fd_(direct_fd),
        path_(std::move(path)),
        num_pages_(num_pages),
        direct_ok_(direct_fd >= 0) {}

  int fd_;
  /// O_RDONLY|O_DIRECT descriptor, -1 when unsupported.
  int direct_fd_;
  std::string path_;
  /// Grows only under `write_mu_`; readers load it lock-free.
  std::atomic<uint64_t> num_pages_;
  /// Serializes Write()/Allocate() (growth); Read() never takes it.
  std::mutex write_mu_;
  /// False once a direct read failed (EINVAL on odd page sizes, fs without
  /// O_DIRECT): buffered pread from then on.
  mutable std::atomic<bool> direct_ok_;
  /// No buffered write since the last Sync(): direct reads are coherent.
  std::atomic<bool> clean_{true};
};

}  // namespace rcj

#endif  // RINGJOIN_STORAGE_PAGE_STORE_H_
