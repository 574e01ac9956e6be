#include "storage/page_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace rcj {
namespace {

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += "/";
  path += name;
  return path;
}

void FillPattern(std::vector<uint8_t>* buf, uint8_t seed) {
  for (size_t i = 0; i < buf->size(); ++i) {
    (*buf)[i] = static_cast<uint8_t>(seed + i * 13);
  }
}

TEST(MemPageStoreTest, AllocateReadWriteRoundtrip) {
  MemPageStore store(256);
  EXPECT_EQ(store.page_size(), 256u);
  EXPECT_EQ(store.num_pages(), 0u);

  Result<uint64_t> p0 = store.Allocate();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(p0.value(), 0u);
  Result<uint64_t> p1 = store.Allocate();
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1.value(), 1u);
  EXPECT_EQ(store.num_pages(), 2u);

  std::vector<uint8_t> out(256, 0xff);
  ASSERT_TRUE(store.Read(0, out.data()).ok());
  for (uint8_t byte : out) EXPECT_EQ(byte, 0) << "fresh pages are zeroed";

  std::vector<uint8_t> in(256);
  FillPattern(&in, 7);
  ASSERT_TRUE(store.Write(1, in.data()).ok());
  ASSERT_TRUE(store.Read(1, out.data()).ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 256), 0);
}

TEST(MemPageStoreTest, OutOfRangeAccessFails) {
  MemPageStore store(128);
  std::vector<uint8_t> buf(128);
  EXPECT_EQ(store.Read(0, buf.data()).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store.Write(5, buf.data()).code(), StatusCode::kOutOfRange);
}

TEST(FilePageStoreTest, CreateWriteReopenRead) {
  const std::string path = TempPath("ringjoin_pagestore_test.bin");
  std::remove(path.c_str());

  std::vector<uint8_t> in(512);
  FillPattern(&in, 42);
  {
    Result<std::unique_ptr<FilePageStore>> store =
        FilePageStore::Open(path, 512, /*create=*/true);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    Result<uint64_t> p0 = store.value()->Allocate();
    ASSERT_TRUE(p0.ok());
    Result<uint64_t> p1 = store.value()->Allocate();
    ASSERT_TRUE(p1.ok());
    ASSERT_TRUE(store.value()->Write(1, in.data()).ok());
    ASSERT_TRUE(store.value()->Sync().ok());
  }
  {
    Result<std::unique_ptr<FilePageStore>> store =
        FilePageStore::Open(path, 512, /*create=*/false);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store.value()->num_pages(), 2u);
    std::vector<uint8_t> out(512);
    ASSERT_TRUE(store.value()->Read(1, out.data()).ok());
    EXPECT_EQ(std::memcmp(in.data(), out.data(), 512), 0);
  }
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, MissingFileWithoutCreateFails) {
  Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Open(
      TempPath("ringjoin_does_not_exist.bin"), 512, /*create=*/false);
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kNotFound);
}

TEST(FilePageStoreTest, CorruptSizeDetected) {
  const std::string path = TempPath("ringjoin_corrupt_size.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[100] = {0};
    std::fwrite(junk, 1, sizeof(junk), f);  // 100 bytes: not a page multiple
    std::fclose(f);
  }
  Result<std::unique_ptr<FilePageStore>> store =
      FilePageStore::Open(path, 512, /*create=*/false);
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Whether O_DIRECT actually works is a property of the filesystem backing
// TMPDIR (tmpfs rejects it, ext4 accepts it). The state-machine tests below
// therefore probe support on a clean store and assert the protocol relative
// to that, so they pass on both kinds of filesystem.
TEST(FilePageStoreTest, DirectReadModeFollowsCleanDirtyProtocol) {
  const std::string path = TempPath("ringjoin_direct_mode.bin");
  std::remove(path.c_str());

  Result<std::unique_ptr<FilePageStore>> opened =
      FilePageStore::Open(path, 1024, /*create=*/true);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  FilePageStore* store = opened.value().get();

  // A fresh store has no buffered writes, so direct mode is armed iff the
  // filesystem supports O_DIRECT at all.
  const bool supported = store->direct_reads_active();

  std::vector<uint8_t> page(1024);
  FillPattern(&page, 3);
  ASSERT_TRUE(store->Allocate().ok());
  ASSERT_TRUE(store->Write(0, page.data()).ok());

  // A write dirties the store: reads must fall back to the buffered
  // descriptor (which sees the pending write) until the next Sync().
  EXPECT_FALSE(store->direct_reads_active());
  std::vector<uint8_t> out(1024);
  ASSERT_TRUE(store->Read(0, out.data()).ok());
  EXPECT_EQ(std::memcmp(page.data(), out.data(), 1024), 0)
      << "dirty read must see the buffered write";

  // Sync flushes and re-arms direct mode (where supported). Either way the
  // synced data must read back identically.
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(store->direct_reads_active(), supported);
  std::fill(out.begin(), out.end(), 0xcc);
  ASSERT_TRUE(store->Read(0, out.data()).ok());
  EXPECT_EQ(std::memcmp(page.data(), out.data(), 1024), 0)
      << "post-sync read (direct where supported) must match";

  std::remove(path.c_str());
}

TEST(FilePageStoreTest, UnalignedPageSizeFallsBackToBufferedReads) {
  // 768 bytes is not a multiple of any device block size O_DIRECT accepts,
  // so the first direct read fails with EINVAL and the store permanently
  // falls back to buffered pread — transparently, with correct data.
  const std::string path = TempPath("ringjoin_direct_odd.bin");
  std::remove(path.c_str());

  Result<std::unique_ptr<FilePageStore>> opened =
      FilePageStore::Open(path, 768, /*create=*/true);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  FilePageStore* store = opened.value().get();

  std::vector<uint8_t> page(768);
  FillPattern(&page, 99);
  ASSERT_TRUE(store->Allocate().ok());
  ASSERT_TRUE(store->Write(0, page.data()).ok());
  ASSERT_TRUE(store->Sync().ok());

  std::vector<uint8_t> out(768);
  ASSERT_TRUE(store->Read(0, out.data()).ok());
  EXPECT_EQ(std::memcmp(page.data(), out.data(), 768), 0);
  EXPECT_FALSE(store->direct_reads_active())
      << "a failed direct read must disable direct mode for good";
  // And stay disabled across a Sync() (direct_ok_ is permanent, clean_
  // alone cannot re-arm it).
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_FALSE(store->direct_reads_active());

  std::remove(path.c_str());
}

// Shared harness for the two file backends: write a recognizable pattern
// into `num_pages` pages, sync, then hammer the store with `num_threads`
// concurrent readers, each verifying every page's contents.
void ConcurrentReadStress(PageStore* store, uint64_t num_pages,
                          int num_threads) {
  const uint32_t page_size = store->page_size();
  for (uint64_t p = 0; p < num_pages; ++p) {
    Result<uint64_t> id = store->Allocate();
    ASSERT_TRUE(id.ok());
    std::vector<uint8_t> page(page_size);
    FillPattern(&page, static_cast<uint8_t>(p));
    ASSERT_TRUE(store->Write(id.value(), page.data()).ok());
  }
  ASSERT_TRUE(store->Sync().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([store, num_pages, page_size, t, &failures] {
      std::vector<uint8_t> out(page_size);
      std::vector<uint8_t> expect(page_size);
      // Each thread walks the pages from a different starting offset so
      // concurrent reads hit distinct and identical pages alike.
      for (uint64_t i = 0; i < num_pages * 4; ++i) {
        const uint64_t p = (i + static_cast<uint64_t>(t) * 7) % num_pages;
        if (!store->Read(p, out.data()).ok()) {
          ++failures;
          return;
        }
        FillPattern(&expect, static_cast<uint8_t>(p));
        if (std::memcmp(expect.data(), out.data(), page_size) != 0) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(FilePageStoreTest, ConcurrentReadersSeeConsistentPages) {
  const std::string path = TempPath("ringjoin_concurrent_file.bin");
  std::remove(path.c_str());
  Result<std::unique_ptr<FilePageStore>> store =
      FilePageStore::Open(path, 1024, /*create=*/true);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ConcurrentReadStress(store.value().get(), 64, 8);
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, DropOsCachePreservesData) {
  const std::string path = TempPath("ringjoin_dropcache.bin");
  std::remove(path.c_str());
  Result<std::unique_ptr<FilePageStore>> store =
      FilePageStore::Open(path, 1024, /*create=*/true);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  std::vector<uint8_t> in(1024);
  FillPattern(&in, 11);
  ASSERT_TRUE(store.value()->Allocate().ok());
  ASSERT_TRUE(store.value()->Write(0, in.data()).ok());
  ASSERT_TRUE(store.value()->DropOsCache().ok());

  std::vector<uint8_t> out(1024);
  ASSERT_TRUE(store.value()->Read(0, out.data()).ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 1024), 0);
  // Prefetch is advisory on every backend; it must at least not break
  // subsequent reads, in either direct or buffered mode.
  store.value()->Prefetch(0, 1);
  ASSERT_TRUE(store.value()->Read(0, out.data()).ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 1024), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rcj
