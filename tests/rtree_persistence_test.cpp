#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "rtree/rtree.h"
#include "test_util.h"

namespace rcj {
namespace {

using testing_util::RandomRecords;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += "/";
  path += name;
  return path;
}

TEST(RTreePersistenceTest, SaveReopenQuery) {
  const std::string path = TempPath("ringjoin_rtree_persist.bin");
  std::remove(path.c_str());
  const std::vector<PointRecord> recs = RandomRecords(750, 77);

  {
    Result<std::unique_ptr<FilePageStore>> store =
        FilePageStore::Open(path, 1024, /*create=*/true);
    ASSERT_TRUE(store.ok());
    BufferManager buffer(256);
    Result<std::unique_ptr<RTree>> tree =
        RTree::Create(store.value().get(), &buffer);
    ASSERT_TRUE(tree.ok());
    for (const PointRecord& r : recs) {
      ASSERT_TRUE(tree.value()->Insert(r).ok());
    }
    ASSERT_TRUE(tree.value()->SaveHeader().ok());
    ASSERT_TRUE(buffer.FlushAll().ok());
  }

  {
    Result<std::unique_ptr<FilePageStore>> store =
        FilePageStore::Open(path, 1024, /*create=*/false);
    ASSERT_TRUE(store.ok());
    BufferManager buffer(256);
    Result<std::unique_ptr<RTree>> tree =
        RTree::Open(store.value().get(), &buffer);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    EXPECT_EQ(tree.value()->num_points(), recs.size());
    ASSERT_TRUE(tree.value()->CheckInvariants().ok())
        << tree.value()->CheckInvariants().ToString();

    std::vector<PointRecord> out;
    ASSERT_TRUE(
        tree.value()->RangeSearch(Rect{{0, 0}, {10000, 10000}}, &out).ok());
    EXPECT_EQ(out.size(), recs.size());

    Result<std::vector<PointRecord>> knn =
        tree.value()->Knn(Point{5000, 5000}, 5);
    ASSERT_TRUE(knn.ok());
    EXPECT_EQ(knn.value().size(), 5u);
  }
  std::remove(path.c_str());
}

TEST(RTreePersistenceTest, OpenWithWrongPageSizeFails) {
  const std::string path = TempPath("ringjoin_rtree_pagesize.bin");
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<FilePageStore>> store =
        FilePageStore::Open(path, 1024, /*create=*/true);
    ASSERT_TRUE(store.ok());
    BufferManager buffer(64);
    Result<std::unique_ptr<RTree>> tree =
        RTree::Create(store.value().get(), &buffer);
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE(tree.value()->Insert(PointRecord{{1, 1}, 0}).ok());
    ASSERT_TRUE(tree.value()->SaveHeader().ok());
  }
  {
    Result<std::unique_ptr<FilePageStore>> store =
        FilePageStore::Open(path, 512, /*create=*/false);
    ASSERT_TRUE(store.ok());
    BufferManager buffer(64);
    Result<std::unique_ptr<RTree>> tree =
        RTree::Open(store.value().get(), &buffer);
    EXPECT_FALSE(tree.ok());
  }
  std::remove(path.c_str());
}

TEST(RTreePersistenceTest, OpenGarbageFails) {
  const std::string path = TempPath("ringjoin_rtree_garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::vector<uint8_t> junk(1024, 0x5c);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }
  Result<std::unique_ptr<FilePageStore>> store =
      FilePageStore::Open(path, 1024, /*create=*/false);
  ASSERT_TRUE(store.ok());
  BufferManager buffer(64);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Open(store.value().get(), &buffer);
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rcj
