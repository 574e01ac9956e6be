#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "rtree/inn_cursor.h"
#include "rtree/rtree.h"
#include "test_util.h"

namespace rcj {
namespace {

using testing_util::RandomRecords;
using testing_util::SplitMix;

struct TreeFixture {
  std::unique_ptr<MemPageStore> store;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RTree> tree;
  std::vector<PointRecord> recs;
};

TreeFixture MakeTree(size_t n, uint64_t seed, uint32_t page_size = 512) {
  TreeFixture f;
  f.store = std::make_unique<MemPageStore>(page_size);
  f.buffer = std::make_unique<BufferManager>(1u << 16);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Create(f.store.get(), f.buffer.get());
  EXPECT_TRUE(tree.ok());
  f.tree = std::move(tree.value());
  f.recs = RandomRecords(n, seed);
  for (const PointRecord& r : f.recs) {
    EXPECT_TRUE(f.tree->Insert(r).ok());
  }
  return f;
}

std::vector<PointRecord> BruteKnn(const std::vector<PointRecord>& recs,
                                  const Point& q, size_t k) {
  std::vector<PointRecord> sorted = recs;
  std::sort(sorted.begin(), sorted.end(),
            [&](const PointRecord& a, const PointRecord& b) {
              const double da = Dist2(q, a.pt);
              const double db = Dist2(q, b.pt);
              if (da != db) return da < db;
              return a.id < b.id;
            });
  sorted.resize(std::min(k, sorted.size()));
  return sorted;
}

TEST(KnnTest, MatchesBruteForceAcrossQueries) {
  TreeFixture f = MakeTree(1500, 42);
  SplitMix rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const Point q = rng.NextPoint(0, 10000);
    for (const size_t k : {1u, 3u, 10u, 50u}) {
      Result<std::vector<PointRecord>> got = f.tree->Knn(q, k);
      ASSERT_TRUE(got.ok());
      const std::vector<PointRecord> expected = BruteKnn(f.recs, q, k);
      ASSERT_EQ(got.value().size(), expected.size());
      // Distances must agree exactly (ids may differ under exact distance
      // ties, which random doubles essentially never produce).
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_DOUBLE_EQ(Dist2(q, got.value()[i].pt),
                         Dist2(q, expected[i].pt));
      }
    }
  }
}

TEST(KnnTest, KLargerThanDatasetReturnsEverything) {
  TreeFixture f = MakeTree(37, 43);
  Result<std::vector<PointRecord>> got = f.tree->Knn(Point{0, 0}, 1000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 37u);
}

TEST(InnCursorTest, StreamsAllPointsInAscendingDistance) {
  TreeFixture f = MakeTree(900, 44);
  const Point q{5000.0, 5000.0};
  InnCursor cursor(f.tree.get(), q);
  PointRecord rec;
  double dist2 = 0.0;
  double prev = -1.0;
  size_t count = 0;
  while (cursor.Next(&rec, &dist2)) {
    EXPECT_GE(dist2, prev) << "INN must be monotone in distance";
    EXPECT_DOUBLE_EQ(dist2, Dist2(q, rec.pt));
    prev = dist2;
    ++count;
  }
  EXPECT_TRUE(cursor.status().ok());
  EXPECT_EQ(count, 900u);
}

TEST(InnCursorTest, EmptyTree) {
  TreeFixture f;
  f.store = std::make_unique<MemPageStore>(512);
  f.buffer = std::make_unique<BufferManager>(16);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Create(f.store.get(), f.buffer.get());
  ASSERT_TRUE(tree.ok());
  InnCursor cursor(tree.value().get(), Point{1, 1});
  PointRecord rec;
  EXPECT_FALSE(cursor.Next(&rec));
  EXPECT_TRUE(cursor.status().ok());
}

TEST(InnCursorTest, PrefixEqualsKnn) {
  TreeFixture f = MakeTree(400, 45);
  const Point q{123.0, 9876.0};
  InnCursor cursor(f.tree.get(), q);
  Result<std::vector<PointRecord>> knn = f.tree->Knn(q, 25);
  ASSERT_TRUE(knn.ok());
  for (const PointRecord& expected : knn.value()) {
    PointRecord rec;
    ASSERT_TRUE(cursor.Next(&rec));
    EXPECT_EQ(rec.id, expected.id);
  }
}

TEST(KnnTest, WorksOnBulkLoadedTree) {
  TreeFixture f;
  f.store = std::make_unique<MemPageStore>(512);
  f.buffer = std::make_unique<BufferManager>(1u << 16);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Create(f.store.get(), f.buffer.get());
  ASSERT_TRUE(tree.ok());
  f.tree = std::move(tree.value());
  f.recs = RandomRecords(1200, 46);
  ASSERT_TRUE(f.tree->BulkLoadStr(f.recs).ok());

  SplitMix rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const Point q = rng.NextPoint(0, 10000);
    Result<std::vector<PointRecord>> got = f.tree->Knn(q, 7);
    ASSERT_TRUE(got.ok());
    const std::vector<PointRecord> expected = BruteKnn(f.recs, q, 7);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(Dist2(q, got.value()[i].pt), Dist2(q, expected[i].pt));
    }
  }
}

}  // namespace
}  // namespace rcj
