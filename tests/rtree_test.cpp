#include "rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

using testing_util::RandomRecords;

struct TreeFixture {
  std::unique_ptr<MemPageStore> store;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RTree> tree;
};

TreeFixture MakeTree(uint32_t page_size = 1024) {
  TreeFixture f;
  f.store = std::make_unique<MemPageStore>(page_size);
  f.buffer = std::make_unique<BufferManager>(1u << 16);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Create(f.store.get(), f.buffer.get());
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  f.tree = std::move(tree.value());
  return f;
}

std::vector<PointRecord> BruteRange(const std::vector<PointRecord>& recs,
                                    const Rect& box) {
  std::vector<PointRecord> out;
  for (const PointRecord& r : recs) {
    if (box.Contains(r.pt)) out.push_back(r);
  }
  return out;
}

void SortById(std::vector<PointRecord>* recs) {
  std::sort(recs->begin(), recs->end(),
            [](const PointRecord& a, const PointRecord& b) {
              return a.id < b.id;
            });
}

TEST(RTreeTest, EmptyTreeQueries) {
  TreeFixture f = MakeTree();
  EXPECT_TRUE(f.tree->empty());
  EXPECT_EQ(f.tree->height(), 0u);
  std::vector<PointRecord> out;
  ASSERT_TRUE(f.tree->RangeSearch(Rect{{0, 0}, {1, 1}}, &out).ok());
  EXPECT_TRUE(out.empty());
  Result<std::vector<PointRecord>> knn = f.tree->Knn(Point{0, 0}, 3);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn.value().empty());
  EXPECT_TRUE(f.tree->CheckInvariants().ok());
}

TEST(RTreeTest, SingleInsertIsRetrievable) {
  TreeFixture f = MakeTree();
  ASSERT_TRUE(f.tree->Insert(PointRecord{{5.0, 5.0}, 1}).ok());
  EXPECT_EQ(f.tree->num_points(), 1u);
  EXPECT_EQ(f.tree->height(), 1u);
  std::vector<PointRecord> out;
  ASSERT_TRUE(f.tree->RangeSearch(Rect{{0, 0}, {10, 10}}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1);
  EXPECT_TRUE(f.tree->CheckInvariants().ok());
}

TEST(RTreeTest, CreateOnNonEmptyStoreFails) {
  MemPageStore store(1024);
  ASSERT_TRUE(store.Allocate().ok());
  BufferManager buffer(16);
  Result<std::unique_ptr<RTree>> tree = RTree::Create(&store, &buffer);
  EXPECT_FALSE(tree.ok());
}

TEST(RTreeTest, CapacitiesMatchPaperPageLayout) {
  TreeFixture f = MakeTree(1024);
  // 1 KiB pages: 8-byte header, 24-byte leaf entries, 40-byte branch
  // entries.
  EXPECT_EQ(f.tree->leaf_capacity(), 42u);
  EXPECT_EQ(f.tree->branch_capacity(), 25u);
}

class RTreeInsertSweep
    : public ::testing::TestWithParam<std::tuple<size_t, uint32_t>> {};

TEST_P(RTreeInsertSweep, InvariantsAndRangeQueriesHold) {
  const size_t n = std::get<0>(GetParam());
  const uint32_t page_size = std::get<1>(GetParam());

  TreeFixture f = MakeTree(page_size);
  const std::vector<PointRecord> recs = RandomRecords(n, 1000 + n);
  for (const PointRecord& r : recs) {
    ASSERT_TRUE(f.tree->Insert(r).ok());
  }
  EXPECT_EQ(f.tree->num_points(), n);
  ASSERT_TRUE(f.tree->CheckInvariants().ok())
      << f.tree->CheckInvariants().ToString();

  // All points retrievable through the full-domain range.
  std::vector<PointRecord> all;
  ASSERT_TRUE(f.tree->RangeSearch(Rect{{0, 0}, {10000, 10000}}, &all).ok());
  SortById(&all);
  EXPECT_EQ(all.size(), n);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, static_cast<PointId>(i));
  }

  // Random sub-range queries match a linear scan.
  testing_util::SplitMix rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    Rect box = Rect::Empty();
    box.Expand(rng.NextPoint(0, 10000));
    box.Expand(rng.NextPoint(0, 10000));
    std::vector<PointRecord> got;
    ASSERT_TRUE(f.tree->RangeSearch(box, &got).ok());
    std::vector<PointRecord> expected = BruteRange(recs, box);
    SortById(&got);
    SortById(&expected);
    EXPECT_EQ(got.size(), expected.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                           expected.end(),
                           [](const PointRecord& a, const PointRecord& b) {
                             return a.id == b.id && a.pt == b.pt;
                           }));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPages, RTreeInsertSweep,
    ::testing::Combine(::testing::Values<size_t>(10, 100, 500, 2000),
                       ::testing::Values<uint32_t>(256, 1024)),
    [](const auto& info) {
      // Every tree handles overflow with R* forced reinsertion.
      return "n" + std::to_string(std::get<0>(info.param)) + "_page" +
             std::to_string(std::get<1>(info.param)) + "_reinsert";
    });

TEST(RTreeTest, DuplicatePointsAreAllStored) {
  TreeFixture f = MakeTree(256);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.tree->Insert(PointRecord{{1.0, 1.0}, i}).ok());
  }
  std::vector<PointRecord> out;
  ASSERT_TRUE(f.tree->RangeSearch(Rect{{1.0, 1.0}, {1.0, 1.0}}, &out).ok());
  EXPECT_EQ(out.size(), 100u);
  EXPECT_TRUE(f.tree->CheckInvariants().ok());
}

TEST(RTreeTest, VisitLeavesDepthFirstCoversAllPointsOnce) {
  TreeFixture f = MakeTree(256);
  const std::vector<PointRecord> recs = RandomRecords(700, 21);
  for (const PointRecord& r : recs) ASSERT_TRUE(f.tree->Insert(r).ok());

  std::vector<PointId> seen;
  ASSERT_TRUE(f.tree
                  ->VisitLeavesDepthFirst([&](const Node& leaf) {
                    EXPECT_TRUE(leaf.is_leaf());
                    for (const LeafEntry& e : leaf.points) {
                      seen.push_back(e.rec.id);
                    }
                    return true;
                  })
                  .ok());
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), recs.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<PointId>(i));
  }
}

TEST(RTreeTest, VisitLeavesEarlyStop) {
  TreeFixture f = MakeTree(256);
  for (const PointRecord& r : RandomRecords(500, 22)) {
    ASSERT_TRUE(f.tree->Insert(r).ok());
  }
  int visited = 0;
  ASSERT_TRUE(f.tree
                  ->VisitLeavesDepthFirst([&](const Node&) {
                    ++visited;
                    return visited < 3;
                  })
                  .ok());
  EXPECT_EQ(visited, 3);
}

TEST(RTreeTest, CollectLeafPagesMatchesVisitOrder) {
  TreeFixture f = MakeTree(256);
  for (const PointRecord& r : RandomRecords(600, 23)) {
    ASSERT_TRUE(f.tree->Insert(r).ok());
  }
  std::vector<uint64_t> pages;
  ASSERT_TRUE(f.tree->CollectLeafPages(&pages).ok());

  std::vector<PointId> from_pages;
  for (const uint64_t page : pages) {
    Result<Node> node = f.tree->ReadNode(page);
    ASSERT_TRUE(node.ok());
    for (const LeafEntry& e : node.value().points) {
      from_pages.push_back(e.rec.id);
    }
  }
  std::vector<PointId> from_visit;
  ASSERT_TRUE(f.tree
                  ->VisitLeavesDepthFirst([&](const Node& leaf) {
                    for (const LeafEntry& e : leaf.points) {
                      from_visit.push_back(e.rec.id);
                    }
                    return true;
                  })
                  .ok());
  EXPECT_EQ(from_pages, from_visit);
}

TEST(RTreeTest, BoundsCoverAllPoints) {
  TreeFixture f = MakeTree();
  const std::vector<PointRecord> recs = RandomRecords(300, 31, 100.0, 900.0);
  for (const PointRecord& r : recs) ASSERT_TRUE(f.tree->Insert(r).ok());
  Result<Rect> bounds = f.tree->Bounds();
  ASSERT_TRUE(bounds.ok());
  for (const PointRecord& r : recs) {
    EXPECT_TRUE(bounds.value().Contains(r.pt));
  }
  EXPECT_GE(bounds.value().lo.x, 100.0);
  EXPECT_LE(bounds.value().hi.x, 900.0);
}

TEST(RTreeTest, GaussianClusteredInsertKeepsInvariants) {
  TreeFixture f = MakeTree();
  const std::vector<PointRecord> recs =
      GenerateGaussianClusters(3000, 5, 1000.0, 77);
  for (const PointRecord& r : recs) ASSERT_TRUE(f.tree->Insert(r).ok());
  EXPECT_TRUE(f.tree->CheckInvariants().ok())
      << f.tree->CheckInvariants().ToString();
  EXPECT_GE(f.tree->height(), 2u);
}

}  // namespace
}  // namespace rcj
