#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "rtree/rtree.h"
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

TreeFixture MakeBulkTree(const std::vector<PointRecord>& recs,
                         uint32_t page_size = 1024) {
  TreeFixture f;
  f.store = std::make_unique<MemPageStore>(page_size);
  f.buffer = std::make_unique<BufferManager>(1u << 16);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Create(f.store.get(), f.buffer.get());
  EXPECT_TRUE(tree.ok());
  f.tree = std::move(tree.value());
  EXPECT_TRUE(f.tree->BulkLoadStr(recs).ok());
  return f;
}

TEST(RTreeBulkLoadTest, EmptyInputIsNoop) {
  TreeFixture f = MakeBulkTree({});
  EXPECT_TRUE(f.tree->empty());
  EXPECT_TRUE(f.tree->CheckInvariants().ok());
}

TEST(RTreeBulkLoadTest, RejectsNonEmptyTree) {
  TreeFixture f = MakeBulkTree(RandomRecords(50, 1));
  EXPECT_FALSE(f.tree->BulkLoadStr(RandomRecords(10, 2)).ok());
}

class BulkLoadSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BulkLoadSweep, InvariantsAndQueriesHold) {
  const size_t n = GetParam();
  const std::vector<PointRecord> recs = RandomRecords(n, 500 + n);
  TreeFixture f = MakeBulkTree(recs);
  EXPECT_EQ(f.tree->num_points(), n);
  ASSERT_TRUE(f.tree->CheckInvariants().ok())
      << f.tree->CheckInvariants().ToString();

  std::vector<PointRecord> all;
  ASSERT_TRUE(f.tree->RangeSearch(Rect{{0, 0}, {10000, 10000}}, &all).ok());
  EXPECT_EQ(all.size(), n);

  testing_util::SplitMix rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    Rect box = Rect::Empty();
    box.Expand(rng.NextPoint(0, 10000));
    box.Expand(rng.NextPoint(0, 10000));
    std::vector<PointRecord> got;
    ASSERT_TRUE(f.tree->RangeSearch(box, &got).ok());
    size_t expected = 0;
    for (const PointRecord& r : recs) {
      if (box.Contains(r.pt)) ++expected;
    }
    EXPECT_EQ(got.size(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadSweep,
                         ::testing::Values<size_t>(1, 2, 29, 30, 100, 1000,
                                                   5000),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(RTreeBulkLoadTest, ProducesSameQueryResultsAsInsertion) {
  const std::vector<PointRecord> recs = RandomRecords(2000, 9);
  TreeFixture bulk = MakeBulkTree(recs);

  TreeFixture ins;
  ins.store = std::make_unique<MemPageStore>(1024);
  ins.buffer = std::make_unique<BufferManager>(1u << 16);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Create(ins.store.get(), ins.buffer.get());
  ASSERT_TRUE(tree.ok());
  ins.tree = std::move(tree.value());
  for (const PointRecord& r : recs) ASSERT_TRUE(ins.tree->Insert(r).ok());

  testing_util::SplitMix rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    Rect box = Rect::Empty();
    box.Expand(rng.NextPoint(0, 10000));
    box.Expand(rng.NextPoint(0, 10000));
    std::vector<PointRecord> a, b;
    ASSERT_TRUE(bulk.tree->RangeSearch(box, &a).ok());
    ASSERT_TRUE(ins.tree->RangeSearch(box, &b).ok());
    auto by_id = [](const PointRecord& x, const PointRecord& y) {
      return x.id < y.id;
    };
    std::sort(a.begin(), a.end(), by_id);
    std::sort(b.begin(), b.end(), by_id);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(RTreeBulkLoadTest, CustomFillFraction) {
  const std::vector<PointRecord> recs = RandomRecords(4200, 12);
  TreeFixture f = MakeBulkTree(recs, 1024);
  ASSERT_TRUE(f.tree->CheckInvariants().ok());
  // STR fills leaves to 70%: 29 of 42 points at 1 KiB pages, so 145 leaves
  // cut into ceil(sqrt(145)) = 13 slabs of 324 points. Each of the first 12
  // slabs tiles into 12 leaves (the last one short) and the 312-point last
  // slab into 11: 155 leaves.
  uint64_t leaves = 0;
  ASSERT_TRUE(f.tree
                  ->VisitLeavesDepthFirst([&](const Node&) {
                    ++leaves;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(leaves, 155u);
}

}  // namespace
}  // namespace rcj
