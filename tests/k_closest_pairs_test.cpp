#include "baselines/k_closest_pairs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "test_util.h"

namespace rcj {
namespace {

using testing_util::RandomRecords;

struct Env {
  std::unique_ptr<MemPageStore> store;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RTree> tree;
};

Env MakeTree(const std::vector<PointRecord>& recs, uint32_t page_size = 512) {
  Env env;
  env.store = std::make_unique<MemPageStore>(page_size);
  env.buffer = std::make_unique<BufferManager>(1u << 16);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Create(env.store.get(), env.buffer.get());
  EXPECT_TRUE(tree.ok());
  env.tree = std::move(tree.value());
  for (const PointRecord& r : recs) EXPECT_TRUE(env.tree->Insert(r).ok());
  return env;
}

std::vector<double> BruteSortedPairDistances(
    const std::vector<PointRecord>& pset,
    const std::vector<PointRecord>& qset) {
  std::vector<double> dists;
  dists.reserve(pset.size() * qset.size());
  for (const PointRecord& p : pset) {
    for (const PointRecord& q : qset) {
      dists.push_back(Dist2(p.pt, q.pt));
    }
  }
  std::sort(dists.begin(), dists.end());
  return dists;
}

class KcpSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(KcpSweep, MatchesBruteForceDistances) {
  const size_t k = GetParam();
  const std::vector<PointRecord> pset = RandomRecords(150, 401);
  const std::vector<PointRecord> qset = RandomRecords(120, 402);
  Env tp = MakeTree(pset);
  Env tq = MakeTree(qset);

  std::vector<JoinPair> got;
  ASSERT_TRUE(KClosestPairs(*tp.tree, *tq.tree, k, &got).ok());
  const std::vector<double> expected = BruteSortedPairDistances(pset, qset);
  const size_t expected_count = std::min(k, expected.size());
  ASSERT_EQ(got.size(), expected_count);

  double prev = -1.0;
  for (size_t i = 0; i < got.size(); ++i) {
    const double d = Dist2(got[i].p.pt, got[i].q.pt);
    EXPECT_GE(d, prev) << "pairs must come in ascending distance";
    EXPECT_DOUBLE_EQ(d, expected[i]) << "i=" << i;
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KcpSweep,
                         ::testing::Values<size_t>(1, 5, 64, 1000, 18000,
                                                   100000),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(KClosestPairsTest, ZeroKIsEmpty) {
  Env tp = MakeTree(RandomRecords(20, 403));
  Env tq = MakeTree(RandomRecords(20, 404));
  std::vector<JoinPair> got;
  ASSERT_TRUE(KClosestPairs(*tp.tree, *tq.tree, 0, &got).ok());
  EXPECT_TRUE(got.empty());
}

TEST(KClosestPairsTest, CoincidentPointsComeFirst) {
  std::vector<PointRecord> pset{{{5.0, 5.0}, 0}, {{100.0, 100.0}, 1}};
  std::vector<PointRecord> qset{{{5.0, 5.0}, 0}, {{300.0, 300.0}, 1}};
  Env tp = MakeTree(pset);
  Env tq = MakeTree(qset);
  std::vector<JoinPair> got;
  ASSERT_TRUE(KClosestPairs(*tp.tree, *tq.tree, 1, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].p.id, 0);
  EXPECT_EQ(got[0].q.id, 0);
}

TEST(KClosestPairsTest, UnbalancedTreeHeights) {
  const std::vector<PointRecord> pset = RandomRecords(10, 405);
  const std::vector<PointRecord> qset = RandomRecords(3000, 406);
  Env tp = MakeTree(pset);
  Env tq = MakeTree(qset, 256);
  std::vector<JoinPair> got;
  ASSERT_TRUE(KClosestPairs(*tp.tree, *tq.tree, 40, &got).ok());
  const std::vector<double> expected = BruteSortedPairDistances(pset, qset);
  ASSERT_EQ(got.size(), 40u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(Dist2(got[i].p.pt, got[i].q.pt), expected[i]);
  }
}

}  // namespace
}  // namespace rcj
