#include "baselines/knn_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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

Env MakeTree(const std::vector<PointRecord>& recs) {
  Env env;
  env.store = std::make_unique<MemPageStore>(512);
  env.buffer = std::make_unique<BufferManager>(1u << 16);
  Result<std::unique_ptr<RTree>> tree =
      RTree::Create(env.store.get(), env.buffer.get());
  EXPECT_TRUE(tree.ok());
  env.tree = std::move(tree.value());
  for (const PointRecord& r : recs) EXPECT_TRUE(env.tree->Insert(r).ok());
  return env;
}

class KnnJoinSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(KnnJoinSweep, EveryPGetsItsTrueNeighbors) {
  const size_t k = GetParam();
  const std::vector<PointRecord> pset = RandomRecords(120, 501);
  const std::vector<PointRecord> qset = RandomRecords(200, 502);
  Env tp = MakeTree(pset);
  Env tq = MakeTree(qset);

  std::vector<JoinPair> got;
  ASSERT_TRUE(KnnJoin(*tp.tree, *tq.tree, k, &got).ok());
  EXPECT_EQ(got.size(), k * pset.size()) << "result size is k * |P|";

  // Group by p and compare neighbor distance multisets with brute force.
  std::map<PointId, std::vector<double>> by_p;
  for (const JoinPair& pair : got) {
    by_p[pair.p.id].push_back(Dist2(pair.p.pt, pair.q.pt));
  }
  ASSERT_EQ(by_p.size(), pset.size());
  for (const PointRecord& p : pset) {
    std::vector<double> expected;
    for (const PointRecord& q : qset) expected.push_back(Dist2(p.pt, q.pt));
    std::sort(expected.begin(), expected.end());
    expected.resize(k);
    std::vector<double>& actual = by_p[p.id];
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(actual.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_DOUBLE_EQ(actual[i], expected[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnJoinSweep, ::testing::Values<size_t>(1, 3, 10),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(KnnJoinTest, ZeroKIsEmpty) {
  Env tp = MakeTree(RandomRecords(10, 503));
  Env tq = MakeTree(RandomRecords(10, 504));
  std::vector<JoinPair> got;
  ASSERT_TRUE(KnnJoin(*tp.tree, *tq.tree, 0, &got).ok());
  EXPECT_TRUE(got.empty());
}

TEST(KnnJoinTest, KLargerThanQCapsAtQ) {
  const std::vector<PointRecord> pset = RandomRecords(5, 505);
  const std::vector<PointRecord> qset = RandomRecords(3, 506);
  Env tp = MakeTree(pset);
  Env tq = MakeTree(qset);
  std::vector<JoinPair> got;
  ASSERT_TRUE(KnnJoin(*tp.tree, *tq.tree, 10, &got).ok());
  EXPECT_EQ(got.size(), pset.size() * qset.size());
}

TEST(KnnJoinTest, AsymmetryMatchesPaperTable1) {
  // The k-NN join is directional: swapping P and Q changes the result.
  std::vector<PointRecord> pset{{{0.0, 0.0}, 0}, {{10.0, 0.0}, 1}};
  std::vector<PointRecord> qset{{{1.0, 0.0}, 0}, {{2.0, 0.0}, 1}};
  Env tp = MakeTree(pset);
  Env tq = MakeTree(qset);

  std::vector<JoinPair> forward;
  ASSERT_TRUE(KnnJoin(*tp.tree, *tq.tree, 1, &forward).ok());
  std::vector<JoinPair> backward;
  ASSERT_TRUE(KnnJoin(*tq.tree, *tp.tree, 1, &backward).ok());

  // Forward: each p finds its nearest q -> pairs (p0,q0), (p1,q1).
  // Backward: each q finds its nearest p -> both pick p0.
  EXPECT_EQ(forward.size(), 2u);
  EXPECT_EQ(backward.size(), 2u);
  for (const JoinPair& pair : backward) {
    EXPECT_EQ(pair.q.id, 0) << "both q's nearest P-point is p0";
  }
}

}  // namespace
}  // namespace rcj
