#include "baselines/epsilon_join.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

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

std::set<std::pair<PointId, PointId>> BruteEpsilon(
    const std::vector<PointRecord>& pset,
    const std::vector<PointRecord>& qset, double eps) {
  std::set<std::pair<PointId, PointId>> out;
  for (const PointRecord& p : pset) {
    for (const PointRecord& q : qset) {
      if (Dist2(p.pt, q.pt) <= eps * eps) out.emplace(p.id, q.id);
    }
  }
  return out;
}

class EpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonSweep, MatchesBruteForce) {
  const double eps = GetParam();
  const std::vector<PointRecord> pset = RandomRecords(400, 301);
  const std::vector<PointRecord> qset = RandomRecords(350, 302);
  Env tp = MakeTree(pset);
  Env tq = MakeTree(qset);

  std::vector<JoinPair> got;
  ASSERT_TRUE(EpsilonJoin(*tp.tree, *tq.tree, eps, &got).ok());
  std::set<std::pair<PointId, PointId>> got_ids;
  for (const JoinPair& pair : got) got_ids.emplace(pair.p.id, pair.q.id);
  EXPECT_EQ(got_ids.size(), got.size()) << "duplicate pairs";
  EXPECT_EQ(got_ids, BruteEpsilon(pset, qset, eps));
}

INSTANTIATE_TEST_SUITE_P(Radii, EpsilonSweep,
                         ::testing::Values(0.0, 50.0, 200.0, 800.0, 3000.0),
                         [](const auto& info) {
                           return "eps" +
                                  std::to_string(static_cast<int>(info.param));
                         });

TEST(EpsilonJoinTest, NegativeEpsilonIsEmpty) {
  Env tp = MakeTree(RandomRecords(50, 303));
  Env tq = MakeTree(RandomRecords(50, 304));
  std::vector<JoinPair> got;
  ASSERT_TRUE(EpsilonJoin(*tp.tree, *tq.tree, -1.0, &got).ok());
  EXPECT_TRUE(got.empty());
}

TEST(EpsilonJoinTest, ZeroEpsilonFindsCoincidentPoints) {
  std::vector<PointRecord> pset{{{5.0, 5.0}, 0}, {{9.0, 9.0}, 1}};
  std::vector<PointRecord> qset{{{5.0, 5.0}, 0}, {{1.0, 1.0}, 1}};
  Env tp = MakeTree(pset);
  Env tq = MakeTree(qset);
  std::vector<JoinPair> got;
  ASSERT_TRUE(EpsilonJoin(*tp.tree, *tq.tree, 0.0, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].p.id, 0);
  EXPECT_EQ(got[0].q.id, 0);
}

TEST(EpsilonJoinTest, TreesOfDifferentHeights) {
  // 20 vs 5000 points: heights differ, exercising the unbalanced descent.
  const std::vector<PointRecord> pset = RandomRecords(20, 305);
  const std::vector<PointRecord> qset = RandomRecords(5000, 306);
  Env tp = MakeTree(pset);
  Env tq = MakeTree(qset, 256);
  ASSERT_GT(tq.tree->height(), tp.tree->height());

  std::vector<JoinPair> got;
  ASSERT_TRUE(EpsilonJoin(*tp.tree, *tq.tree, 150.0, &got).ok());
  std::set<std::pair<PointId, PointId>> got_ids;
  for (const JoinPair& pair : got) got_ids.emplace(pair.p.id, pair.q.id);
  EXPECT_EQ(got_ids, BruteEpsilon(pset, qset, 150.0));
}

TEST(EpsilonJoinTest, EmptyTree) {
  Env tp = MakeTree({});
  Env tq = MakeTree(RandomRecords(10, 307));
  std::vector<JoinPair> got;
  ASSERT_TRUE(EpsilonJoin(*tp.tree, *tq.tree, 100.0, &got).ok());
  EXPECT_TRUE(got.empty());
}

}  // namespace
}  // namespace rcj
