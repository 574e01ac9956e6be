// The Section-3 generality claim: the RCJ methodology ported to a quadtree
// must produce exactly the same join result as the R-tree pipeline and the
// brute-force oracle.
#include "quadtree/quad_rcj.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/rcj.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

using testing_util::ExpectSamePairs;

constexpr Rect kDomain{{0.0, 0.0}, {10000.0, 10000.0}};

struct Env {
  std::unique_ptr<MemPageStore> q_store;
  std::unique_ptr<MemPageStore> p_store;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<QuadTree> tq;
  std::unique_ptr<QuadTree> tp;
};

Env MakeEnv(const std::vector<PointRecord>& qset,
            const std::vector<PointRecord>& pset) {
  Env env;
  env.buffer = std::make_unique<BufferManager>(1u << 16);
  env.q_store = std::make_unique<MemPageStore>(512);
  env.p_store = std::make_unique<MemPageStore>(512);
  env.tq = std::move(
      QuadTree::Create(env.q_store.get(), env.buffer.get(), kDomain).value());
  env.tp = std::move(
      QuadTree::Create(env.p_store.get(), env.buffer.get(), kDomain).value());
  for (const PointRecord& r : qset) EXPECT_TRUE(env.tq->Insert(r).ok());
  for (const PointRecord& r : pset) EXPECT_TRUE(env.tp->Insert(r).ok());
  return env;
}

TEST(QuadFilterTest, CandidatesAreSupersetOfTruePartners) {
  const std::vector<PointRecord> pset = GenerateUniform(300, 700);
  const std::vector<PointRecord> qset = GenerateUniform(30, 701);
  Env env = MakeEnv(qset, pset);

  for (const PointRecord& q : qset) {
    std::vector<PointRecord> candidates;
    ASSERT_TRUE(
        QuadFilterCandidates(*env.tp, q.pt, kInvalidPointId, &candidates)
            .ok());
    std::set<PointId> got;
    for (const PointRecord& c : candidates) got.insert(c.id);
    for (const PointRecord& p : pset) {
      if (PairSatisfiesRingConstraint(p, q, pset, p.id, kInvalidPointId)) {
        EXPECT_TRUE(got.count(p.id) != 0)
            << "quad filter lost true partner " << p.id;
      }
    }
  }
}

class QuadRcjSweep
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(QuadRcjSweep, MatchesBruteForce) {
  const auto [n, seed] = GetParam();
  const std::vector<PointRecord> qset = GenerateUniform(n, seed);
  const std::vector<PointRecord> pset = GenerateUniform(n + 11, seed + 40);
  Env env = MakeEnv(qset, pset);

  std::vector<RcjPair> got;
  JoinStats stats;
  VectorSink sink(&got);
  ASSERT_TRUE(RunQuadRcj(*env.tq, *env.tp, &sink, &stats).ok());
  ExpectSamePairs(got, BruteForceRcj(pset, qset), "quadtree RCJ");
  EXPECT_EQ(stats.results, got.size());
  EXPECT_GE(stats.candidates, stats.results);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuadRcjSweep,
    ::testing::Combine(::testing::Values<size_t>(15, 80, 200),
                       ::testing::Values<uint64_t>(710, 711, 712)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(QuadRcjTest, AgreesWithRTreePipelineOnSkewedData) {
  const std::vector<PointRecord> qset =
      MakeRealSurrogate(RealDataset::kSchools, 9, 600);
  const std::vector<PointRecord> pset =
      MakeRealSurrogate(RealDataset::kPopulatedPlaces, 9, 800);

  Env quad_env = MakeEnv(qset, pset);
  std::vector<RcjPair> quad_pairs;
  JoinStats quad_stats;
  VectorSink quad_sink(&quad_pairs);
  ASSERT_TRUE(
      RunQuadRcj(*quad_env.tq, *quad_env.tp, &quad_sink, &quad_stats).ok());

  Result<std::unique_ptr<RcjEnvironment>> rtree_env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(rtree_env.ok());
  QuerySpec spec;
  spec.algorithm = RcjAlgorithm::kObj;
  Result<RcjRunResult> rtree_result = rtree_env.value()->Run(spec);
  ASSERT_TRUE(rtree_result.ok());

  ExpectSamePairs(quad_pairs, rtree_result.value().pairs,
                  "quadtree vs R-tree");
}

TEST(QuadRcjTest, GaussianClusters) {
  const std::vector<PointRecord> qset =
      GenerateGaussianClusters(150, 3, 800.0, 720);
  const std::vector<PointRecord> pset =
      GenerateGaussianClusters(180, 3, 800.0, 721);
  Env env = MakeEnv(qset, pset);
  std::vector<RcjPair> got;
  JoinStats stats;
  VectorSink sink(&got);
  ASSERT_TRUE(RunQuadRcj(*env.tq, *env.tp, &sink, &stats).ok());
  ExpectSamePairs(got, BruteForceRcj(pset, qset), "quadtree RCJ gaussian");
}

TEST(QuadRcjTest, EmptySides) {
  Env env = MakeEnv({}, GenerateUniform(20, 722));
  std::vector<RcjPair> got;
  JoinStats stats;
  VectorSink sink(&got);
  ASSERT_TRUE(RunQuadRcj(*env.tq, *env.tp, &sink, &stats).ok());
  EXPECT_TRUE(got.empty());
}

TEST(QuadRcjTest, SinkEarlyTerminationYieldsSerialPrefix) {
  const std::vector<PointRecord> qset = GenerateUniform(120, 730);
  const std::vector<PointRecord> pset = GenerateUniform(150, 731);
  Env env = MakeEnv(qset, pset);

  std::vector<RcjPair> full;
  JoinStats full_stats;
  VectorSink full_sink(&full);
  ASSERT_TRUE(RunQuadRcj(*env.tq, *env.tp, &full_sink, &full_stats).ok());
  ASSERT_GT(full.size(), 4u);

  const uint64_t k = 3;
  std::vector<RcjPair> prefix;
  JoinStats prefix_stats;
  VectorSink collect(&prefix);
  LimitSink limited(&collect, k);
  ASSERT_TRUE(RunQuadRcj(*env.tq, *env.tp, &limited, &prefix_stats).ok());

  ASSERT_EQ(prefix.size(), k);
  EXPECT_EQ(prefix_stats.results, k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(prefix[i].p.id, full[i].p.id) << "prefix mismatch at " << i;
    EXPECT_EQ(prefix[i].q.id, full[i].q.id) << "prefix mismatch at " << i;
  }
  EXPECT_LT(prefix_stats.candidates, full_stats.candidates)
      << "early termination must stop the traversal, not just the output";
}

}  // namespace
}  // namespace rcj
