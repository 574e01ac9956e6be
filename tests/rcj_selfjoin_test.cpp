// Self-join (paper's postbox scenario: P joined with itself) correctness:
// identity pairs excluded, each unordered pair reported once, equivalence
// with the brute-force self oracle.
#include <gtest/gtest.h>

#include "core/rcj.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

using testing_util::ExpectSamePairs;
using testing_util::PairIds;

class SelfJoinSweep
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t, bool>> {};

TEST_P(SelfJoinSweep, MatchesBruteForceSelfOracle) {
  const auto [n, seed, bulk] = GetParam();
  const std::vector<PointRecord> set = GenerateUniform(n, seed);
  const std::vector<RcjPair> expected = BruteForceRcjSelf(set);

  RcjRunOptions options;
  options.page_size = 512;
  options.bulk_load = bulk;
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::BuildSelf(set, options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    QuerySpec spec;
    spec.algorithm = algorithm;
    Result<RcjRunResult> result = env.value()->Run(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSamePairs(result.value().pairs, expected, AlgorithmName(algorithm));

    for (const RcjPair& pair : result.value().pairs) {
      EXPECT_LT(pair.p.id, pair.q.id)
          << "self-join pairs must be normalized p.id < q.id";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelfJoinSweep,
    ::testing::Combine(::testing::Values<size_t>(2, 10, 80, 200),
                       ::testing::Values<uint64_t>(5, 6),
                       ::testing::Bool()),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_bulk" : "_insert");
    });

TEST(SelfJoinTest, TwoPointsAlwaysJoin) {
  const std::vector<PointRecord> set{{{0.0, 0.0}, 0}, {{10.0, 0.0}, 1}};
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::BuildSelf(set, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  Result<RcjRunResult> result = env.value()->Run(QuerySpec{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().pairs.size(), 1u);
  EXPECT_EQ(result.value().pairs[0].p.id, 0);
  EXPECT_EQ(result.value().pairs[0].q.id, 1);
  EXPECT_EQ(result.value().pairs[0].circle.center, (Point{5.0, 0.0}));
}

TEST(SelfJoinTest, GabrielGraphDegreeBound) {
  // Gabriel graphs are planar: |edges| <= 3n - 6. The self-RCJ result is
  // exactly the Gabriel edge set, so the bound must hold.
  const std::vector<PointRecord> set = GenerateUniform(300, 9);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::BuildSelf(set, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  Result<RcjRunResult> result = env.value()->Run(QuerySpec{});
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().pairs.size(), 3 * set.size() - 6);
  EXPECT_GE(result.value().pairs.size(), set.size() - 1)
      << "the Gabriel graph is connected, so at least a spanning tree";
}

TEST(SelfJoinTest, SquareWithCenter) {
  // Square corners + center: corner-corner diagonals are blocked by the
  // center; corner-center and corner-adjacent-corner pairs qualify.
  const std::vector<PointRecord> set{{{0.0, 0.0}, 0},
                                     {{2.0, 0.0}, 1},
                                     {{2.0, 2.0}, 2},
                                     {{0.0, 2.0}, 3},
                                     {{1.0, 1.0}, 4}};
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::BuildSelf(set, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  Result<RcjRunResult> result = env.value()->Run(QuerySpec{});
  ASSERT_TRUE(result.ok());
  const auto ids = PairIds(result.value().pairs);
  EXPECT_TRUE(ids.count({0, 4}) != 0);
  EXPECT_TRUE(ids.count({1, 4}) != 0);
  EXPECT_TRUE(ids.count({2, 4}) != 0);
  EXPECT_TRUE(ids.count({3, 4}) != 0);
  EXPECT_TRUE(ids.count({0, 2}) == 0) << "diagonal blocked by center";
  EXPECT_TRUE(ids.count({1, 3}) == 0) << "diagonal blocked by center";
  // Adjacent corners: circle diameter = side, center point is at distance
  // 1 from the side midpoint = radius -> boundary, not strictly inside.
  EXPECT_TRUE(ids.count({0, 1}) != 0);
  EXPECT_TRUE(ids.count({1, 2}) != 0);
  EXPECT_TRUE(ids.count({2, 3}) != 0);
  EXPECT_TRUE(ids.count({0, 3}) != 0);
}

}  // namespace
}  // namespace rcj
