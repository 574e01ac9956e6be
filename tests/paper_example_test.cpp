// The running example of the paper's Figure 1: P = {p1, p2}, Q = {q1, q2};
// the RCJ result is {<p1,q1>, <p2,q1>, <p2,q2>} and <p1,q2> is excluded
// because its circle contains p2.
#include <gtest/gtest.h>

#include "core/rcj.h"
#include "test_util.h"

namespace rcj {
namespace {

using testing_util::PairIds;

class PaperFigure1 : public ::testing::Test {
 protected:
  // Coordinates chosen to match the figure's qualitative layout (domain
  // [0, 1] x [0, 1]).
  const PointRecord p1_{{0.20, 0.80}, 1};
  const PointRecord p2_{{0.45, 0.45}, 2};
  const PointRecord q1_{{0.50, 0.70}, 1};
  const PointRecord q2_{{0.80, 0.20}, 2};
  const std::vector<PointRecord> pset_{p1_, p2_};
  const std::vector<PointRecord> qset_{q1_, q2_};
};

TEST_F(PaperFigure1, BruteForceReproducesTheFigure) {
  const auto ids = PairIds(BruteForceRcj(pset_, qset_));
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_TRUE(ids.count({1, 1}) != 0) << "<p1,q1> is a result";
  EXPECT_TRUE(ids.count({2, 1}) != 0) << "<p2,q1> is a result";
  EXPECT_TRUE(ids.count({2, 2}) != 0) << "<p2,q2> is a result";
  EXPECT_TRUE(ids.count({1, 2}) == 0)
      << "<p1,q2> is not a result: its circle contains p2";
}

TEST_F(PaperFigure1, AllIndexedAlgorithmsReproduceTheFigure) {
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset_, pset_, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    QuerySpec spec;
    spec.algorithm = algorithm;
    Result<RcjRunResult> result = env.value()->Run(spec);
    ASSERT_TRUE(result.ok());
    const auto ids = PairIds(result.value().pairs);
    EXPECT_EQ(ids.size(), 3u) << AlgorithmName(algorithm);
    EXPECT_TRUE(ids.count({1, 2}) == 0) << AlgorithmName(algorithm);
  }
}

TEST_F(PaperFigure1, ExcludedPairFailsTheConstraintBecauseOfP2) {
  const Circle circle = Circle::Enclosing(p1_.pt, q2_.pt);
  EXPECT_TRUE(circle.ContainsStrict(p2_.pt))
      << "the figure's explanation: <p1,q2>'s circle contains p2";
}

TEST_F(PaperFigure1, CircleCentersAreFairMiddlemanLocations) {
  // Section 1's fairness property: the center is equidistant from both
  // facilities, at half the pair distance (minimax-optimal meeting point).
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset_, pset_, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  Result<RcjRunResult> result = env.value()->Run(QuerySpec{});
  ASSERT_TRUE(result.ok());
  for (const RcjPair& pair : result.value().pairs) {
    const Point c = pair.circle.center;
    // Equidistance holds up to midpoint rounding (~1 ulp).
    EXPECT_NEAR(Dist2(c, pair.p.pt), Dist2(c, pair.q.pt),
                1e-12 * (1.0 + Dist2(c, pair.p.pt)));
    EXPECT_NEAR(Dist(c, pair.p.pt), 0.5 * Dist(pair.p.pt, pair.q.pt), 1e-12);
  }
}

}  // namespace
}  // namespace rcj
