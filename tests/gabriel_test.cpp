// The Gabriel oracle: RCJ(P, Q) must equal the bichromatic Gabriel edges of
// P ∪ Q. These tests cross-check three independent code paths against each
// other: definitional brute force over all pairs, Delaunay-derived Gabriel
// edges, and the R-tree OBJ pipeline.
#include "extensions/gabriel.h"

#include <gtest/gtest.h>

#include <set>

#include "core/rcj.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

using testing_util::ExpectSamePairs;

// O(n^3) definitional Gabriel edges.
std::set<std::pair<uint32_t, uint32_t>> BruteGabriel(
    const std::vector<Point>& pts) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (uint32_t i = 0; i < pts.size(); ++i) {
    for (uint32_t j = i + 1; j < pts.size(); ++j) {
      bool empty = true;
      for (uint32_t k = 0; k < pts.size(); ++k) {
        if (k == i || k == j) continue;
        if (StrictlyInsideDiametral(pts[k], pts[i], pts[j])) {
          empty = false;
          break;
        }
      }
      if (empty) out.emplace(i, j);
    }
  }
  return out;
}

TEST(GabrielTest, MatchesBruteForceDefinition) {
  for (const uint64_t seed : {70u, 71u, 72u}) {
    const std::vector<PointRecord> recs = GenerateUniform(120, seed);
    std::vector<Point> pts;
    for (const PointRecord& r : recs) pts.push_back(r.pt);
    const auto fast = GabrielEdges(pts);
    const std::set<std::pair<uint32_t, uint32_t>> fast_set(fast.begin(),
                                                           fast.end());
    EXPECT_EQ(fast_set, BruteGabriel(pts)) << "seed " << seed;
  }
}

TEST(GabrielTest, TwoPointsAlwaysConnected) {
  const auto edges = GabrielEdges({Point{0, 0}, Point{5, 5}});
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], (std::pair<uint32_t, uint32_t>{0, 1}));
}

TEST(GabrielTest, MidpointBlocksEdge) {
  // Three collinear points: the outer pair's diametral disk contains the
  // middle point.
  const auto edges = GabrielEdges({Point{0, 0}, Point{10, 0}, Point{5, 0}});
  const std::set<std::pair<uint32_t, uint32_t>> got(edges.begin(),
                                                    edges.end());
  EXPECT_TRUE(got.count({0, 2}) != 0);
  EXPECT_TRUE(got.count({1, 2}) != 0);
  EXPECT_TRUE(got.count({0, 1}) == 0);
}

TEST(GabrielTest, OracleMatchesBruteRcj) {
  for (const uint64_t seed : {73u, 74u}) {
    const std::vector<PointRecord> pset = GenerateUniform(90, seed);
    const std::vector<PointRecord> qset = GenerateUniform(110, seed + 100);
    const std::vector<RcjPair> expected = BruteForceRcj(pset, qset);
    const std::vector<RcjPair> oracle = GabrielRcj(pset, qset);
    ExpectSamePairs(oracle, expected, "gabriel vs brute");
  }
}

TEST(GabrielTest, OracleMatchesIndexedObjAtScale) {
  // The headline cross-check at a size where brute force is already slow:
  // two fully independent implementations must agree exactly.
  const std::vector<PointRecord> qset =
      MakeRealSurrogate(RealDataset::kSchools, 7, 1500);
  const std::vector<PointRecord> pset =
      MakeRealSurrogate(RealDataset::kPopulatedPlaces, 7, 1500);

  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  QuerySpec spec;
  spec.algorithm = RcjAlgorithm::kObj;
  Result<RcjRunResult> indexed = env.value()->Run(spec);
  ASSERT_TRUE(indexed.ok());

  const std::vector<RcjPair> oracle = GabrielRcj(pset, qset);
  ExpectSamePairs(indexed.value().pairs, oracle, "OBJ vs gabriel oracle");
}

TEST(GabrielTest, SelfOracleMatchesBruteSelf) {
  const std::vector<PointRecord> set = GenerateUniform(130, 75);
  const std::vector<RcjPair> expected = BruteForceRcjSelf(set);
  const std::vector<RcjPair> oracle = GabrielRcjSelf(set);
  ExpectSamePairs(oracle, expected, "self gabriel vs brute");
}

TEST(GabrielTest, ResultSizeIsLinearInInput) {
  // Paper Fig. 16b: result cardinality grows linearly with n. Gabriel
  // planarity explains why: bichromatic edges of a planar graph are O(n).
  const size_t n1 = 600;
  const size_t n2 = 1200;
  const auto r1 = GabrielRcj(GenerateUniform(n1, 80),
                             GenerateUniform(n1, 81));
  const auto r2 = GabrielRcj(GenerateUniform(n2, 82),
                             GenerateUniform(n2, 83));
  const double scale = static_cast<double>(r2.size()) /
                       static_cast<double>(r1.size());
  EXPECT_GT(scale, 1.5);
  EXPECT_LT(scale, 2.5);
}

}  // namespace
}  // namespace rcj
