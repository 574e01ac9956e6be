// End-to-end equivalence of the indexed RCJ algorithms (INJ, BIJ, OBJ)
// against the brute-force oracle, swept over data distributions, sizes,
// page sizes, tree construction methods and search orders (paper Lemma 4:
// no false negatives, no false positives, no duplicates).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/rcj.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

using testing_util::ExpectSamePairs;
using testing_util::PairIds;

enum class Distribution { kUniform, kGaussian, kSkewedSurrogate };

std::vector<PointRecord> MakeData(Distribution dist, size_t n,
                                  uint64_t seed) {
  switch (dist) {
    case Distribution::kUniform:
      return GenerateUniform(n, seed);
    case Distribution::kGaussian:
      return GenerateGaussianClusters(n, 4, 1000.0, seed);
    case Distribution::kSkewedSurrogate:
      return MakeRealSurrogate(RealDataset::kPopulatedPlaces, seed, n);
  }
  return {};
}

const char* DistName(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "Uniform";
    case Distribution::kGaussian:
      return "Gaussian";
    case Distribution::kSkewedSurrogate:
      return "Skewed";
  }
  return "?";
}

using SweepParam =
    std::tuple<Distribution, size_t /*n*/, uint64_t /*seed*/, bool /*bulk*/>;

class RcjEquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RcjEquivalenceSweep, IndexedAlgorithmsMatchBruteForce) {
  const auto [dist, n, seed, bulk] = GetParam();
  const std::vector<PointRecord> qset = MakeData(dist, n, seed);
  const std::vector<PointRecord> pset = MakeData(dist, n + n / 3, seed + 17);

  RcjRunOptions options;
  options.page_size = 512;  // low fanout: more tree levels exercised
  options.bulk_load = bulk;
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  const std::vector<RcjPair> expected = BruteForceRcj(pset, qset);

  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    QuerySpec spec;
    spec.algorithm = algorithm;
    Result<RcjRunResult> result = env.value()->Run(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSamePairs(result.value().pairs, expected,
                    AlgorithmName(algorithm));
    EXPECT_EQ(result.value().stats.results, result.value().pairs.size());
    EXPECT_GE(result.value().stats.candidates,
              result.value().stats.results)
        << "verification can only shrink the candidate set";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RcjEquivalenceSweep,
    ::testing::Combine(::testing::Values(Distribution::kUniform,
                                         Distribution::kGaussian,
                                         Distribution::kSkewedSurrogate),
                       ::testing::Values<size_t>(12, 60, 150),
                       ::testing::Values<uint64_t>(1, 2),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(DistName(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_bulk" : "_insert");
    });

TEST(RcjCorrectnessTest, PaperFigure1Semantics) {
  // Degenerate and small configurations.
  const std::vector<PointRecord> pset{{{1.0, 1.0}, 0}};
  const std::vector<PointRecord> qset{{{2.0, 2.0}, 0}};
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  Result<RcjRunResult> result = env.value()->Run(QuerySpec{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().pairs.size(), 1u)
      << "a single pair with no other points always joins";
  EXPECT_EQ(result.value().pairs[0].circle.center, (Point{1.5, 1.5}));
}

TEST(RcjCorrectnessTest, EmptyInputs) {
  const std::vector<PointRecord> empty;
  const std::vector<PointRecord> one{{{1.0, 1.0}, 0}};
  Result<std::unique_ptr<RcjEnvironment>> empty_q =
      RcjEnvironment::Build(empty, one, RcjRunOptions{});
  ASSERT_TRUE(empty_q.ok());
  Result<std::unique_ptr<RcjEnvironment>> empty_p =
      RcjEnvironment::Build(one, empty, RcjRunOptions{});
  ASSERT_TRUE(empty_p.ok());
  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    QuerySpec spec;
    spec.algorithm = algorithm;
    Result<RcjRunResult> r1 = empty_q.value()->Run(spec);
    ASSERT_TRUE(r1.ok());
    EXPECT_TRUE(r1.value().pairs.empty());
    Result<RcjRunResult> r2 = empty_p.value()->Run(spec);
    ASSERT_TRUE(r2.ok());
    EXPECT_TRUE(r2.value().pairs.empty());
  }
}

TEST(RcjCorrectnessTest, CollinearPoints) {
  // Collinear configurations exercise the open-halfplane boundary cases.
  std::vector<PointRecord> pset;
  std::vector<PointRecord> qset;
  for (int i = 0; i < 8; ++i) {
    pset.push_back(PointRecord{{static_cast<double>(2 * i), 0.0}, i});
    qset.push_back(PointRecord{{static_cast<double>(2 * i + 1), 0.0}, i});
  }
  const std::vector<RcjPair> expected = BruteForceRcj(pset, qset);
  RcjRunOptions options;
  options.page_size = 256;
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, options);
  ASSERT_TRUE(env.ok());
  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    QuerySpec spec;
    spec.algorithm = algorithm;
    Result<RcjRunResult> result = env.value()->Run(spec);
    ASSERT_TRUE(result.ok());
    ExpectSamePairs(result.value().pairs, expected, AlgorithmName(algorithm));
  }
}

TEST(RcjCorrectnessTest, CoincidentPointsAcrossDatasets) {
  // Points of P and Q at identical coordinates: the coincident "other"
  // point lies on the circle boundary, so under the open-disk convention it
  // does not invalidate pairs; brute force and indexed runs must agree.
  std::vector<PointRecord> pset{
      {{10.0, 10.0}, 0}, {{20.0, 10.0}, 1}, {{15.0, 18.0}, 2}};
  std::vector<PointRecord> qset{
      {{10.0, 10.0}, 0}, {{30.0, 10.0}, 1}, {{15.0, 18.0}, 2}};
  const std::vector<RcjPair> expected = BruteForceRcj(pset, qset);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    QuerySpec spec;
    spec.algorithm = algorithm;
    Result<RcjRunResult> result = env.value()->Run(spec);
    ASSERT_TRUE(result.ok());
    ExpectSamePairs(result.value().pairs, expected, AlgorithmName(algorithm));
  }
}

TEST(RcjCorrectnessTest, RandomLeafOrderProducesIdenticalResults) {
  const std::vector<PointRecord> qset = GenerateUniform(120, 31);
  const std::vector<PointRecord> pset = GenerateUniform(150, 32);
  const std::vector<RcjPair> expected = BruteForceRcj(pset, qset);

  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  QuerySpec spec;
  spec.order = SearchOrder::kRandom;
  spec.random_seed = 123;
  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    spec.algorithm = algorithm;
    Result<RcjRunResult> result = env.value()->Run(spec);
    ASSERT_TRUE(result.ok());
    ExpectSamePairs(result.value().pairs, expected, AlgorithmName(algorithm));
  }
}

TEST(RcjCorrectnessTest, ResultsAdaptToLocalDensityAndIgnoreGlobalDistance) {
  // The paper's second key property (Section 1): RCJ results adapt to
  // local density and obey no global distance constraint — exactly like
  // <p2, q1> in Fig. 1, a far-apart pair can qualify.
  std::vector<PointRecord> pset{{{0.0, 0.0}, 0}, {{5000.0, 5000.0}, 1}};
  std::vector<PointRecord> qset{{{1.0, 0.0}, 0}, {{5001.0, 5000.0}, 1}};
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  Result<RcjRunResult> result = env.value()->Run(QuerySpec{});
  ASSERT_TRUE(result.ok());
  const auto ids = PairIds(result.value().pairs);
  EXPECT_TRUE(ids.count({0, 0}) != 0) << "dense pair (radius 0.5)";
  EXPECT_TRUE(ids.count({1, 1}) != 0) << "dense pair far away";
  // <p0, q1>'s circle strictly contains p1 (and q0): not a result.
  EXPECT_TRUE(ids.count({0, 1}) == 0);
  // <p1, q0>'s circle passes *through the far side* of both other points:
  // they lie just outside, so this 7km-wide pair IS a result — no global
  // distance bound (cf. Fig. 1's <p2, q1>).
  EXPECT_TRUE(ids.count({1, 0}) != 0);
  // And its circle radius reflects the sparse region it spans.
  for (const RcjPair& pair : result.value().pairs) {
    if (pair.p.id == 1 && pair.q.id == 0) {
      EXPECT_GT(pair.circle.Radius(), 3000.0);
    }
  }
}

TEST(RcjCorrectnessTest, VerificationDisabledYieldsSuperset) {
  const std::vector<PointRecord> qset = GenerateUniform(100, 41);
  const std::vector<PointRecord> pset = GenerateUniform(100, 42);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  QuerySpec spec;
  spec.algorithm = RcjAlgorithm::kInj;
  Result<RcjRunResult> verified = env.value()->Run(spec);
  ASSERT_TRUE(verified.ok());
  spec.verify = false;
  Result<RcjRunResult> unverified = env.value()->Run(spec);
  ASSERT_TRUE(unverified.ok());

  const auto verified_ids = PairIds(verified.value().pairs);
  const auto unverified_ids = PairIds(unverified.value().pairs);
  EXPECT_GE(unverified_ids.size(), verified_ids.size());
  for (const auto& id : verified_ids) {
    EXPECT_TRUE(unverified_ids.count(id) != 0);
  }
}

}  // namespace
}  // namespace rcj
