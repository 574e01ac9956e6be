#include "extensions/cost_estimator.h"

#include <gtest/gtest.h>

#include "core/rcj.h"
#include "workload/generator.h"

namespace rcj {
namespace {

TEST(CostEstimatorTest, FitSolvesTwoPointSystemExactly) {
  // Synthetic truth: accesses/query = 5 + 3*height.
  CostSample s1{1000, 2, 1000 * (5 + 3 * 2)};
  CostSample s2{4000, 4, 4000 * (5 + 3 * 4)};
  const CostModelFit fit = FitCostModel(s1, s2);
  EXPECT_NEAR(fit.a, 5.0, 1e-9);
  EXPECT_NEAR(fit.b, 3.0, 1e-9);
  EXPECT_NEAR(PredictNodeAccesses(fit, 10000, 5), 10000.0 * 20.0, 1e-6);
}

TEST(CostEstimatorTest, EqualHeightsDegradeToConstantModel) {
  CostSample s1{1000, 3, 12000};
  CostSample s2{2000, 3, 26000};
  const CostModelFit fit = FitCostModel(s1, s2);
  EXPECT_DOUBLE_EQ(fit.b, 0.0);
  EXPECT_NEAR(fit.a, 12.5, 1e-9);  // mean of 12 and 13 per query
}

TEST(CostEstimatorTest, PredictionWithinToleranceOnRealRuns) {
  auto measure = [](size_t n, uint64_t seed) {
    const auto qset = GenerateUniform(n, seed);
    const auto pset = GenerateUniform(n, seed + 1);
    RcjRunOptions options;
    options.buffer_fraction = 1.0;
    auto env = RcjEnvironment::Build(qset, pset, options);
    EXPECT_TRUE(env.ok());
    QuerySpec spec;
    spec.algorithm = RcjAlgorithm::kInj;
    auto run = env.value()->Run(spec);
    EXPECT_TRUE(run.ok());
    CostSample sample;
    sample.q_size = n;
    sample.tp_height = env.value()->tp().height();
    sample.node_accesses = run.value().stats.node_accesses;
    return sample;
  };

  const CostSample s1 = measure(1000, 11);
  const CostSample s2 = measure(8000, 12);
  const CostModelFit fit = FitCostModel(s1, s2);
  ASSERT_TRUE(fit.valid());

  const CostSample target = measure(20000, 13);
  const double predicted =
      PredictNodeAccesses(fit, target.q_size, target.tp_height);
  const double ratio =
      predicted / static_cast<double>(target.node_accesses);
  EXPECT_GT(ratio, 0.7) << "prediction too low";
  EXPECT_LT(ratio, 1.4) << "prediction too high";
}

}  // namespace
}  // namespace rcj
