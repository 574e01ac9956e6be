// Tests for the high-level runner: environment assembly, cold-start
// statistics, the paper's cost accounting, and buffer-size effects.
#include "core/runner.h"

#include <gtest/gtest.h>

#include "core/rcj.h"
#include "engine/engine.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

TEST(RunnerTest, StatsAreInternallyConsistent) {
  const std::vector<PointRecord> qset = GenerateUniform(2000, 50);
  const std::vector<PointRecord> pset = GenerateUniform(2000, 51);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  QuerySpec spec;
  spec.algorithm = RcjAlgorithm::kObj;
  Result<RcjRunResult> result = env.value()->Run(spec);
  ASSERT_TRUE(result.ok());
  const JoinStats& stats = result.value().stats;

  EXPECT_EQ(stats.results, result.value().pairs.size());
  EXPECT_GE(stats.candidates, stats.results);
  EXPECT_GT(stats.node_accesses, 0u);
  EXPECT_GE(stats.node_accesses, stats.page_faults)
      << "every fault is a logical access";
  // The paper's cost model: I/O seconds = faults x 10 ms.
  EXPECT_DOUBLE_EQ(stats.io_seconds,
                   static_cast<double>(stats.page_faults) * 0.010);
  EXPECT_GT(stats.cpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.total_seconds(),
                   stats.io_seconds + stats.cpu_seconds);
}

TEST(RunnerTest, CustomIoChargeIsApplied) {
  const std::vector<PointRecord> set = GenerateUniform(500, 52);
  RcjRunOptions options;
  options.buffer_fraction = 0.001;  // force faults
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(set, set, options);
  ASSERT_TRUE(env.ok());
  QuerySpec spec = QuerySpec::For(env.value().get());
  spec.io_ms_per_fault = 1.0;

  // The charge is per query, so the serial runner and the engine (whose
  // worker pools are sized like the environment's buffer) both apply it.
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.worker_buffer_fraction = options.buffer_fraction;
  Engine engine(engine_options);
  const Result<RcjRunResult> runs[] = {env.value()->Run(spec),
                                       engine.Run(spec)};
  for (const Result<RcjRunResult>& result : runs) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result.value().stats.page_faults, 0u);
    EXPECT_DOUBLE_EQ(result.value().stats.io_seconds,
                     static_cast<double>(result.value().stats.page_faults) *
                         0.001);
  }
}

TEST(RunnerTest, RunsAreColdAndReproducible) {
  const std::vector<PointRecord> qset = GenerateUniform(1500, 53);
  const std::vector<PointRecord> pset = GenerateUniform(1500, 54);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  Result<RcjRunResult> first = env.value()->Run(QuerySpec{});
  ASSERT_TRUE(first.ok());
  Result<RcjRunResult> second = env.value()->Run(QuerySpec{});
  ASSERT_TRUE(second.ok());
  // Cold start each time: identical fault counts and node accesses.
  EXPECT_EQ(first.value().stats.page_faults,
            second.value().stats.page_faults);
  EXPECT_EQ(first.value().stats.node_accesses,
            second.value().stats.node_accesses);
  EXPECT_EQ(first.value().pairs.size(), second.value().pairs.size());
}

TEST(RunnerTest, LargerBufferMeansFewerFaults) {
  const std::vector<PointRecord> qset = GenerateUniform(3000, 55);
  const std::vector<PointRecord> pset = GenerateUniform(3000, 56);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  QuerySpec spec;
  spec.algorithm = RcjAlgorithm::kInj;

  ASSERT_TRUE(env.value()->SetBufferFraction(0.002).ok());
  Result<RcjRunResult> small = env.value()->Run(spec);
  ASSERT_TRUE(small.ok());

  ASSERT_TRUE(env.value()->SetBufferFraction(0.5).ok());
  Result<RcjRunResult> large = env.value()->Run(spec);
  ASSERT_TRUE(large.ok());

  EXPECT_LT(large.value().stats.page_faults,
            small.value().stats.page_faults);
  // Results are buffer-independent.
  EXPECT_EQ(large.value().pairs.size(), small.value().pairs.size());
}

TEST(RunnerTest, BruteAlgorithmViaRunnerMatchesIndexed) {
  const std::vector<PointRecord> qset = GenerateUniform(80, 57);
  const std::vector<PointRecord> pset = GenerateUniform(90, 58);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  QuerySpec spec;
  spec.algorithm = RcjAlgorithm::kBrute;
  Result<RcjRunResult> brute = env.value()->Run(spec);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(brute.value().stats.candidates, 80u * 90u)
      << "BRUTE examines the whole Cartesian product (Table 4)";

  spec.algorithm = RcjAlgorithm::kObj;
  Result<RcjRunResult> obj = env.value()->Run(spec);
  ASSERT_TRUE(obj.ok());
  testing_util::ExpectSamePairs(obj.value().pairs, brute.value().pairs);
  EXPECT_LT(obj.value().stats.candidates, brute.value().stats.candidates);
}

TEST(RunnerTest, CandidateOrderingMatchesTable4) {
  // Table 4's ranking on skewed data: OBJ < INJ < BIJ << BRUTE.
  const std::vector<PointRecord> qset =
      MakeRealSurrogate(RealDataset::kSchools, 3, 3000);
  const std::vector<PointRecord> pset =
      MakeRealSurrogate(RealDataset::kPopulatedPlaces, 3, 3000);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  uint64_t candidates[3] = {0, 0, 0};
  const RcjAlgorithm algorithms[3] = {RcjAlgorithm::kInj, RcjAlgorithm::kBij,
                                      RcjAlgorithm::kObj};
  for (int i = 0; i < 3; ++i) {
    QuerySpec spec;
    spec.algorithm = algorithms[i];
    Result<RcjRunResult> result = env.value()->Run(spec);
    ASSERT_TRUE(result.ok());
    candidates[i] = result.value().stats.candidates;
  }
  const uint64_t inj = candidates[0], bij = candidates[1],
                 obj = candidates[2];
  EXPECT_LT(obj, inj) << "OBJ prunes hardest";
  EXPECT_GT(bij, inj) << "BIJ trades candidates for fewer traversals";
  EXPECT_LT(inj, 3000ull * 3000ull) << "all far below BRUTE";
}

TEST(RunnerTest, NormalizePairsSortsByQThenP) {
  std::vector<RcjPair> pairs;
  pairs.push_back(RcjPair::Make(PointRecord{{0, 0}, 5},
                                PointRecord{{1, 0}, 2}));
  pairs.push_back(RcjPair::Make(PointRecord{{0, 0}, 1},
                                PointRecord{{1, 0}, 2}));
  pairs.push_back(RcjPair::Make(PointRecord{{0, 0}, 9},
                                PointRecord{{1, 0}, 1}));
  NormalizePairs(&pairs);
  EXPECT_EQ(pairs[0].q.id, 1);
  EXPECT_EQ(pairs[1].p.id, 1);
  EXPECT_EQ(pairs[2].p.id, 5);
}

}  // namespace
}  // namespace rcj
