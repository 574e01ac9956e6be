// Join results must be independent of the physical page size (fanout):
// sweeping page sizes from 256 B (fanout 10/6) to 4 KiB (fanout 170/102)
// exercises shallow-wide and deep-narrow trees through the same algorithms.
#include <gtest/gtest.h>

#include "core/rcj.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

using testing_util::ExpectSamePairs;

class PageSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PageSizeSweep, ResultsIndependentOfPageSize) {
  const uint32_t page_size = GetParam();
  const std::vector<PointRecord> qset = GenerateUniform(250, 81);
  const std::vector<PointRecord> pset = GenerateUniform(300, 82);
  const std::vector<RcjPair> expected = BruteForceRcj(pset, qset);

  for (const bool bulk : {true, false}) {
    RcjRunOptions options;
    options.page_size = page_size;
    options.bulk_load = bulk;
    Result<std::unique_ptr<RcjEnvironment>> env =
        RcjEnvironment::Build(qset, pset, options);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    for (const RcjAlgorithm algorithm :
         {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
      QuerySpec spec;
      spec.algorithm = algorithm;
      Result<RcjRunResult> result = env.value()->Run(spec);
      ASSERT_TRUE(result.ok());
      ExpectSamePairs(result.value().pairs, expected,
                      AlgorithmName(algorithm));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pages, PageSizeSweep,
                         ::testing::Values<uint32_t>(256, 512, 1024, 2048,
                                                     4096),
                         [](const auto& info) {
                           return "page" + std::to_string(info.param);
                         });

TEST(PageSizeTest, FanoutOneLeafTreeStillJoins) {
  // Tiny page: every leaf holds ~10 points, deep trees even for small n.
  const std::vector<PointRecord> qset = GenerateUniform(64, 83);
  const std::vector<PointRecord> pset = GenerateUniform(64, 84);
  RcjRunOptions options;
  options.page_size = 256;
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, options);
  ASSERT_TRUE(env.ok());
  Result<RcjRunResult> result = env.value()->Run(QuerySpec{});
  ASSERT_TRUE(result.ok());
  ExpectSamePairs(result.value().pairs, BruteForceRcj(pset, qset));
}

}  // namespace
}  // namespace rcj
