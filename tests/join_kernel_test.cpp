// Golden constants for the index-join kernel: INJ, BIJ and OBJ over
// {two-set, self-join} x {static, live overlay} x {depth-first, random}.
// Each case pins a StableHash of the serial-order PAIR stream (the wire's
// FormatPairLine bytes, one line per pair) together with the serial
// runner's candidate, node-access and page-fault counts, so any change to
// the filter, the grouping of T_Q's points, the verification or the
// emission order shows up here. The engine must reproduce the serial hash
// at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/stable_hash.h"
#include "core/delta_overlay.h"
#include "core/runner.h"
#include "engine/engine.h"
#include "net/protocol.h"
#include "test_util.h"

namespace rcj {
namespace {

using testing_util::RandomRecords;
using testing_util::SplitMix;

constexpr size_t kPoints = 3000;
constexpr size_t kMutations = 24;  // inserts and tombstones per dataset

struct GoldenCase {
  RcjAlgorithm algorithm;
  bool self_join;
  bool live;
  SearchOrder order;
  uint64_t hash;
  uint64_t results;
  uint64_t candidates;
  uint64_t node_accesses;
  uint64_t page_faults;
};

// Recorded when INJ and BIJ/OBJ still ran as separate kernels; every
// value must stay identical across refactors of the one kernel. The live
// cases' candidates, node accesses and page faults were re-pinned, each
// lower, when the delta-P filter started pruning with q's tree candidates;
// their hashes and results did not change.
const GoldenCase kGolden[] = {
    // clang-format off
    {RcjAlgorithm::kInj, false, false, SearchOrder::kDepthFirst,
     0x976ef6e1eb9cc07eull, 5796, 12933, 58537, 2883},
    {RcjAlgorithm::kInj, false, false, SearchOrder::kRandom,
     0xcfa4f4939adc86d4ull, 5796, 12933, 58537, 5214},
    {RcjAlgorithm::kInj, false, true, SearchOrder::kDepthFirst,
     0x4af60f6285b94b43ull, 5806, 13034, 58647, 3132},
    {RcjAlgorithm::kInj, false, true, SearchOrder::kRandom,
     0x664682c07a0c81f7ull, 5806, 13034, 58647, 5447},
    {RcjAlgorithm::kInj, true, false, SearchOrder::kDepthFirst,
     0xb28a65c032512524ull, 5849, 6427, 40998, 1037},
    {RcjAlgorithm::kInj, true, false, SearchOrder::kRandom,
     0x49259b54fd751041ull, 5849, 6427, 40998, 2886},
    {RcjAlgorithm::kInj, true, true, SearchOrder::kDepthFirst,
     0x1ae9dfc4a0e6548bull, 5846, 6480, 41083, 1131},
    {RcjAlgorithm::kInj, true, true, SearchOrder::kRandom,
     0x5ea877c27da17018ull, 5846, 6480, 41083, 2989},
    {RcjAlgorithm::kBij, false, false, SearchOrder::kDepthFirst,
     0xb52577e3424075acull, 5796, 18462, 8576, 3686},
    {RcjAlgorithm::kBij, false, false, SearchOrder::kRandom,
     0x096bebce4511bdccull, 5796, 18462, 8576, 5750},
    {RcjAlgorithm::kBij, false, true, SearchOrder::kDepthFirst,
     0x77de76ae91110262ull, 5806, 18479, 9053, 3928},
    {RcjAlgorithm::kBij, false, true, SearchOrder::kRandom,
     0x0616da6c65649bd6ull, 5806, 18479, 9053, 6000},
    {RcjAlgorithm::kBij, true, false, SearchOrder::kDepthFirst,
     0x98fe98abf481beb3ull, 5849, 9212, 6790, 985},
    {RcjAlgorithm::kBij, true, false, SearchOrder::kRandom,
     0xf4854d08b335aa65ull, 5849, 9212, 6790, 2861},
    {RcjAlgorithm::kBij, true, true, SearchOrder::kDepthFirst,
     0x94c10f1fdf5af081ull, 5846, 9230, 7149, 1085},
    {RcjAlgorithm::kBij, true, true, SearchOrder::kRandom,
     0x9063e0e2752d7812ull, 5846, 9230, 7149, 2964},
    {RcjAlgorithm::kObj, false, false, SearchOrder::kDepthFirst,
     0xb52577e3424075acull, 5796, 9212, 8312, 3171},
    {RcjAlgorithm::kObj, false, false, SearchOrder::kRandom,
     0x096bebce4511bdccull, 5796, 9212, 8312, 5375},
    {RcjAlgorithm::kObj, false, true, SearchOrder::kDepthFirst,
     0x77de76ae91110262ull, 5806, 11953, 10432, 7029},
    {RcjAlgorithm::kObj, false, true, SearchOrder::kRandom,
     0x0616da6c65649bd6ull, 5806, 11953, 10432, 8553},
    {RcjAlgorithm::kObj, true, false, SearchOrder::kDepthFirst,
     0x98fe98abf481beb3ull, 5849, 6484, 6421, 831},
    {RcjAlgorithm::kObj, true, false, SearchOrder::kRandom,
     0xf4854d08b335aa65ull, 5849, 6484, 6421, 2610},
    {RcjAlgorithm::kObj, true, true, SearchOrder::kDepthFirst,
     0x94c10f1fdf5af081ull, 5846, 6531, 6794, 941},
    {RcjAlgorithm::kObj, true, true, SearchOrder::kRandom,
     0x9063e0e2752d7812ull, 5846, 6531, 6794, 2717},
    // clang-format on
};

std::string CaseName(const GoldenCase& c) {
  std::string name = AlgorithmName(c.algorithm);
  name += c.self_join ? "_self" : "_two";
  name += c.live ? "_live" : "_static";
  name += c.order == SearchOrder::kRandom ? "_random" : "_df";
  return name;
}

// `kMutations` fresh inserts and `kMutations` tombstoned base ids per
// dataset (the single dataset of a self-join), all seeded.
DeltaOverlay MakeOverlay(bool self_join, uint64_t seed) {
  DeltaOverlay overlay;
  overlay.self_join = self_join;
  SplitMix rng(seed);
  for (const LiveSide side : {LiveSide::kQ, LiveSide::kP}) {
    if (self_join && side == LiveSide::kP) break;
    const PointId fresh = side == LiveSide::kQ ? 1000000 : 2000000;
    for (size_t i = 0; i < kMutations; ++i) {
      overlay.mutable_delta(side).push_back(
          PointRecord{rng.NextPoint(0, 10000),
                      fresh + static_cast<PointId>(i)});
    }
    while (overlay.mutable_dead(side).size() < kMutations) {
      overlay.mutable_dead(side).insert(
          static_cast<PointId>(rng.Next() % kPoints));
    }
  }
  overlay.epoch = 2 * kMutations;
  return overlay;
}

class JoinKernelTest : public ::testing::TestWithParam<size_t> {
 protected:
  static void SetUpTestSuite() {
    RcjRunOptions options;
    options.page_size = 512;
    const std::vector<PointRecord> qset = RandomRecords(kPoints, 11);
    const std::vector<PointRecord> pset = RandomRecords(kPoints, 12);
    two_ = RcjEnvironment::Build(qset, pset, options).value().release();
    self_ = RcjEnvironment::BuildSelf(qset, options).value().release();
    two_overlay_ = new DeltaOverlay(MakeOverlay(false, 21));
    self_overlay_ = new DeltaOverlay(MakeOverlay(true, 22));
  }
  static void TearDownTestSuite() {
    delete two_;
    delete self_;
    delete two_overlay_;
    delete self_overlay_;
  }

  static QuerySpec SpecFor(const GoldenCase& c) {
    QuerySpec spec = QuerySpec::For(c.self_join ? self_ : two_);
    spec.algorithm = c.algorithm;
    spec.order = c.order;
    spec.random_seed = 7;
    if (c.live) spec.overlay = c.self_join ? self_overlay_ : two_overlay_;
    return spec;
  }

  static RcjEnvironment* two_;
  static RcjEnvironment* self_;
  static DeltaOverlay* two_overlay_;
  static DeltaOverlay* self_overlay_;
};

RcjEnvironment* JoinKernelTest::two_ = nullptr;
RcjEnvironment* JoinKernelTest::self_ = nullptr;
DeltaOverlay* JoinKernelTest::two_overlay_ = nullptr;
DeltaOverlay* JoinKernelTest::self_overlay_ = nullptr;

// The stream's bytes, one FormatPairLine per pair in delivery order.
class HashingSink : public PairSink {
 public:
  bool Emit(const RcjPair& pair) override {
    bytes_ += net::FormatPairLine(pair);
    bytes_ += '\n';
    ++pairs_;
    return true;
  }
  uint64_t hash() const { return StableHash(bytes_); }
  uint64_t pairs() const { return pairs_; }

 private:
  std::string bytes_;
  uint64_t pairs_ = 0;
};

TEST_P(JoinKernelTest, SerialStreamAndCountersMatchGolden) {
  const GoldenCase& golden = kGolden[GetParam()];
  const QuerySpec spec = SpecFor(golden);

  HashingSink sink;
  JoinStats stats;
  RcjEnvironment* env = golden.self_join ? self_ : two_;
  ASSERT_TRUE(env->Run(spec, &sink, &stats).ok());
  ASSERT_EQ(sink.pairs(), stats.results);

  const uint64_t hash = sink.hash();
  EXPECT_EQ(hash, golden.hash);
  EXPECT_EQ(stats.results, golden.results);
  EXPECT_EQ(stats.candidates, golden.candidates);
  EXPECT_EQ(stats.node_accesses, golden.node_accesses);
  EXPECT_EQ(stats.page_faults, golden.page_faults);
  if (::testing::Test::HasFailure()) {
    char row[256];
    std::snprintf(row, sizeof(row),
                  "0x%016" PRIx64 "ull, %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64,
                  hash, stats.results, stats.candidates, stats.node_accesses,
                  stats.page_faults);
    ADD_FAILURE() << CaseName(golden) << " measured: " << row;
  }
}

TEST_P(JoinKernelTest, EngineStreamMatchesSerialAtOneAndFourThreads) {
  const GoldenCase& golden = kGolden[GetParam()];
  const QuerySpec spec = SpecFor(golden);
  for (const size_t threads : {1, 4}) {
    EngineOptions options;
    options.num_threads = threads;
    Engine engine(options);
    HashingSink sink;
    JoinStats stats;
    ASSERT_TRUE(engine.Run(spec, &sink, &stats).ok());
    EXPECT_EQ(sink.hash(), golden.hash) << threads << " threads";
    EXPECT_EQ(sink.pairs(), golden.results) << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Golden, JoinKernelTest,
    ::testing::Range<size_t>(0, sizeof(kGolden) / sizeof(kGolden[0])),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return CaseName(kGolden[info.param]);
    });

}  // namespace
}  // namespace rcj
