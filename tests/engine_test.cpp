// Tests for the parallel batched execution engine: a multi-threaded batch
// must return pair-for-pair identical results to the serial runner on the
// same inputs, across algorithms, search orders, self-joins, and mixed
// batches, with coherent aggregated statistics. The streaming contract is
// stricter than set equality: pairs delivered through a PairSink must
// arrive in the exact serial order, and a QuerySpec::limit must yield
// exactly the serial prefix while cancelling the remaining work.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rcj.h"
#include "core/stop_token.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

// Sorted (q.id, p.id) projection so serial and parallel outputs can be
// compared pair for pair regardless of leaf-range concatenation order.
std::vector<RcjPair> Sorted(std::vector<RcjPair> pairs) {
  NormalizePairs(&pairs);
  return pairs;
}

void ExpectIdenticalPairs(const std::vector<RcjPair>& parallel,
                          const std::vector<RcjPair>& serial,
                          const char* label) {
  ASSERT_EQ(parallel.size(), serial.size()) << label;
  const std::vector<RcjPair> lhs = Sorted(parallel);
  const std::vector<RcjPair> rhs = Sorted(serial);
  for (size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_EQ(lhs[i].p.id, rhs[i].p.id) << label << " at " << i;
    ASSERT_EQ(lhs[i].q.id, rhs[i].q.id) << label << " at " << i;
    ASSERT_DOUBLE_EQ(lhs[i].circle.center.x, rhs[i].circle.center.x)
        << label << " at " << i;
    ASSERT_DOUBLE_EQ(lhs[i].circle.center.y, rhs[i].circle.center.y)
        << label << " at " << i;
  }
}

// Exact sequence equality — the streaming order contract.
void ExpectSameSequence(const std::vector<RcjPair>& streamed,
                        const std::vector<RcjPair>& serial,
                        const char* label) {
  ASSERT_EQ(streamed.size(), serial.size()) << label;
  for (size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(streamed[i].p.id, serial[i].p.id) << label << " at " << i;
    ASSERT_EQ(streamed[i].q.id, serial[i].q.id) << label << " at " << i;
  }
}

// Records the stream and, for each EndBatch, how many pairs preceded it.
class BatchRecordingSink final : public PairSink {
 public:
  bool Emit(const RcjPair& pair) override {
    pairs.push_back(pair);
    return true;
  }
  void EndBatch() override { batch_ends.push_back(pairs.size()); }

  std::vector<RcjPair> pairs;
  std::vector<size_t> batch_ends;
};

// T_Q's depth-first leaves, each Q point mapped to its leaf's index.
size_t MapLeaves(const RcjEnvironment& env,
                 std::map<PointId, size_t>* leaf_of) {
  size_t leaves = 0;
  const Status visited =
      env.tq().VisitLeavesDepthFirst([&](const Node& leaf) {
        for (const LeafEntry& entry : leaf.points) {
          (*leaf_of)[entry.rec.id] = leaves;
        }
        ++leaves;
        return true;
      });
  EXPECT_TRUE(visited.ok());
  return leaves;
}

TEST(EngineTest, ExternalCancelFlagSkipsWorkWithoutAnyPairDelivered) {
  // A stopped token must be honored before the first chunk claim, not
  // only inside pair delivery — otherwise a query that never emits a pair
  // (or whose caller vanished before the first one) runs to completion.
  const std::vector<PointRecord> qset = GenerateUniform(2500, 17);
  const std::vector<PointRecord> pset = GenerateUniform(2500, 18);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);

  StopToken stop;
  stop.Stop(StopReason::kCancelled);  // cancelled before the batch starts
  std::vector<RcjPair> cancelled_pairs;
  VectorSink cancelled_sink(&cancelled_pairs);
  std::vector<RcjPair> live_pairs;
  VectorSink live_sink(&live_pairs);

  std::vector<EngineQuery> batch(2);
  batch[0].spec = QuerySpec::For(env.value().get());
  batch[0].spec.stop = &stop;
  batch[0].sink = &cancelled_sink;
  batch[1].spec = QuerySpec::For(env.value().get());
  batch[1].sink = &live_sink;  // no stop token: runs in full

  const std::vector<EngineQueryResult> results = engine.RunBatch(batch);
  EXPECT_EQ(results[0].status.code(), StatusCode::kCancelled);
  ASSERT_TRUE(results[1].status.ok());

  EXPECT_TRUE(cancelled_pairs.empty())
      << "a pre-cancelled query must not deliver pairs";
  EXPECT_EQ(results[0].run.stats.node_accesses, 0u)
      << "every leaf-range task must be skipped, not run and discarded";
  EXPECT_GT(live_pairs.size(), 0u) << "batchmates are unaffected";
}

TEST(EngineTest, ParallelBatchMatchesSerialRunPairForPair) {
  const std::vector<PointRecord> qset = GenerateUniform(4000, 11);
  const std::vector<PointRecord> pset = GenerateUniform(4000, 12);

  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  QuerySpec spec = QuerySpec::For(env.value().get());
  spec.algorithm = RcjAlgorithm::kObj;
  const Result<RcjRunResult> serial = env.value()->Run(spec);
  ASSERT_TRUE(serial.ok());

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);
  const Result<RcjRunResult> parallel = engine.Run(spec);
  ASSERT_TRUE(parallel.ok());

  ExpectIdenticalPairs(parallel.value().pairs, serial.value().pairs, "OBJ");
  EXPECT_EQ(parallel.value().stats.results, serial.value().stats.results);
  EXPECT_EQ(parallel.value().stats.candidates,
            serial.value().stats.candidates)
      << "leaf-granular partitioning must not change OBJ's pruning";
}

TEST(EngineTest, EveryAlgorithmMatchesSerial) {
  const std::vector<PointRecord> qset = GenerateUniform(1200, 21);
  const std::vector<PointRecord> pset = GenerateUniform(1500, 22);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  EngineOptions engine_options;
  engine_options.num_threads = 3;
  Engine engine(engine_options);

  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kBrute, RcjAlgorithm::kInj, RcjAlgorithm::kBij,
        RcjAlgorithm::kObj}) {
    QuerySpec spec = QuerySpec::For(env.value().get());
    spec.algorithm = algorithm;
    const Result<RcjRunResult> serial = env.value()->Run(spec);
    ASSERT_TRUE(serial.ok()) << AlgorithmName(algorithm);
    const Result<RcjRunResult> parallel = engine.Run(spec);
    ASSERT_TRUE(parallel.ok()) << AlgorithmName(algorithm);
    ExpectIdenticalPairs(parallel.value().pairs, serial.value().pairs,
                         AlgorithmName(algorithm));
  }
}

TEST(EngineTest, SelfJoinMatchesSerial) {
  const std::vector<PointRecord> set = GenerateUniform(2500, 31);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::BuildSelf(set, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  const QuerySpec spec = QuerySpec::For(env.value().get());
  const Result<RcjRunResult> serial = env.value()->Run(spec);
  ASSERT_TRUE(serial.ok());

  Engine engine(EngineOptions{});
  const Result<RcjRunResult> parallel = engine.Run(spec);
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalPairs(parallel.value().pairs, serial.value().pairs, "self");
}

TEST(EngineTest, RandomSearchOrderMatchesSerial) {
  // The seeded shuffle must partition identically to the serial shuffle.
  const std::vector<PointRecord> qset = GenerateUniform(1800, 41);
  const std::vector<PointRecord> pset = GenerateUniform(1800, 42);

  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  QuerySpec spec = QuerySpec::For(env.value().get());
  spec.order = SearchOrder::kRandom;
  spec.random_seed = 99;
  const Result<RcjRunResult> serial = env.value()->Run(spec);
  ASSERT_TRUE(serial.ok());

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);
  const Result<RcjRunResult> parallel = engine.Run(spec);
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalPairs(parallel.value().pairs, serial.value().pairs,
                       "random order");
}

TEST(EngineTest, MixedBatchOverMultipleEnvironmentsInInputOrder) {
  const std::vector<PointRecord> a = GenerateUniform(900, 51);
  const std::vector<PointRecord> b = GenerateUniform(1100, 52);
  const std::vector<PointRecord> c =
      MakeRealSurrogate(RealDataset::kSchools, 5, 1000);

  Result<std::unique_ptr<RcjEnvironment>> env_ab =
      RcjEnvironment::Build(a, b, RcjRunOptions{});
  Result<std::unique_ptr<RcjEnvironment>> env_cb =
      RcjEnvironment::Build(c, b, RcjRunOptions{});
  Result<std::unique_ptr<RcjEnvironment>> env_self =
      RcjEnvironment::BuildSelf(c, RcjRunOptions{});
  ASSERT_TRUE(env_ab.ok());
  ASSERT_TRUE(env_cb.ok());
  ASSERT_TRUE(env_self.ok());

  // A mixed batch: different environments, algorithms, and orders.
  std::vector<EngineQuery> batch;
  const RcjAlgorithm algos[] = {RcjAlgorithm::kObj, RcjAlgorithm::kInj,
                                RcjAlgorithm::kBij};
  RcjEnvironment* envs[] = {env_ab.value().get(), env_cb.value().get(),
                            env_self.value().get()};
  std::vector<RcjEnvironment*> owner_of_query;
  for (int i = 0; i < 9; ++i) {
    EngineQuery query;
    query.spec.env = envs[i % 3];
    query.spec.algorithm = algos[(i / 3) % 3];
    owner_of_query.push_back(envs[i % 3]);
    batch.push_back(query);
  }

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);
  const std::vector<EngineQueryResult> results = engine.RunBatch(batch);
  ASSERT_EQ(results.size(), batch.size());

  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "query " << i;
    // Compare against a serial run of the same (env, spec) slot.
    const Result<RcjRunResult> serial =
        owner_of_query[i]->Run(batch[i].spec);
    ASSERT_TRUE(serial.ok()) << "query " << i;
    ExpectIdenticalPairs(results[i].run.pairs, serial.value().pairs,
                         "batch query");
  }
}

TEST(EngineTest, AggregatedStatsAreCoherent) {
  const std::vector<PointRecord> qset = GenerateUniform(2000, 61);
  const std::vector<PointRecord> pset = GenerateUniform(2000, 62);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);
  const Result<RcjRunResult> run =
      engine.Run(QuerySpec::For(env.value().get()));
  ASSERT_TRUE(run.ok());
  const JoinStats& stats = run.value().stats;

  EXPECT_EQ(stats.results, run.value().pairs.size());
  EXPECT_GE(stats.candidates, stats.results);
  EXPECT_GT(stats.node_accesses, 0u);
  EXPECT_GE(stats.node_accesses, stats.page_faults);
  // The cold/warm split partitions the faults exactly.
  EXPECT_EQ(stats.cold_faults + stats.warm_faults, stats.page_faults);
  // Aggregated private pools still obey the paper's I/O cost model.
  EXPECT_DOUBLE_EQ(stats.io_seconds,
                   static_cast<double>(stats.page_faults) * 0.010);
  EXPECT_GT(stats.cpu_seconds, 0.0);
}

TEST(EngineTest, NullEnvironmentFailsWithoutPoisoningBatchmates) {
  const std::vector<PointRecord> set = GenerateUniform(600, 71);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::BuildSelf(set, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  std::vector<EngineQuery> batch(2);
  batch[0].spec.env = nullptr;  // invalid
  batch[1].spec.env = env.value().get();

  Engine engine(EngineOptions{});
  const std::vector<EngineQueryResult> results = engine.RunBatch(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[1].status.ok());
  EXPECT_GT(results[1].run.pairs.size(), 0u);
}

TEST(EngineTest, InvalidAlgorithmEnumFailsPerSlot) {
  const std::vector<PointRecord> set = GenerateUniform(600, 72);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::BuildSelf(set, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  std::vector<EngineQuery> batch(3);
  batch[0].spec.env = env.value().get();
  batch[1].spec.env = env.value().get();
  batch[1].spec.algorithm = static_cast<RcjAlgorithm>(42);  // corrupt enum
  batch[2].spec.env = env.value().get();

  Engine engine(EngineOptions{});
  const std::vector<EngineQueryResult> results = engine.RunBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_FALSE(results[1].status.ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[2].status.ok());
  EXPECT_EQ(results[0].run.pairs.size(), results[2].run.pairs.size());
}

TEST(EngineTest, BruteMixedIntoIndexedBatchKeepsPerSlotResults) {
  // BRUTE has no T_Q leaves to split, so it must ride along as a single
  // task among the indexed queries' leaf-range tasks — per-slot status and
  // results stay independent.
  const std::vector<PointRecord> qset = GenerateUniform(700, 73);
  const std::vector<PointRecord> pset = GenerateUniform(900, 74);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  std::vector<EngineQuery> batch(3);
  batch[0].spec.env = env.value().get();
  batch[0].spec.algorithm = RcjAlgorithm::kObj;
  batch[1].spec.env = env.value().get();
  batch[1].spec.algorithm = RcjAlgorithm::kBrute;
  batch[2].spec.env = env.value().get();
  batch[2].spec.algorithm = RcjAlgorithm::kInj;

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);
  const std::vector<EngineQueryResult> results = engine.RunBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "query " << i;
  }
  const std::vector<RcjPair> oracle = BruteForceRcj(pset, qset);
  ExpectIdenticalPairs(results[1].run.pairs, oracle, "brute slot");
  ExpectIdenticalPairs(results[0].run.pairs, oracle, "obj slot");
  ExpectIdenticalPairs(results[2].run.pairs, oracle, "inj slot");
}

TEST(EngineTest, SinkReceivesExactSerialOrder) {
  const std::vector<PointRecord> qset = GenerateUniform(3000, 75);
  const std::vector<PointRecord> pset = GenerateUniform(3000, 76);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kObj}) {
    QuerySpec spec = QuerySpec::For(env.value().get());
    spec.algorithm = algorithm;
    const Result<RcjRunResult> serial = env.value()->Run(spec);
    ASSERT_TRUE(serial.ok());

    EngineOptions engine_options;
    engine_options.num_threads = 4;
    Engine engine(engine_options);
    std::vector<RcjPair> streamed;
    VectorSink sink(&streamed);
    JoinStats stats;
    ASSERT_TRUE(engine.Run(spec, &sink, &stats).ok());
    ExpectSameSequence(streamed, serial.value().pairs,
                       AlgorithmName(algorithm));
    EXPECT_EQ(stats.results, streamed.size());
  }
}

TEST(EngineTest, LimitDeliversSerialPrefixAndCancelsRemainingWork) {
  const std::vector<PointRecord> qset = GenerateUniform(4000, 77);
  const std::vector<PointRecord> pset = GenerateUniform(4000, 78);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  QuerySpec spec = QuerySpec::For(env.value().get());
  const Result<RcjRunResult> full = env.value()->Run(spec);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().pairs.size(), 20u);

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);

  for (const uint64_t k : {uint64_t{1}, uint64_t{7}, uint64_t{20}}) {
    QuerySpec limited = spec;
    limited.limit = k;
    std::vector<RcjPair> streamed;
    VectorSink sink(&streamed);
    JoinStats stats;
    ASSERT_TRUE(engine.Run(limited, &sink, &stats).ok());
    ASSERT_EQ(streamed.size(), k) << "k=" << k;
    EXPECT_EQ(stats.results, k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(streamed[i].p.id, full.value().pairs[i].p.id)
          << "k=" << k << " at " << i;
      EXPECT_EQ(streamed[i].q.id, full.value().pairs[i].q.id)
          << "k=" << k << " at " << i;
    }
  }

  // A tiny limit must cancel most of the join: the engine's candidate
  // count should fall well short of the full run's.
  QuerySpec one = spec;
  one.limit = 1;
  std::vector<RcjPair> streamed;
  VectorSink sink(&streamed);
  JoinStats stats;
  ASSERT_TRUE(engine.Run(one, &sink, &stats).ok());
  EXPECT_LT(stats.candidates, full.value().stats.candidates)
      << "limit=1 must cancel remaining leaf-range tasks";
}

TEST(EngineTest, ThrowingSinkFailsItsQueryWithoutPoisoningBatchmates) {
  const std::vector<PointRecord> set = GenerateUniform(900, 95);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::BuildSelf(set, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  CallbackSink throwing([](const RcjPair&) -> bool {
    throw std::runtime_error("downstream consumer died");
  });
  std::vector<RcjPair> healthy_pairs;
  VectorSink healthy(&healthy_pairs);

  std::vector<EngineQuery> batch(2);
  batch[0].spec.env = env.value().get();
  batch[0].sink = &throwing;
  batch[1].spec.env = env.value().get();
  batch[1].sink = &healthy;

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);
  const std::vector<EngineQueryResult> results = engine.RunBatch(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_EQ(results[0].status.code(), StatusCode::kIoError);
  EXPECT_TRUE(results[1].status.ok());
  EXPECT_GT(healthy_pairs.size(), 0u);
}

TEST(EngineTest, LimitStopsSingleTaskQueriesEarly) {
  // One worker thread means no intra-query split: the query runs as a
  // single task, so early termination must come from the per-task buffer
  // cap, not from cross-task cancellation.
  const std::vector<PointRecord> qset = GenerateUniform(3000, 79);
  const std::vector<PointRecord> pset = GenerateUniform(3000, 80);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  QuerySpec spec = QuerySpec::For(env.value().get());
  const Result<RcjRunResult> full = env.value()->Run(spec);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().pairs.size(), 5u);

  EngineOptions engine_options;
  engine_options.num_threads = 1;
  Engine engine(engine_options);
  QuerySpec limited = spec;
  limited.limit = 5;
  const Result<RcjRunResult> prefix = engine.Run(limited);
  ASSERT_TRUE(prefix.ok());
  ASSERT_EQ(prefix.value().pairs.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(prefix.value().pairs[i].p.id, full.value().pairs[i].p.id);
    EXPECT_EQ(prefix.value().pairs[i].q.id, full.value().pairs[i].q.id);
  }
  EXPECT_LT(prefix.value().stats.candidates, full.value().stats.candidates)
      << "the single task must stop at the buffer cap, not run the full "
         "join";
}

TEST(EngineTest, UnsplitQueriesOnTwoWorkersMatchSerial) {
  // Two workers, yet neither query is split: BRUTE never is, and a T_Q
  // with fewer leaves than engine.cc's kMinLeavesToSplit (8) runs as one
  // task. Either way the stream is the serial one, delivered as a single
  // chunk — one batch.
  const std::vector<PointRecord> qset = GenerateUniform(1300, 81);
  const std::vector<PointRecord> pset = GenerateUniform(1300, 82);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  QuerySpec brute = QuerySpec::For(env.value().get());
  brute.algorithm = RcjAlgorithm::kBrute;

  Result<std::unique_ptr<RcjEnvironment>> small = RcjEnvironment::Build(
      GenerateUniform(100, 83), pset, RcjRunOptions{});
  ASSERT_TRUE(small.ok());
  std::map<PointId, size_t> leaf_of;
  ASSERT_LT(MapLeaves(*small.value(), &leaf_of), 8u);
  const QuerySpec small_obj = QuerySpec::For(small.value().get());

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);
  const std::pair<RcjEnvironment*, QuerySpec> cases[] = {
      {env.value().get(), brute}, {small.value().get(), small_obj}};
  for (const auto& [target, spec] : cases) {
    const char* label = AlgorithmName(spec.algorithm);
    const Result<RcjRunResult> serial = target->Run(spec);
    ASSERT_TRUE(serial.ok());
    ASSERT_FALSE(serial.value().pairs.empty()) << label;
    BatchRecordingSink sink;
    JoinStats stats;
    ASSERT_TRUE(engine.Run(spec, &sink, &stats).ok()) << label;
    ExpectSameSequence(sink.pairs, serial.value().pairs, label);
    ExpectIdenticalPairs(sink.pairs, serial.value().pairs, label);
    EXPECT_EQ(sink.batch_ends.size(), 1u) << label << ": split into chunks";
  }
}

TEST(EngineTest, EngineIsReusableAcrossBatchesAndWarmsUp) {
  const std::vector<PointRecord> set = GenerateUniform(1000, 91);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::BuildSelf(set, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  // One worker, so both runs traverse through the same cached pool — with
  // several workers the chunk cursor may hand a worker leaves it has not
  // seen, which are honest cold faults but would make this nondeterministic.
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  Engine engine(engine_options);
  const QuerySpec spec = QuerySpec::For(env.value().get());
  const Result<RcjRunResult> first = engine.Run(spec);
  const Result<RcjRunResult> second = engine.Run(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().pairs.size(), second.value().pairs.size());
  // The persistent worker-view cache keeps pools warm across batches: the
  // first run pays compulsory (cold) faults, a repeat of the same query
  // never does — whatever it still faults is capacity-only (warm).
  EXPECT_GT(first.value().stats.cold_faults, 0u);
  EXPECT_EQ(second.value().stats.cold_faults, 0u)
      << "a repeated query on warm views must not re-fault first touches";
  EXPECT_LE(second.value().stats.page_faults,
            first.value().stats.page_faults);
}

TEST(EngineTest, ConcurrentSubmittersGetSerialStreams) {
  // Any thread may run queries on a shared engine: four callers submit
  // at once, each waits only on its own queries, and every stream must be
  // byte-identical to the serial runner's.
  const std::vector<PointRecord> qset = GenerateUniform(2000, 101);
  const std::vector<PointRecord> pset = GenerateUniform(2100, 102);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  const RcjAlgorithm algorithms[] = {RcjAlgorithm::kObj, RcjAlgorithm::kInj,
                                     RcjAlgorithm::kBij, RcjAlgorithm::kBrute};
  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 3;
  // Nine 8-byte fields and no padding, so the raw bytes are the stream.
  static_assert(sizeof(RcjPair) == 9 * 8, "RcjPair gained padding");
  const auto bytes_of = [](const std::vector<RcjPair>& pairs) {
    return std::string(reinterpret_cast<const char*>(pairs.data()),
                       pairs.size() * sizeof(RcjPair));
  };
  std::vector<std::string> serial(kCallers);
  for (size_t i = 0; i < kCallers; ++i) {
    QuerySpec spec = QuerySpec::For(env.value().get());
    spec.algorithm = algorithms[i];
    const Result<RcjRunResult> run = env.value()->Run(spec);
    ASSERT_TRUE(run.ok());
    ASSERT_FALSE(run.value().pairs.empty());
    serial[i] = bytes_of(run.value().pairs);
  }

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);
  std::vector<std::vector<std::string>> streams(kCallers);
  std::vector<std::thread> callers;
  for (size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      QuerySpec spec = QuerySpec::For(env.value().get());
      spec.algorithm = algorithms[i];
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<RcjPair> pairs;
        VectorSink sink(&pairs);
        JoinStats stats;
        if (!engine.Run(spec, &sink, &stats).ok()) return;
        streams[i].push_back(bytes_of(pairs));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (size_t i = 0; i < kCallers; ++i) {
    ASSERT_EQ(streams[i].size(), kRounds) << AlgorithmName(algorithms[i]);
    for (const std::string& stream : streams[i]) {
      EXPECT_TRUE(stream == serial[i])
          << AlgorithmName(algorithms[i]) << ": stream differs from serial";
    }
  }
}

TEST(EngineTest, EndBatchClosesWholeChunksAfterTheirPairs) {
  // One-leaf chunks: a chunk boundary in the serial stream is a place
  // where the pair's T_Q leaf changes. Every EndBatch must sit on such a
  // boundary (never inside a chunk's pairs), follow at least one new pair,
  // and the last one must close the stream.
  const std::vector<PointRecord> qset = GenerateUniform(1200, 81);
  const std::vector<PointRecord> pset = GenerateUniform(3000, 82);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());
  std::map<PointId, size_t> leaf_of;
  const size_t leaves = MapLeaves(*env.value(), &leaf_of);
  const QuerySpec spec = QuerySpec::For(env.value().get());
  const Result<RcjRunResult> serial = env.value()->Run(spec);
  ASSERT_TRUE(serial.ok());
  const std::vector<RcjPair>& expected = serial.value().pairs;
  ASSERT_GT(expected.size(), 0u);

  for (const size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    if (threads > 1) {
      // engine.cc's split rule: kTasksPerThread (2) claimants per worker,
      // kChunksPerTask (8) chunks per claimant, at least one leaf each —
      // this tree is small enough for every chunk to be one leaf, and big
      // enough (kMinLeavesToSplit = 8) to be split at all.
      ASSERT_GE(leaves, 8u);
      ASSERT_EQ(std::max<size_t>(1, leaves / (threads * 2 * 8)), 1u)
          << leaves << " leaves";
    }
    EngineOptions engine_options;
    engine_options.num_threads = threads;
    Engine engine(engine_options);
    BatchRecordingSink sink;
    JoinStats stats;
    ASSERT_TRUE(engine.Run(spec, &sink, &stats).ok());
    ExpectSameSequence(sink.pairs, expected, "batched stream");
    ASSERT_FALSE(sink.batch_ends.empty());
    EXPECT_EQ(sink.batch_ends.back(), expected.size());
    size_t previous = 0;
    for (const size_t end : sink.batch_ends) {
      EXPECT_GT(end, previous) << "an EndBatch without new pairs";
      previous = end;
      if (end == expected.size()) continue;
      EXPECT_NE(leaf_of.at(expected[end - 1].q.id),
                leaf_of.at(expected[end].q.id))
          << "EndBatch inside a chunk, after pair " << end;
    }
    if (threads == 1) {
      // One worker runs the query unsplit: one chunk, one batch.
      EXPECT_EQ(sink.batch_ends.size(), 1u);
    }
  }
}

TEST(EngineTest, InvalidateCachedViewsRestoresColdStartAccounting) {
  const std::vector<PointRecord> set = GenerateUniform(1000, 92);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::BuildSelf(set, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  // One worker: with more, the chunk partition across tasks (and so each
  // fresh pool's fault count) is timing-dependent.
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  Engine engine(engine_options);
  const QuerySpec spec = QuerySpec::For(env.value().get());
  const Result<RcjRunResult> first = engine.Run(spec);
  engine.InvalidateCachedViews(env.value().get());
  const Result<RcjRunResult> second = engine.Run(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().pairs.size(), second.value().pairs.size());
  EXPECT_EQ(first.value().stats.page_faults,
            second.value().stats.page_faults)
      << "a dropped view reopens with a fresh pool: identical cold-start "
         "accounting";
}

}  // namespace
}  // namespace rcj
