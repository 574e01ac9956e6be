// Churn correctness for the live-environment subsystem: merged
// (base + delta) query results must equal a brute-force recompute of the
// effective pointsets at every observed epoch, the merged stream must be
// byte-identical between the serial runner and the multi-threaded engine
// before and after compaction, and compaction must equal a from-scratch
// rebuild while queries race it.
#include "live/live_environment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/rcj_brute.h"
#include "engine/engine.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

using testing_util::ExpectSamePairs;
using testing_util::RandomRecords;
using testing_util::SplitMix;

std::string StorageDir() {
  const char* dir = std::getenv("TMPDIR");
  return dir != nullptr ? dir : "/tmp";
}

std::vector<RcjPair> Oracle(const LiveEnvironment& live) {
  std::vector<PointRecord> q, p;
  live.EffectivePointsets(&q, &p);
  return live.self_join() ? BruteForceRcjSelf(q) : BruteForceRcj(p, q);
}

std::vector<RcjPair> SerialMerged(const LiveSnapshot& snapshot,
                                  RcjAlgorithm algorithm) {
  QuerySpec spec = snapshot.Spec();
  spec.algorithm = algorithm;
  Result<RcjRunResult> result = snapshot.Run(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result.value().pairs)
                     : std::vector<RcjPair>{};
}

// Exact sequence equality — the merged streaming-order contract.
void ExpectSameSequence(const std::vector<RcjPair>& actual,
                        const std::vector<RcjPair>& expected,
                        const char* label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].p.id, expected[i].p.id) << label << " at " << i;
    ASSERT_EQ(actual[i].q.id, expected[i].q.id) << label << " at " << i;
  }
}

// A random mutation stream over a live environment that mirrors every step
// into plain id bookkeeping so inserts pick fresh ids and deletes pick
// live ones.
class Churner {
 public:
  Churner(LiveEnvironment* live, uint64_t seed, PointId first_fresh_id)
      : live_(live), rng_(seed), next_id_(first_fresh_id) {}

  void Step() {
    const LiveSide side =
        (rng_.Next() % 2 == 0) ? LiveSide::kQ : LiveSide::kP;
    std::vector<PointId>& ids = Ids(side);
    const bool remove = !ids.empty() && rng_.Next() % 3 == 0;
    if (remove) {
      const size_t victim = rng_.Next() % ids.size();
      ASSERT_TRUE(live_->Delete(side, ids[victim]).ok());
      ids[victim] = ids.back();
      ids.pop_back();
    } else {
      const PointRecord rec{rng_.NextPoint(0.0, 10000.0), next_id_++};
      ASSERT_TRUE(live_->Insert(side, rec).ok());
      ids.push_back(rec.id);
    }
  }

  void Seed(LiveSide side, const std::vector<PointRecord>& records) {
    for (const PointRecord& rec : records) Ids(side).push_back(rec.id);
  }

 private:
  std::vector<PointId>& Ids(LiveSide side) {
    return (side == LiveSide::kQ || live_->self_join()) ? q_ids_ : p_ids_;
  }

  LiveEnvironment* live_;
  SplitMix rng_;
  PointId next_id_;
  std::vector<PointId> q_ids_, p_ids_;
};

TEST(LiveEnvironmentTest, EveryEpochMatchesBruteForce) {
  // Small enough to recompute the oracle at literally every epoch.
  const std::vector<PointRecord> qset = RandomRecords(100, 901);
  std::vector<PointRecord> pset = RandomRecords(100, 902);
  for (PointRecord& rec : pset) rec.id += 10000;  // distinct id namespaces
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  Churner churn(live.value().get(), 903, /*first_fresh_id=*/20000);
  churn.Seed(LiveSide::kQ, qset);
  churn.Seed(LiveSide::kP, pset);
  for (int step = 0; step < 150; ++step) {
    churn.Step();
    if (::testing::Test::HasFatalFailure()) return;
    LiveSnapshot snapshot = live.value()->TakeSnapshot();
    ASSERT_EQ(snapshot.epoch(), static_cast<uint64_t>(step + 1));
    ExpectSamePairs(SerialMerged(snapshot, RcjAlgorithm::kObj),
                    Oracle(*live.value()), "OBJ vs brute oracle");
  }
}

TEST(LiveEnvironmentTest, TenThousandOpChurnAcrossAlgorithms) {
  const std::vector<PointRecord> qset = RandomRecords(300, 911);
  std::vector<PointRecord> pset = RandomRecords(300, 912);
  for (PointRecord& rec : pset) rec.id += 10000;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());

  Churner churn(live.value().get(), 913, 20000);
  churn.Seed(LiveSide::kQ, qset);
  churn.Seed(LiveSide::kP, pset);
  int checks = 0;
  for (int step = 1; step <= 10000; ++step) {
    churn.Step();
    if (::testing::Test::HasFatalFailure()) return;
    // Verify at checkpoints (every epoch would be 10k brute joins), with a
    // compaction folded in mid-stream so post-compaction epochs are
    // exercised by the same sweep.
    if (step % 1000 != 0) continue;
    ++checks;
    if (step == 5000) {
      ASSERT_TRUE(live.value()->Compact().ok());
    }
    LiveSnapshot snapshot = live.value()->TakeSnapshot();
    const std::vector<RcjPair> oracle = Oracle(*live.value());
    ExpectSamePairs(SerialMerged(snapshot, RcjAlgorithm::kObj), oracle,
                    "OBJ churn checkpoint");
    ExpectSamePairs(SerialMerged(snapshot, RcjAlgorithm::kInj), oracle,
                    "INJ churn checkpoint");
    ExpectSamePairs(SerialMerged(snapshot, RcjAlgorithm::kBij), oracle,
                    "BIJ churn checkpoint");
    ExpectSamePairs(SerialMerged(snapshot, RcjAlgorithm::kBrute), oracle,
                    "BRUTE churn checkpoint");
  }
  EXPECT_EQ(checks, 10);
}

TEST(LiveEnvironmentTest, DeletingAWitnessResurrectsThePair) {
  // w = p3 sits strictly inside the diametral circle of (p2, q), so the
  // static join is only {(p3, q)}; deleting p3 must resurrect (p2, q) — a
  // pair the base join never emitted. This is why the merged path
  // re-verifies instead of filtering the static stream.
  const std::vector<PointRecord> qset = {{Point{10.0, 0.0}, 1}};
  const std::vector<PointRecord> pset = {{Point{0.0, 0.0}, 2},
                                         {Point{5.0, 1.0}, 3}};
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());

  const std::vector<RcjPair> statically =
      SerialMerged(live.value()->TakeSnapshot(), RcjAlgorithm::kObj);
  ASSERT_EQ(statically.size(), 1u);
  EXPECT_EQ(statically[0].p.id, 3u);
  ASSERT_TRUE(live.value()->Delete(LiveSide::kP, 3).ok());
  const std::vector<RcjPair> merged =
      SerialMerged(live.value()->TakeSnapshot(), RcjAlgorithm::kObj);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].p.id, 2u);
  EXPECT_EQ(merged[0].q.id, 1u);
}

TEST(LiveEnvironmentTest, SelfJoinChurnMatchesOracle) {
  const std::vector<PointRecord> set = RandomRecords(300, 921);
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::CreateSelf(set, LiveOptions{});
  ASSERT_TRUE(live.ok());

  Churner churn(live.value().get(), 922, 10000);
  churn.Seed(LiveSide::kQ, set);
  for (int step = 1; step <= 600; ++step) {
    churn.Step();
    if (::testing::Test::HasFatalFailure()) return;
    if (step % 100 != 0) continue;
    if (step == 300) ASSERT_TRUE(live.value()->Compact().ok());
    LiveSnapshot snapshot = live.value()->TakeSnapshot();
    const std::vector<RcjPair> oracle = Oracle(*live.value());
    ExpectSamePairs(SerialMerged(snapshot, RcjAlgorithm::kObj), oracle,
                    "self-join OBJ");
    ExpectSamePairs(SerialMerged(snapshot, RcjAlgorithm::kInj), oracle,
                    "self-join INJ");
  }
}

TEST(LiveEnvironmentTest, MergedStreamIsIdenticalAcrossThreadCounts) {
  const std::vector<PointRecord> qset = RandomRecords(2000, 931);
  std::vector<PointRecord> pset = RandomRecords(2000, 932);
  for (PointRecord& rec : pset) rec.id += 100000;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());

  EngineOptions engine_options;
  engine_options.num_threads = 8;
  Engine engine(engine_options);

  Churner churn(live.value().get(), 933, 200000);
  churn.Seed(LiveSide::kQ, qset);
  churn.Seed(LiveSide::kP, pset);
  for (int step = 0; step < 500; ++step) {
    churn.Step();
    if (::testing::Test::HasFatalFailure()) return;
  }

  for (const bool compacted : {false, true}) {
    if (compacted) {
      ASSERT_TRUE(live.value()->Compact().ok());
      // Keep some pending delta after the compaction too.
      for (int step = 0; step < 100; ++step) {
        churn.Step();
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    LiveSnapshot snapshot = live.value()->TakeSnapshot();
    for (const RcjAlgorithm algorithm :
         {RcjAlgorithm::kInj, RcjAlgorithm::kObj}) {
      const std::vector<RcjPair> serial = SerialMerged(snapshot, algorithm);
      QuerySpec spec = snapshot.Spec();
      spec.algorithm = algorithm;
      Result<RcjRunResult> parallel = engine.Run(spec);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectSameSequence(parallel.value().pairs, serial,
                         compacted ? "post-compaction stream"
                                   : "pre-compaction stream");
    }
  }
}

TEST(LiveEnvironmentTest, CompactionEqualsFromScratchRebuild) {
  const std::vector<PointRecord> qset = RandomRecords(500, 941);
  std::vector<PointRecord> pset = RandomRecords(500, 942);
  for (PointRecord& rec : pset) rec.id += 10000;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());

  Churner churn(live.value().get(), 943, 20000);
  churn.Seed(LiveSide::kQ, qset);
  churn.Seed(LiveSide::kP, pset);
  for (int step = 0; step < 400; ++step) {
    churn.Step();
    if (::testing::Test::HasFatalFailure()) return;
  }

  std::vector<PointRecord> eff_q, eff_p;
  live.value()->EffectivePointsets(&eff_q, &eff_p);
  const uint64_t generation_before = live.value()->stats().generation;
  ASSERT_TRUE(live.value()->Compact().ok());
  const LiveStats stats = live.value()->stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.delta_size, 0u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_NE(stats.generation, generation_before);
  EXPECT_EQ(stats.base_q, eff_q.size());
  EXPECT_EQ(stats.base_p, eff_p.size());

  // The compacted environment is pair-identical (in serial order, after
  // NormalizePairs on both sides) to a from-scratch rebuild of the same
  // effective pointsets.
  Result<std::unique_ptr<RcjEnvironment>> rebuilt =
      RcjEnvironment::Build(eff_q, eff_p, RcjRunOptions{});
  ASSERT_TRUE(rebuilt.ok());
  Result<RcjRunResult> rebuilt_run =
      rebuilt.value()->Run(QuerySpec::For(rebuilt.value().get()));
  ASSERT_TRUE(rebuilt_run.ok());
  std::vector<RcjPair> expected = std::move(rebuilt_run.value().pairs);
  NormalizePairs(&expected);

  std::vector<RcjPair> compacted =
      SerialMerged(live.value()->TakeSnapshot(), RcjAlgorithm::kObj);
  NormalizePairs(&compacted);
  ExpectSameSequence(compacted, expected, "compacted vs rebuilt");
}

TEST(LiveEnvironmentTest, FoldKeepsDeleteAndReinsertStraight) {
  const std::vector<PointRecord> qset = RandomRecords(50, 951);
  std::vector<PointRecord> pset = RandomRecords(50, 952);
  for (PointRecord& rec : pset) rec.id += 1000;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());
  LiveEnvironment& env = *live.value();

  // Insert, compact (folds the insert into the base), delete the folded
  // id, then reinsert it at new coordinates — the tombstone must suppress
  // the folded copy while the new delta record stays live.
  ASSERT_TRUE(env.Insert(LiveSide::kP, {Point{1.0, 2.0}, 5000}).ok());
  ASSERT_TRUE(env.Compact().ok());
  ASSERT_TRUE(env.Delete(LiveSide::kP, 5000).ok());
  ASSERT_TRUE(env.Insert(LiveSide::kP, {Point{3.0, 4.0}, 5000}).ok());
  ExpectSamePairs(SerialMerged(env.TakeSnapshot(), RcjAlgorithm::kObj),
                  Oracle(env), "delete+reinsert across compaction");
  ASSERT_TRUE(env.Compact().ok());
  ExpectSamePairs(SerialMerged(env.TakeSnapshot(), RcjAlgorithm::kObj),
                  Oracle(env), "after second compaction");
  EXPECT_EQ(env.stats().compactions, 2u);
}

TEST(LiveEnvironmentTest, MutationErrorsAreStrict) {
  const std::vector<PointRecord> qset = RandomRecords(10, 961);
  std::vector<PointRecord> pset = RandomRecords(10, 962);
  for (PointRecord& rec : pset) rec.id += 1000;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());
  LiveEnvironment& env = *live.value();

  // Duplicate live id, invalid id, delete of a never-live id.
  EXPECT_EQ(env.Insert(LiveSide::kQ, {Point{1.0, 1.0}, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(env.Insert(LiveSide::kQ, {Point{1.0, 1.0}, kInvalidPointId})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(env.Delete(LiveSide::kQ, 4242).code(), StatusCode::kNotFound);
  // The q/p id namespaces are independent in a two-dataset environment.
  EXPECT_TRUE(env.Insert(LiveSide::kP, {Point{1.0, 1.0}, 0}).ok());
  // Deleting a live id twice fails the second time.
  EXPECT_TRUE(env.Delete(LiveSide::kQ, 0).ok());
  EXPECT_EQ(env.Delete(LiveSide::kQ, 0).code(), StatusCode::kNotFound);
  // Exactly two mutations succeeded: the kP insert and the kQ delete.
  EXPECT_EQ(env.stats().epoch, 2u);
}

TEST(LiveEnvironmentTest, PureDeltaEnvironmentStartsFromEmptyBase) {
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create({}, {}, LiveOptions{});
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  LiveEnvironment& env = *live.value();

  SplitMix rng(971);
  for (PointId id = 0; id < 40; ++id) {
    ASSERT_TRUE(env.Insert(LiveSide::kQ, {rng.NextPoint(0, 100), id}).ok());
    ASSERT_TRUE(
        env.Insert(LiveSide::kP, {rng.NextPoint(0, 100), id + 1000}).ok());
  }
  ExpectSamePairs(SerialMerged(env.TakeSnapshot(), RcjAlgorithm::kObj),
                  Oracle(env), "pure delta");
  ASSERT_TRUE(env.Compact().ok());
  ExpectSamePairs(SerialMerged(env.TakeSnapshot(), RcjAlgorithm::kObj),
                  Oracle(env), "pure delta, compacted");
}

TEST(LiveEnvironmentTest, QueriesRaceCompactionSafely) {
  // 8 engine threads stream merged queries while a mutator churns and
  // compactions retire base after base underneath them. Snapshots pin
  // what they read, and the engine's cache entries of retired bases age
  // out of its LRU; every parallel result must byte-match a serial run of
  // the same snapshot.
  const std::vector<PointRecord> qset = RandomRecords(800, 971);
  std::vector<PointRecord> pset = RandomRecords(800, 972);
  for (PointRecord& rec : pset) rec.id += 100000;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());
  LiveEnvironment& env = *live.value();

  EngineOptions engine_options;
  engine_options.num_threads = 8;
  Engine engine(engine_options);
  // The engine takes concurrent queries and invalidations (engine.h); only
  // the serial runs, which share the base's buffer, need a mutex.
  std::mutex serial_mu;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread mutator([&] {
    SplitMix rng(973);
    PointId next_id = 200000;
    int since_compact = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const LiveSide side =
          rng.Next() % 2 == 0 ? LiveSide::kQ : LiveSide::kP;
      if (!env.Insert(side, {rng.NextPoint(0, 10000), next_id++}).ok()) {
        failures.fetch_add(1);
      }
      if (++since_compact >= 40) {
        since_compact = 0;
        if (!env.Compact().ok()) failures.fetch_add(1);
      }
    }
  });

  std::vector<std::thread> readers;
  std::atomic<int> queries{0};
  for (int reader = 0; reader < 4; ++reader) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        LiveSnapshot snapshot = env.TakeSnapshot();
        QuerySpec spec = snapshot.Spec();
        spec.algorithm = RcjAlgorithm::kObj;
        Result<RcjRunResult> parallel = engine.Run(spec);
        JoinStats serial_stats;
        std::vector<RcjPair> serial;
        VectorSink serial_sink(&serial);
        Status serial_status;
        {
          std::lock_guard<std::mutex> lock(serial_mu);
          serial_status = snapshot.Run(spec, &serial_sink, &serial_stats);
        }
        if (!parallel.ok() || !serial_status.ok() ||
            parallel.value().pairs.size() != serial.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < serial.size(); ++i) {
          if (parallel.value().pairs[i].p.id != serial[i].p.id ||
              parallel.value().pairs[i].q.id != serial[i].q.id) {
            failures.fetch_add(1);
            break;
          }
        }
        queries.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(2));
  done.store(true);
  mutator.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(queries.load(), 0);
  EXPECT_GT(env.stats().compactions, 0u);

  // Quiesced: the final state still matches the oracle.
  ExpectSamePairs(SerialMerged(env.TakeSnapshot(), RcjAlgorithm::kObj),
                  Oracle(env), "after the race");
}

TEST(LiveEnvironmentTest, BackgroundCompactionTriggersAtThreshold) {
  const std::vector<PointRecord> qset = RandomRecords(100, 981);
  std::vector<PointRecord> pset = RandomRecords(100, 982);
  for (PointRecord& rec : pset) rec.id += 10000;
  LiveOptions options;
  options.compact_threshold = 50;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, options);
  ASSERT_TRUE(live.ok());
  LiveEnvironment& env = *live.value();

  Churner churn(&env, 983, 20000);
  churn.Seed(LiveSide::kQ, qset);
  churn.Seed(LiveSide::kP, pset);
  for (int step = 0; step < 400; ++step) {
    churn.Step();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The background thread owes us at least one compaction; wait for the
  // pending volume to drop below the threshold.
  for (int spin = 0; spin < 500; ++spin) {
    const LiveStats stats = env.stats();
    if (stats.compactions > 0 &&
        stats.delta_size + stats.tombstones < options.compact_threshold) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(env.stats().compactions, 0u);
  ExpectSamePairs(SerialMerged(env.TakeSnapshot(), RcjAlgorithm::kObj),
                  Oracle(env), "after background compaction");
}

TEST(LiveEnvironmentTest, FileBackedLiveEnvironmentCompacts) {
  const std::vector<PointRecord> qset = RandomRecords(300, 991);
  std::vector<PointRecord> pset = RandomRecords(300, 992);
  for (PointRecord& rec : pset) rec.id += 10000;
  LiveOptions options;
  options.build.storage = StorageBackend::kFile;
  options.build.storage_dir = StorageDir();
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  LiveEnvironment& env = *live.value();

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);

  // Every algorithm, BRUTE included, answers on a file-backed base both
  // serially and through the engine — before any compaction and after
  // each one.
  const auto expect_oracle = [&](const char* label) {
    SCOPED_TRACE(label);
    const std::vector<RcjPair> oracle = Oracle(env);
    ASSERT_GT(oracle.size(), 0u);
    const LiveSnapshot snapshot = env.TakeSnapshot();
    for (const RcjAlgorithm algorithm :
         {RcjAlgorithm::kObj, RcjAlgorithm::kBrute}) {
      SCOPED_TRACE(AlgorithmName(algorithm));
      ExpectSamePairs(SerialMerged(snapshot, algorithm), oracle, "serial");
      QuerySpec spec = snapshot.Spec();
      spec.algorithm = algorithm;
      Result<RcjRunResult> parallel = engine.Run(spec);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectSamePairs(parallel.value().pairs, oracle, "engine");
    }
  };

  Churner churn(&env, 993, 20000);
  churn.Seed(LiveSide::kQ, qset);
  churn.Seed(LiveSide::kP, pset);
  for (int step = 1; step <= 200; ++step) {
    churn.Step();
    if (::testing::Test::HasFatalFailure()) return;
    if (step == 100) {
      expect_oracle("file-backed, before compaction");
      ASSERT_TRUE(env.Compact().ok());
      expect_oracle("file-backed, compacted once");
    }
  }
  expect_oracle("file-backed churn");
  ASSERT_TRUE(env.Compact().ok());
  expect_oracle("file-backed, compacted twice");
}

TEST(LiveEnvironmentTest, SnapshotPinsItsBaseThroughCompaction) {
  const std::vector<PointRecord> qset = RandomRecords(150, 995);
  std::vector<PointRecord> pset = RandomRecords(150, 996);
  for (PointRecord& rec : pset) rec.id += 10000;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());

  LiveSnapshot old_snapshot = live.value()->TakeSnapshot();
  const std::vector<RcjPair> before =
      SerialMerged(old_snapshot, RcjAlgorithm::kObj);

  // A compaction must block on the drain while the snapshot pins the old
  // base, and complete once the pin is released.
  ASSERT_TRUE(
      live.value()->Insert(LiveSide::kQ, {Point{1.0, 1.0}, 90000}).ok());
  std::atomic<bool> compacted{false};
  Status compact_status;
  std::thread compactor([&] {
    compact_status = live.value()->Compact();
    compacted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The pinned snapshot still reads its frozen epoch while the compaction
  // waits on the drain.
  ExpectSamePairs(SerialMerged(old_snapshot, RcjAlgorithm::kObj), before,
                  "pinned snapshot during compaction");
  EXPECT_FALSE(compacted.load());
  old_snapshot = LiveSnapshot();  // release the pin
  compactor.join();
  EXPECT_TRUE(compact_status.ok()) << compact_status.ToString();
  EXPECT_EQ(live.value()->stats().compactions, 1u);

  // A snapshot also keeps its (current) base alive past the environment.
  LiveSnapshot survivor = live.value()->TakeSnapshot();
  const std::vector<RcjPair> expected =
      SerialMerged(survivor, RcjAlgorithm::kObj);
  live.value().reset();
  ExpectSamePairs(SerialMerged(survivor, RcjAlgorithm::kObj), expected,
                  "snapshot after environment destruction");
}

// Dynamic RCJ: the join maintained under insertions into two pointsets
// that both start empty — the paper's decision-support scenario of a new
// site opening, updated in place instead of re-running the batch join.

std::unique_ptr<LiveEnvironment> EmptyLive() {
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create({}, {}, LiveOptions{});
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  return std::move(live).value();
}

std::vector<RcjPair> MaintainedPairs(LiveEnvironment* live) {
  return SerialMerged(live->TakeSnapshot(), RcjAlgorithm::kObj);
}

TEST(DynamicRcjTest, EmptyJoinHasNoPairs) {
  std::unique_ptr<LiveEnvironment> live = EmptyLive();
  EXPECT_TRUE(MaintainedPairs(live.get()).empty());
}

TEST(DynamicRcjTest, FirstPairAppearsAfterOnePointPerSide) {
  std::unique_ptr<LiveEnvironment> live = EmptyLive();
  ASSERT_TRUE(live->Insert(LiveSide::kP, PointRecord{{100.0, 100.0}, 0}).ok());
  EXPECT_TRUE(MaintainedPairs(live.get()).empty()) << "no Q points yet";
  ASSERT_TRUE(live->Insert(LiveSide::kQ, PointRecord{{200.0, 100.0}, 0}).ok());
  const std::vector<RcjPair> pairs = MaintainedPairs(live.get());
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].circle.center, (Point{150.0, 100.0}));
}

TEST(DynamicRcjTest, InsertionKillsBlockedPair) {
  std::unique_ptr<LiveEnvironment> live = EmptyLive();
  ASSERT_TRUE(live->Insert(LiveSide::kP, PointRecord{{0.0, 0.0}, 0}).ok());
  ASSERT_TRUE(live->Insert(LiveSide::kQ, PointRecord{{10.0, 0.0}, 0}).ok());
  ASSERT_EQ(MaintainedPairs(live.get()).size(), 1u);
  // A new P point in the middle of the existing pair's circle kills it and
  // forms a new, tighter pair with the Q point.
  ASSERT_TRUE(live->Insert(LiveSide::kP, PointRecord{{5.0, 0.1}, 1}).ok());
  const auto ids = testing_util::PairIds(MaintainedPairs(live.get()));
  EXPECT_TRUE(ids.count({0, 0}) == 0) << "old pair must be invalidated";
  EXPECT_TRUE(ids.count({1, 0}) != 0) << "new point pairs with q0";
}

class DynamicSequenceSweep
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(DynamicSequenceSweep, MatchesBatchJoinAfterEveryInsertion) {
  const auto [n_per_side, seed] = GetParam();
  const std::vector<PointRecord> pset = GenerateUniform(n_per_side, seed);
  const std::vector<PointRecord> qset =
      GenerateUniform(n_per_side, seed + 1000);
  std::unique_ptr<LiveEnvironment> live = EmptyLive();
  std::vector<PointRecord> inserted_p;
  std::vector<PointRecord> inserted_q;

  // Interleave insertions; cross-check against brute force at checkpoints
  // (every insertion for small runs would be O(n^4) overall).
  const size_t checkpoint = std::max<size_t>(1, n_per_side / 4);
  for (size_t i = 0; i < n_per_side; ++i) {
    ASSERT_TRUE(live->Insert(LiveSide::kP, pset[i]).ok());
    inserted_p.push_back(pset[i]);
    ASSERT_TRUE(live->Insert(LiveSide::kQ, qset[i]).ok());
    inserted_q.push_back(qset[i]);
    if ((i + 1) % checkpoint == 0 || i + 1 == n_per_side) {
      ExpectSamePairs(MaintainedPairs(live.get()),
                      BruteForceRcj(inserted_p, inserted_q),
                      ("after " + std::to_string(i + 1) + " rounds").c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DynamicSequenceSweep,
    ::testing::Combine(::testing::Values<size_t>(20, 60, 120),
                       ::testing::Values<uint64_t>(900, 901)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DynamicRcjTest, SkewedInsertionOrderStillCorrect) {
  // All P first, then all Q — exercises the one-sided phases.
  const std::vector<PointRecord> pset = GenerateUniform(80, 910);
  const std::vector<PointRecord> qset = GenerateUniform(80, 911);
  std::unique_ptr<LiveEnvironment> live = EmptyLive();
  for (const PointRecord& p : pset) {
    ASSERT_TRUE(live->Insert(LiveSide::kP, p).ok());
  }
  EXPECT_TRUE(MaintainedPairs(live.get()).empty());
  for (const PointRecord& q : qset) {
    ASSERT_TRUE(live->Insert(LiveSide::kQ, q).ok());
  }
  ExpectSamePairs(MaintainedPairs(live.get()), BruteForceRcj(pset, qset),
                  "P-then-Q order");
}

TEST(DynamicRcjTest, ClusteredInsertions) {
  const std::vector<PointRecord> pset =
      GenerateGaussianClusters(100, 3, 600.0, 920);
  const std::vector<PointRecord> qset =
      GenerateGaussianClusters(100, 3, 600.0, 921);
  std::unique_ptr<LiveEnvironment> live = EmptyLive();
  for (size_t i = 0; i < pset.size(); ++i) {
    ASSERT_TRUE(live->Insert(LiveSide::kP, pset[i]).ok());
    ASSERT_TRUE(live->Insert(LiveSide::kQ, qset[i]).ok());
  }
  ExpectSamePairs(MaintainedPairs(live.get()), BruteForceRcj(pset, qset),
                  "clustered");
}

}  // namespace
}  // namespace rcj
