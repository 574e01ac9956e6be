// Tests for the engine's environment cache (one entry per environment:
// T_Q's leaf order and one warm view per worker): reuse, the LRU cap,
// generation-keyed safety across environment rebuild/destroy, the
// engine/service/router calls that drop entries, and — the contract that
// matters most — cached execution emitting the serial pair stream under
// concurrency, across steal-chunk sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/rcj.h"
#include "engine/engine.h"
#include "live/live_environment.h"
#include "service/service.h"
#include "shard/shard_router.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

std::unique_ptr<RcjEnvironment> MustBuildEnv(size_t n, uint64_t seed) {
  Result<std::unique_ptr<RcjEnvironment>> env = RcjEnvironment::Build(
      GenerateUniform(n, seed), GenerateUniform(n, seed + 1),
      RcjRunOptions{});
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
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

// A one-thread engine runs every query as one unsplit task, so each query
// opens or reuses exactly one view.
EngineOptions OneThread() {
  EngineOptions options;
  options.num_threads = 1;
  return options;
}

TEST(WorkerContextTest, AcquireReusesWarmEntry) {
  std::unique_ptr<RcjEnvironment> env = MustBuildEnv(600, 11);
  Engine engine(OneThread());

  ASSERT_TRUE(engine.Run(QuerySpec::For(env.get())).ok());
  EXPECT_EQ(engine.context_stats().opens, 1u);
  EXPECT_EQ(engine.context_stats().reuses, 0u);
  ASSERT_TRUE(engine.Run(QuerySpec::For(env.get())).ok());
  EXPECT_EQ(engine.context_stats().opens, 1u)
      << "the second query must run on the warm view";
  EXPECT_EQ(engine.context_stats().reuses, 1u);
  EXPECT_EQ(engine.cached_environments(), 1u);
}

TEST(WorkerContextTest, LruCapEvictsOldestEntry) {
  // The engine keeps four environments; a fifth evicts the oldest.
  std::vector<std::unique_ptr<RcjEnvironment>> envs;
  for (uint64_t seed = 21; seed < 31; seed += 2) {
    envs.push_back(MustBuildEnv(500, seed));
  }
  Engine engine(OneThread());

  for (const std::unique_ptr<RcjEnvironment>& env : envs) {
    ASSERT_TRUE(engine.Run(QuerySpec::For(env.get())).ok());
  }
  EXPECT_EQ(engine.cached_environments(), 4u);
  EXPECT_EQ(engine.context_stats().evictions, 1u);

  ASSERT_TRUE(engine.Run(QuerySpec::For(envs[0].get())).ok());
  EXPECT_EQ(engine.context_stats().opens, envs.size() + 1)
      << "the evicted entry must be reopened";
}

TEST(WorkerContextTest, InvalidateDropsMatchingEntries) {
  std::unique_ptr<RcjEnvironment> a = MustBuildEnv(500, 31);
  std::unique_ptr<RcjEnvironment> b = MustBuildEnv(500, 33);
  Engine engine(OneThread());

  ASSERT_TRUE(engine.Run(QuerySpec::For(a.get())).ok());
  ASSERT_TRUE(engine.Run(QuerySpec::For(b.get())).ok());

  engine.InvalidateCachedViews(a.get());
  EXPECT_EQ(engine.cached_environments(), 1u);
  EXPECT_EQ(engine.context_stats().invalidations, 1u);
  ASSERT_TRUE(engine.Run(QuerySpec::For(b.get())).ok());
  EXPECT_EQ(engine.context_stats().opens, 2u)
      << "unrelated entries must survive";

  engine.InvalidateCachedViews(nullptr);
  EXPECT_EQ(engine.cached_environments(), 0u);
  EXPECT_EQ(engine.context_stats().invalidations, 2u);
}

// Collects pairs, and blocks in the first EndBatch until Release().
class GatedSink final : public PairSink {
 public:
  explicit GatedSink(std::vector<RcjPair>* out) : out_(out) {}

  bool Emit(const RcjPair& pair) override {
    out_->push_back(pair);
    return true;
  }

  void EndBatch() override {
    std::unique_lock<std::mutex> lock(mu_);
    if (first_batch_done_) return;
    first_batch_done_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

  void WaitForFirstBatch() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return first_batch_done_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::vector<RcjPair>* out_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool first_batch_done_ = false;
  bool released_ = false;
};

TEST(WorkerContextTest, InvalidateWhileAQueryOverTheEnvironmentStreams) {
  // Dropping the cache's entries mid-query only drops the cache's
  // reference: the running query keeps its entry, views and leaf order,
  // and its stream stays the serial one.
  std::unique_ptr<RcjEnvironment> env = MustBuildEnv(3000, 35);
  const QuerySpec spec = QuerySpec::For(env.get());
  const Result<RcjRunResult> serial = env->Run(spec);
  ASSERT_TRUE(serial.ok());

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);
  std::vector<RcjPair> streamed;
  GatedSink sink(&streamed);
  QueryTicket ticket = engine.Submit(EngineQuery{spec, &sink});
  sink.WaitForFirstBatch();
  engine.InvalidateCachedViews(env.get());
  engine.InvalidateCachedViews();
  EXPECT_EQ(engine.cached_environments(), 0u);
  sink.Release();
  ASSERT_TRUE(ticket.Wait().ok());
  ExpectSameSequence(streamed, serial.value().pairs, "invalidated mid-query");
}

TEST(WorkerContextTest, CachedStreamsIdenticalUnder8Threads) {
  // The headline contract: executing through cached views must not change
  // a single emitted pair, in content or order, even with 8 workers racing
  // over chunked leaf ranges — and repeat batches (warm views) must stay
  // identical too.
  const std::vector<PointRecord> qset = GenerateUniform(3000, 41);
  const std::vector<PointRecord> pset =
      GenerateGaussianClusters(3000, 2, 400.0, 42);  // skewed leaf work
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  QuerySpec spec = QuerySpec::For(env.value().get());
  const Result<RcjRunResult> serial = env.value()->Run(spec);
  ASSERT_TRUE(serial.ok());

  EngineOptions engine_options;
  engine_options.num_threads = 8;
  Engine engine(engine_options);
  for (int repeat = 0; repeat < 3; ++repeat) {
    // A whole batch of the same query, every slot streaming to its own
    // sink: inter-query and intra-query concurrency at once.
    std::vector<std::vector<RcjPair>> streams(4);
    std::vector<std::unique_ptr<VectorSink>> sinks;
    std::vector<EngineQuery> batch(streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
      sinks.push_back(std::make_unique<VectorSink>(&streams[i]));
      batch[i].spec = spec;
      batch[i].sink = sinks[i].get();
    }
    const std::vector<EngineQueryResult> results = engine.RunBatch(batch);
    for (size_t i = 0; i < streams.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok());
      ExpectSameSequence(streams[i], serial.value().pairs,
                         repeat == 0 ? "first batch" : "warm repeat");
    }
  }
}

TEST(WorkerContextTest, StealChunkSizesPreserveTheSerialStream) {
  // The engine sizes a split query's chunks as max(1, leaves / (threads *
  // 2 * 8)) (engine.cc: kTasksPerThread, kChunksPerTask). Two tree sizes
  // swept over four thread counts cover one-leaf chunks and multi-leaf
  // ones; every stream must be the serial one.
  bool saw_one_leaf = false;
  bool saw_multi_leaf = false;
  for (const size_t n : {size_t{2500}, size_t{10000}}) {
    const std::vector<PointRecord> qset = GenerateUniform(n, 51);
    const std::vector<PointRecord> pset = GenerateUniform(2500, 52);
    Result<std::unique_ptr<RcjEnvironment>> env =
        RcjEnvironment::Build(qset, pset, RcjRunOptions{});
    ASSERT_TRUE(env.ok());
    size_t leaves = 0;
    ASSERT_TRUE(env.value()
                    ->tq()
                    .VisitLeavesDepthFirst([&](const Node&) {
                      ++leaves;
                      return true;
                    })
                    .ok());

    QuerySpec spec = QuerySpec::For(env.value().get());
    const Result<RcjRunResult> serial = env.value()->Run(spec);
    ASSERT_TRUE(serial.ok());

    for (const size_t threads : {2, 3, 4, 8}) {
      const size_t chunk = std::max<size_t>(1, leaves / (threads * 2 * 8));
      (chunk == 1 ? saw_one_leaf : saw_multi_leaf) = true;
      EngineOptions engine_options;
      engine_options.num_threads = threads;
      Engine engine(engine_options);
      std::vector<RcjPair> streamed;
      VectorSink sink(&streamed);
      JoinStats stats;
      ASSERT_TRUE(engine.Run(spec, &sink, &stats).ok())
          << "threads=" << threads << " chunk=" << chunk;
      ExpectSameSequence(streamed, serial.value().pairs, "steal chunk");
      EXPECT_EQ(stats.cold_faults + stats.warm_faults, stats.page_faults);
    }
  }
  EXPECT_TRUE(saw_one_leaf) << "no sweep point had one-leaf chunks";
  EXPECT_TRUE(saw_multi_leaf) << "no sweep point had multi-leaf chunks";
}

TEST(WorkerContextTest, EngineSurvivesEnvironmentRebuildAndDestroy) {
  // The generation key (plus InvalidateCachedViews) must keep a rebuilt —
  // possibly same-address — environment from ever hitting a stale cached
  // view. ASan turns a miss here into a hard failure.
  Engine engine(EngineOptions{});

  std::unique_ptr<RcjEnvironment> env = MustBuildEnv(1200, 61);
  QuerySpec spec = QuerySpec::For(env.get());
  const Result<RcjRunResult> before = engine.Run(spec);
  ASSERT_TRUE(before.ok());

  // Tear the environment down and rebuild (the allocator may well hand
  // back the same address); the engine must re-open views, not reuse.
  engine.InvalidateCachedViews(env.get());
  env.reset();
  env = MustBuildEnv(1200, 61);
  spec = QuerySpec::For(env.get());
  const Result<RcjRunResult> after = engine.Run(spec);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value().pairs.size(), after.value().pairs.size());
  testing_util::ExpectSamePairs(after.value().pairs, before.value().pairs,
                                "rebuilt environment");

  // Destroy without a directed invalidation: a full drop must also work.
  engine.InvalidateCachedViews();
  env.reset();
  std::unique_ptr<RcjEnvironment> other = MustBuildEnv(900, 71);
  const Result<RcjRunResult> fresh = engine.Run(QuerySpec::For(other.get()));
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh.value().pairs.size(), 0u);

  // Destroy and rebuild with no invalidation at all: the stale entry is
  // never used again, and dropping it later touches no freed store.
  other.reset();
  other = MustBuildEnv(900, 71);
  const Result<RcjRunResult> rebuilt =
      engine.Run(QuerySpec::For(other.get()));
  ASSERT_TRUE(rebuilt.ok());
  testing_util::ExpectSamePairs(rebuilt.value().pairs, fresh.value().pairs,
                                "rebuilt without invalidation");
  other.reset();
  engine.InvalidateCachedViews();
}

TEST(WorkerContextTest, ContextStatsReportReuseAcrossBatches) {
  std::unique_ptr<RcjEnvironment> env = MustBuildEnv(1500, 81);
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);

  const QuerySpec spec = QuerySpec::For(env.get());
  ASSERT_TRUE(engine.Run(spec).ok());
  const WorkerContextStats first = engine.context_stats();
  EXPECT_GT(first.opens, 0u);
  ASSERT_TRUE(engine.Run(spec).ok());
  const WorkerContextStats second = engine.context_stats();
  EXPECT_EQ(second.opens, first.opens)
      << "the repeat batch must not open any new views";
  EXPECT_GT(second.reuses, first.reuses);
}

TEST(ServiceInvalidationTest, InvalidateEnvironmentMidServiceIsSafe) {
  // An environment is rebuilt while the service keeps running other
  // traffic: InvalidateEnvironment drops the views while queries over the
  // other environment run, after which destroying it is safe (ASan).
  ServiceOptions options;
  options.engine.num_threads = 2;
  Service service(options);

  std::unique_ptr<RcjEnvironment> doomed = MustBuildEnv(1200, 91);
  std::unique_ptr<RcjEnvironment> stable = MustBuildEnv(1200, 93);

  std::vector<RcjPair> doomed_pairs;
  VectorSink doomed_sink(&doomed_pairs);
  QueryTicket ticket =
      service.Submit(QuerySpec::For(doomed.get()), &doomed_sink);
  ASSERT_TRUE(ticket.Wait().ok());
  ASSERT_GT(doomed_pairs.size(), 0u);

  // Keep the service busy on the other environment while invalidating
  // (null sink = discard pairs, stats-only).
  std::vector<QueryTicket> background;
  for (int i = 0; i < 6; ++i) {
    background.push_back(
        service.Submit(QuerySpec::For(stable.get()), nullptr));
  }

  service.InvalidateEnvironment(doomed.get());
  doomed.reset();  // safe: no worker holds views over it anymore

  std::unique_ptr<RcjEnvironment> rebuilt = MustBuildEnv(1200, 91);
  std::vector<RcjPair> rebuilt_pairs;
  VectorSink rebuilt_sink(&rebuilt_pairs);
  QueryTicket again =
      service.Submit(QuerySpec::For(rebuilt.get()), &rebuilt_sink);
  ASSERT_TRUE(again.Wait().ok());
  testing_util::ExpectSamePairs(rebuilt_pairs, doomed_pairs,
                                "rebuilt environment through service");
  for (QueryTicket& t : background) ASSERT_TRUE(t.Wait().ok());
}

TEST(ServiceInvalidationTest, ShutdownDrainsCachedViews) {
  std::unique_ptr<RcjEnvironment> env = MustBuildEnv(1200, 95);
  auto service = std::make_unique<Service>(ServiceOptions{});

  CountingSink sink;
  QueryTicket ticket = service->Submit(QuerySpec::For(env.get()), &sink);
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_GT(sink.count(), 0u);

  service->Shutdown();
  // The Shutdown contract: every cached view is gone, so the environment
  // may die before the service object does (ASan validates the claim).
  env.reset();
  // Post-shutdown invalidation is a documented no-op, not a hang.
  service->InvalidateEnvironment(nullptr);
  service.reset();
}

TEST(ShardRouterInvalidationTest, ReleaseEnvironmentDropsViewsAndRebinds) {
  ShardRouterOptions options;
  options.num_shards = 2;
  options.service.engine.num_threads = 2;
  ShardRouter router(options);

  std::unique_ptr<RcjEnvironment> west = MustBuildEnv(1200, 97);
  std::unique_ptr<RcjEnvironment> east = MustBuildEnv(1200, 99);
  ASSERT_TRUE(router.RegisterEnvironment("west", west.get()).ok());
  ASSERT_TRUE(router.RegisterEnvironment("east", east.get()).ok());

  std::vector<RcjPair> first_pairs;
  VectorSink first_sink(&first_pairs);
  QueryTicket ticket;
  ASSERT_TRUE(
      router.Submit("west", QuerySpec{}, &first_sink, &ticket).ok());
  ASSERT_TRUE(ticket.Wait().ok());
  ASSERT_GT(first_pairs.size(), 0u);

  EXPECT_EQ(router.ReleaseEnvironment("nowhere").code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(router.ReleaseEnvironment("west").ok());
  EXPECT_EQ(router.FindEnvironment("west"), nullptr);
  QueryTicket rejected;
  EXPECT_EQ(router.Submit("west", QuerySpec{}, nullptr, &rejected).code(),
            StatusCode::kNotFound);
  west.reset();  // safe: the shard's engine dropped its views

  // Rebuild under the same name — same shard (stable hash), fresh views.
  std::unique_ptr<RcjEnvironment> rebuilt = MustBuildEnv(1200, 97);
  ASSERT_TRUE(router.RegisterEnvironment("west", rebuilt.get()).ok());
  std::vector<RcjPair> second_pairs;
  VectorSink second_sink(&second_pairs);
  ASSERT_TRUE(
      router.Submit("west", QuerySpec{}, &second_sink, &ticket).ok());
  ASSERT_TRUE(ticket.Wait().ok());
  testing_util::ExpectSamePairs(second_pairs, first_pairs,
                                "released and re-registered environment");

  // Untouched environment keeps serving throughout.
  CountingSink east_sink;
  ASSERT_TRUE(router.Submit("east", QuerySpec{}, &east_sink, &ticket).ok());
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_GT(east_sink.count(), 0u);
}

TEST(ShardRouterInvalidationTest, LiveEnvironmentOutlivesItsRouter) {
  // A live environment may outlive the router that served it, released or
  // not: a later compaction must not reach the dead router's engine (ASan
  // turns a call into its freed memory into a hard failure).
  const std::vector<PointRecord> qset = GenerateUniform(1200, 101);
  std::vector<PointRecord> pset = GenerateUniform(1200, 102);
  for (PointRecord& rec : pset) rec.id += 100000;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());

  ShardRouterOptions options;
  options.service.engine.num_threads = 2;
  auto router = std::make_unique<ShardRouter>(options);
  ASSERT_TRUE(
      router->RegisterLiveEnvironment("live", live.value().get()).ok());
  CountingSink sink;
  QueryTicket ticket;
  ASSERT_TRUE(router->Submit("live", QuerySpec{}, &sink, &ticket).ok());
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_GT(sink.count(), 0u);
  router.reset();  // no ReleaseEnvironment

  ASSERT_TRUE(
      live.value()->Insert(LiveSide::kQ, {Point{10.0, 20.0}, 500000}).ok());
  ASSERT_TRUE(live.value()->Compact().ok());
  EXPECT_EQ(live.value()->stats().compactions, 1u);
}

TEST(ShardRouterInvalidationTest, CompactionChurnKeepsTheCacheBounded) {
  // Every compaction retires a base whose cache entry nobody drops by
  // name: the LRU cap alone must bound what the engine keeps.
  const std::vector<PointRecord> qset = GenerateUniform(1200, 103);
  std::vector<PointRecord> pset = GenerateUniform(1200, 104);
  for (PointRecord& rec : pset) rec.id += 100000;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());

  ShardRouterOptions options;
  options.service.engine.num_threads = 2;
  ShardRouter router(options);
  ASSERT_TRUE(
      router.RegisterLiveEnvironment("live", live.value().get()).ok());
  const WorkerContextStats before = router.engine().context_stats();
  for (PointId i = 0; i < 12; ++i) {
    CountingSink sink;
    QueryTicket ticket;
    ASSERT_TRUE(router.Submit("live", QuerySpec{}, &sink, &ticket).ok());
    ASSERT_TRUE(ticket.Wait().ok());
    EXPECT_GT(sink.count(), 0u);
    EXPECT_LE(router.engine().cached_environments(), 4u);
    ASSERT_TRUE(live.value()
                    ->Insert(LiveSide::kQ,
                             {Point{10.0 * i, 20.0 * i}, 500000 + i})
                    .ok());
    ASSERT_TRUE(live.value()->Compact().ok());
  }
  EXPECT_EQ(live.value()->stats().compactions, 12u);
  // At least eight of the twelve bases' entries left the cache, each with
  // the view its query opened. A rebuilt base may reuse the address of
  // the one it retired; the generation check then drops the stale entry
  // as an invalidation rather than an eviction.
  const WorkerContextStats after = router.engine().context_stats();
  EXPECT_GE(after.evictions + after.invalidations -
                (before.evictions + before.invalidations),
            8u)
      << "evictions " << after.evictions << ", invalidations "
      << after.invalidations;
}

}  // namespace
}  // namespace rcj
