// Tests for rcj::ShardRouter + rcj::AdmissionController: routing must not
// change results (every environment's stream through the router equals the
// single-Service stream), placement must be stable and pinnable, and
// admission must shed with kOverloaded under load while its ledger
// reconciles exactly.
#include "shard/shard_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rcj.h"
#include "workload/generator.h"

namespace rcj {
namespace {

std::unique_ptr<RcjEnvironment> BuildEnv(size_t n, uint64_t seed) {
  const std::vector<PointRecord> qset = GenerateUniform(n, seed);
  const std::vector<PointRecord> pset = GenerateUniform(n + 50, seed + 1);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

void ExpectSameSequence(const std::vector<RcjPair>& got,
                        const std::vector<RcjPair>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].p.id, want[i].p.id) << label << " at " << i;
    ASSERT_EQ(got[i].q.id, want[i].q.id) << label << " at " << i;
  }
}

TEST(AdmissionControllerTest, LedgerReconcilesAndBoundsHold) {
  AdmissionLimits limits;
  limits.max_queue_per_shard = 2;
  limits.max_inflight_total = 3;
  AdmissionController admission(2, limits);

  // Shard 0 fills to its per-shard bound.
  EXPECT_TRUE(admission.TryAdmit(0).ok());
  EXPECT_TRUE(admission.TryAdmit(0).ok());
  const Status shard_full = admission.TryAdmit(0);
  EXPECT_EQ(shard_full.code(), StatusCode::kOverloaded);

  // Shard 1 has queue room, but the third global slot is the last one.
  EXPECT_TRUE(admission.TryAdmit(1).ok());
  const Status global_full = admission.TryAdmit(1);
  EXPECT_EQ(global_full.code(), StatusCode::kOverloaded);
  EXPECT_EQ(admission.total_inflight(), 3u);

  // Releases free capacity and classify outcomes.
  admission.Release(0, Status::OK());
  admission.Release(0, Status::Cancelled("dropped"));
  admission.Release(1, Status::IoError("boom"));
  EXPECT_EQ(admission.total_inflight(), 0u);
  EXPECT_TRUE(admission.TryAdmit(0).ok());
  admission.Release(0, Status::OK());

  const AdmissionController::ShardCounters shard0 =
      admission.shard_counters(0);
  EXPECT_EQ(shard0.submitted, 4u);
  EXPECT_EQ(shard0.admitted, 3u);
  EXPECT_EQ(shard0.shed, 1u);
  EXPECT_EQ(shard0.completed, 2u);
  EXPECT_EQ(shard0.cancelled, 1u);
  EXPECT_EQ(shard0.failed, 0u);
  EXPECT_EQ(shard0.admitted + shard0.shed, shard0.submitted);

  const AdmissionController::ShardCounters shard1 =
      admission.shard_counters(1);
  EXPECT_EQ(shard1.submitted, 2u);
  EXPECT_EQ(shard1.admitted, 1u);
  EXPECT_EQ(shard1.shed, 1u);
  EXPECT_EQ(shard1.failed, 1u);
  EXPECT_EQ(shard1.admitted + shard1.shed, shard1.submitted);
}

TEST(ShardRouterTest, RegistrationPlacementAndLookup) {
  std::unique_ptr<RcjEnvironment> env_a = BuildEnv(300, 501);
  std::unique_ptr<RcjEnvironment> env_b = BuildEnv(300, 503);

  ShardRouterOptions options;
  options.num_shards = 4;
  options.placement["pinned"] = 3;
  ShardRouter router(options);

  ASSERT_TRUE(router.RegisterEnvironment("pinned", env_a.get()).ok());
  ASSERT_TRUE(router.RegisterEnvironment("hashed", env_b.get()).ok());
  EXPECT_EQ(router.ShardOf("pinned"), 3u);
  EXPECT_LT(router.ShardOf("hashed"), 4u);
  // The hash is stable: the same name maps to the same shard on a fresh
  // router with the same shard count.
  ShardRouter twin(options);
  EXPECT_EQ(twin.ShardOf("hashed"), router.ShardOf("hashed"));

  EXPECT_EQ(router.FindEnvironment("pinned"), env_a.get());
  EXPECT_EQ(router.FindEnvironment("hashed"), env_b.get());
  EXPECT_EQ(router.FindEnvironment("nosuch"), nullptr);

  // Duplicate names, null environments, and out-of-range pins are refused.
  EXPECT_EQ(router.RegisterEnvironment("pinned", env_b.get()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router.RegisterEnvironment("null", nullptr).code(),
            StatusCode::kInvalidArgument);
  ShardRouterOptions bad_pin;
  bad_pin.num_shards = 2;
  bad_pin.placement["oops"] = 7;
  ShardRouter bad_router(bad_pin);
  EXPECT_EQ(bad_router.RegisterEnvironment("oops", env_a.get()).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardRouterTest, UnknownEnvironmentIsNotFoundAndNotCounted) {
  ShardRouterOptions options;
  options.num_shards = 2;
  ShardRouter router(options);

  CountingSink sink;
  QueryTicket ticket;
  const Status status = router.Submit("ghost", QuerySpec{}, &sink, &ticket);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(ticket.valid());
  for (const ShardStatus& shard : router.Stats()) {
    EXPECT_EQ(shard.counters.submitted, 0u)
        << "a routing miss is not an admission event";
  }
}

TEST(ShardRouterTest, RoutedStreamsMatchSingleServicePath) {
  // The routing correctness contract: for every registered environment,
  // the pair stream delivered through the sharded router is exactly the
  // stream the pre-sharding single Service delivers.
  std::vector<std::unique_ptr<RcjEnvironment>> envs;
  std::vector<std::string> names;
  for (size_t e = 0; e < 3; ++e) {
    envs.push_back(BuildEnv(700 + 100 * e, 521 + 2 * e));
    names.push_back("env" + std::to_string(e));
  }

  const RcjAlgorithm algorithms[] = {RcjAlgorithm::kObj, RcjAlgorithm::kInj,
                                     RcjAlgorithm::kBij};
  constexpr size_t kQueries = 9;

  // Ground truth: one plain Service, the PR-2 path.
  std::vector<std::vector<RcjPair>> expected(kQueries);
  {
    Service service(ServiceOptions{});
    std::vector<std::unique_ptr<VectorSink>> sinks;
    std::vector<QueryTicket> tickets;
    for (size_t i = 0; i < kQueries; ++i) {
      QuerySpec spec = QuerySpec::For(envs[i % 3].get());
      spec.algorithm = algorithms[i % 3];
      if (i == 4) spec.limit = 11;
      sinks.push_back(std::make_unique<VectorSink>(&expected[i]));
      tickets.push_back(service.Submit(spec, sinks.back().get()));
    }
    for (QueryTicket& ticket : tickets) ASSERT_TRUE(ticket.Wait().ok());
  }

  ShardRouterOptions options;
  options.num_shards = 2;
  ShardRouter router(options);
  for (size_t e = 0; e < 3; ++e) {
    ASSERT_TRUE(router.RegisterEnvironment(names[e], envs[e].get()).ok());
  }

  std::vector<std::vector<RcjPair>> streams(kQueries);
  std::vector<std::unique_ptr<VectorSink>> sinks;
  std::vector<QueryTicket> tickets(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    QuerySpec spec;  // env bound by the router
    spec.algorithm = algorithms[i % 3];
    if (i == 4) spec.limit = 11;
    sinks.push_back(std::make_unique<VectorSink>(&streams[i]));
    ASSERT_TRUE(router
                    .Submit(names[i % 3], spec, sinks.back().get(),
                            &tickets[i])
                    .ok());
  }
  for (size_t i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(tickets[i].Wait().ok()) << "query " << i;
    ExpectSameSequence(streams[i], expected[i],
                       ("query " + std::to_string(i)).c_str());
  }

  uint64_t completed = 0;
  for (const ShardStatus& shard : router.Stats()) {
    EXPECT_EQ(shard.counters.shed, 0u);
    completed += shard.counters.completed;
  }
  EXPECT_EQ(completed, kQueries);
}

TEST(ShardRouterTest, OnAdmitRunsBeforeAnyPairIsDelivered) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(600, 531);
  ShardRouter router(ShardRouterOptions{});
  ASSERT_TRUE(router.RegisterEnvironment("default", env.get()).ok());

  std::atomic<bool> admitted{false};
  bool pair_before_admit = false;
  CallbackSink sink([&](const RcjPair&) {
    if (!admitted.load()) pair_before_admit = true;
    return true;
  });
  QueryTicket ticket;
  ASSERT_TRUE(router
                  .Submit("default", QuerySpec{}, &sink, &ticket,
                          [&] { admitted.store(true); })
                  .ok());
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_TRUE(admitted.load());
  EXPECT_FALSE(pair_before_admit)
      << "on_admit must run before the first Emit()";

  // A shed submission never runs on_admit.
  ShardRouterOptions tight;
  tight.admission.max_inflight_total = 1;
  ShardRouter tight_router(tight);
  ASSERT_TRUE(tight_router.RegisterEnvironment("default", env.get()).ok());
  // Hold the only slot with a gated query.
  std::atomic<bool> release{false};
  CallbackSink gate_sink([&](const RcjPair&) {
    while (!release.load()) std::this_thread::yield();
    return true;
  });
  QueryTicket gate;
  ASSERT_TRUE(
      tight_router.Submit("default", QuerySpec{}, &gate_sink, &gate).ok());
  bool shed_admit_ran = false;
  QueryTicket shed;
  const Status status = tight_router.Submit(
      "default", QuerySpec{}, nullptr, &shed, [&] { shed_admit_ran = true; });
  EXPECT_EQ(status.code(), StatusCode::kOverloaded);
  EXPECT_FALSE(shed_admit_ran);
  EXPECT_FALSE(shed.valid());
  release.store(true);
  ASSERT_TRUE(gate.Wait().ok());
}

TEST(ShardRouterTest, OnDoneRunsOnceAfterThePairsAndTheSlotRelease) {
  // The network server's completion wake: on_done fires exactly once per
  // admitted query, after every pair was delivered and the slot released.
  std::unique_ptr<RcjEnvironment> env = BuildEnv(600, 537);
  ShardRouter router(ShardRouterOptions{});
  ASSERT_TRUE(router.RegisterEnvironment("default", env.get()).ok());

  CountingSink sink;
  QueryTicket ticket;
  int done_calls = 0;
  uint64_t pairs_at_done = 0;
  uint64_t inflight_at_done = 1;
  const size_t shard = router.ShardOf("default");
  const auto on_done = [&] {
    ++done_calls;
    pairs_at_done = sink.count();
    inflight_at_done = router.Stats()[shard].counters.inflight;
  };
  ASSERT_TRUE(router
                  .Submit("default", QuerySpec{}, &sink, &ticket, nullptr,
                          on_done)
                  .ok());
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_EQ(done_calls, 1);
  EXPECT_GT(sink.count(), 0u);
  EXPECT_EQ(pairs_at_done, sink.count());
  EXPECT_EQ(inflight_at_done, 0u);

  // A rejected submission never runs on_done.
  bool rejected_done_ran = false;
  const Status rejected =
      router.Submit("missing", QuerySpec{}, nullptr, nullptr, nullptr,
                    [&] { rejected_done_ran = true; });
  EXPECT_EQ(rejected.code(), StatusCode::kNotFound);
  EXPECT_FALSE(rejected_done_ran);
}

TEST(ShardRouterTest, FloodAgainstTightLimitsShedsAndReconciles) {
  // The admission acceptance shape, in-process: tiny caps, a concurrent
  // flood, and the invariant admitted + shed == submitted with a mix of
  // both outcomes.
  std::unique_ptr<RcjEnvironment> env = BuildEnv(1500, 541);

  ShardRouterOptions options;
  options.num_shards = 2;
  options.admission.max_queue_per_shard = 1;
  options.admission.max_inflight_total = 1;
  ShardRouter router(options);
  ASSERT_TRUE(router.RegisterEnvironment("default", env.get()).ok());

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 6;
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> shed_count{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) {
        CountingSink sink;
        QueryTicket ticket;
        const Status status =
            router.Submit("default", QuerySpec{}, &sink, &ticket);
        if (status.code() == StatusCode::kOverloaded) {
          shed_count.fetch_add(1);
          continue;
        }
        ASSERT_TRUE(status.ok());
        ASSERT_TRUE(ticket.Wait().ok());
        ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every submission ended exactly one way; with an in-flight cap of 1 and
  // 8 concurrent submitters, both outcomes must have occurred.
  EXPECT_EQ(ok_count.load() + shed_count.load(), kThreads * kPerThread);
  EXPECT_GT(ok_count.load(), 0u);
  EXPECT_GT(shed_count.load(), 0u);

  const std::vector<ShardStatus> stats = router.Stats();
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  for (const ShardStatus& shard : stats) {
    EXPECT_EQ(shard.counters.admitted + shard.counters.shed,
              shard.counters.submitted)
        << "shard " << shard.shard;
    EXPECT_EQ(shard.counters.inflight, 0u) << "shard " << shard.shard;
    submitted += shard.counters.submitted;
    admitted += shard.counters.admitted;
    shed += shard.counters.shed;
    completed += shard.counters.completed;
  }
  EXPECT_EQ(submitted, kThreads * kPerThread);
  EXPECT_EQ(admitted, ok_count.load());
  EXPECT_EQ(shed, shed_count.load());
  EXPECT_EQ(completed, admitted);
}

TEST(ShardRouterTest, DestructionDrainsAdmittedWork) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(800, 551);

  std::vector<CountingSink> sinks(4);
  std::vector<QueryTicket> tickets(4);
  {
    ShardRouterOptions options;
    options.num_shards = 2;
    ShardRouter router(options);
    ASSERT_TRUE(router.RegisterEnvironment("default", env.get()).ok());
    for (size_t i = 0; i < tickets.size(); ++i) {
      ASSERT_TRUE(
          router.Submit("default", QuerySpec{}, &sinks[i], &tickets[i])
              .ok());
    }
    // Router destroyed here with work likely still queued.
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    Status status;
    ASSERT_TRUE(tickets[i].TryGet(&status)) << "ticket " << i;
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(sinks[i].count(), sinks[0].count());
  }
}

TEST(ShardRouterTest, LiveRegistrationRoutesMutationsAndSnapshotsQueries) {
  const std::vector<PointRecord> qset = GenerateUniform(400, 561);
  const std::vector<PointRecord> pset = GenerateUniform(450, 562);
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());
  std::unique_ptr<RcjEnvironment> static_env = BuildEnv(300, 563);

  ShardRouterOptions options;
  options.num_shards = 2;
  ShardRouter router(options);
  ASSERT_TRUE(
      router.RegisterLiveEnvironment("live", live.value().get()).ok());
  ASSERT_TRUE(router.RegisterEnvironment("static", static_env.get()).ok());

  // Live registrations have no stable environment pointer to hand out.
  EXPECT_EQ(router.FindEnvironment("live"), nullptr);
  EXPECT_EQ(router.FindEnvironment("static"), static_env.get());

  // Mutation routing: applied to the live target, NotFound for unknown
  // names, NotSupported for static ones.
  LiveStats after;
  PointRecord rec{Point{0.25, 0.75}, 90000};
  ASSERT_TRUE(router.Insert("live", LiveSide::kQ, rec, &after).ok());
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_EQ(after.delta_size, 1u);
  ASSERT_TRUE(router.Delete("live", LiveSide::kP, pset[3].id, &after).ok());
  EXPECT_EQ(after.tombstones, 1u);
  EXPECT_EQ(router.Insert("ghost", LiveSide::kQ, rec, nullptr).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(router.Insert("static", LiveSide::kQ, rec, nullptr).code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(router.Compact("static", nullptr).code(),
            StatusCode::kNotSupported);

  // A routed live query equals the snapshot's own serial merged stream.
  std::vector<RcjPair> expected;
  {
    const LiveSnapshot snapshot = live.value()->TakeSnapshot();
    const Result<RcjRunResult> run = snapshot.Run(snapshot.Spec());
    ASSERT_TRUE(run.ok());
    expected = run.value().pairs;
  }
  std::vector<RcjPair> routed;
  VectorSink sink(&routed);
  QueryTicket ticket;
  ASSERT_TRUE(router.Submit("live", QuerySpec{}, &sink, &ticket).ok());
  ASSERT_TRUE(ticket.Wait().ok());
  ExpectSameSequence(routed, expected, "routed live stream");

  // Compaction through the router folds everything; the routed stream is
  // unchanged as a set, and EnvStats reflects the new base.
  ASSERT_TRUE(router.Compact("live", &after).ok());
  EXPECT_EQ(after.delta_size, 0u);
  EXPECT_EQ(after.tombstones, 0u);
  EXPECT_EQ(after.compactions, 1u);

  const std::vector<EnvironmentStatus> env_stats = router.EnvStats();
  ASSERT_EQ(env_stats.size(), 2u);  // name-ordered: "live" < "static"
  EXPECT_EQ(env_stats[0].name, "live");
  EXPECT_TRUE(env_stats[0].live);
  EXPECT_EQ(env_stats[0].stats.compactions, 1u);
  EXPECT_EQ(env_stats[0].stats.base_q, qset.size() + 1);
  EXPECT_EQ(env_stats[0].stats.base_p, pset.size() - 1);
  EXPECT_EQ(env_stats[1].name, "static");
  EXPECT_FALSE(env_stats[1].live);
  EXPECT_EQ(env_stats[1].stats.base_q, 300u);
  EXPECT_EQ(env_stats[1].stats.base_p, 350u);

  // Releasing the live registration unwires the hook; later compactions
  // must not call back into the (soon dead) services.
  ASSERT_TRUE(router.ReleaseEnvironment("live").ok());
  EXPECT_EQ(router.Insert("live", LiveSide::kQ, rec, nullptr).code(),
            StatusCode::kNotFound);
}

TEST(ShardRouterTest, LiveQueriesStreamWhileCompactionRuns) {
  // Queries submitted through the router while another thread compacts
  // repeatedly must all resolve with the stream of the snapshot they
  // pinned — nothing torn, nothing stalled.
  const std::vector<PointRecord> base = GenerateUniform(900, 571);
  LiveOptions live_options;
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::CreateSelf(base, live_options);
  ASSERT_TRUE(live.ok());

  ShardRouter router(ShardRouterOptions{});
  ASSERT_TRUE(
      router.RegisterLiveEnvironment("live", live.value().get()).ok());

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    PointId next_id = 500000;
    uint64_t round = 0;
    while (!stop.load()) {
      for (int i = 0; i < 8; ++i) {
        const double jitter = 1e-4 * static_cast<double>(next_id % 97);
        ASSERT_TRUE(router
                        .Insert("live", LiveSide::kQ,
                                PointRecord{Point{0.1 + jitter, 0.9 - jitter},
                                            next_id},
                                nullptr)
                        .ok());
        ++next_id;
      }
      ASSERT_TRUE(router.Compact("live", nullptr).ok());
      ++round;
    }
  });

  for (int i = 0; i < 30; ++i) {
    std::vector<RcjPair> pairs;
    VectorSink sink(&pairs);
    QueryTicket ticket;
    ASSERT_TRUE(router.Submit("live", QuerySpec{}, &sink, &ticket).ok());
    ASSERT_TRUE(ticket.Wait().ok()) << "query " << i;
    // Self-check: every query sees at least the base join's members; the
    // merged stream is internally consistent (dedup rule p.id >= q.id).
    for (const RcjPair& pair : pairs) {
      ASSERT_LT(pair.p.id, pair.q.id) << "query " << i;
    }
  }
  stop.store(true);
  churn.join();
  ASSERT_TRUE(router.ReleaseEnvironment("live").ok());
}

}  // namespace
}  // namespace rcj
