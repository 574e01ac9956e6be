// Shard scaling: throughput of the ShardRouter swept over shard counts,
// under a uniform and a skewed environment mix, plus an admission-control
// shedding run.
//
// This is a systems benchmark, not a paper reproduction (the paper's
// closest analogue is its many dataset configurations — Fig. 16 sizes,
// Fig. 18 cluster counts — served side by side). Shards partition
// admission and scheduling, not threads: every router owns one engine
// with the machine's whole worker budget, and the sweep spreads the same
// environments over 1, 2 and 4 shards. Wall-clock should therefore stay
// roughly flat across shard counts under both mixes — a query on a busy
// shard still gets every idle worker, and the skewed mix (80% of traffic
// on one environment) no longer leaves the cold shards' workers idle
// while the hot shard's queue drains. On a single hardware thread all
// configurations collapse to ~1x, which the JSON artifact records
// honestly.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "shard/shard_router.h"

namespace {

using namespace rcj;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr size_t kEnvironments = 4;

/// Environment index of query `i` under the given mix. The skewed mix
/// sends 4 of every 5 queries to environment 0.
size_t PickEnv(bool skewed, size_t i) {
  if (!skewed) return i % kEnvironments;
  return (i % 5 < 4) ? 0 : 1 + (i / 5) % (kEnvironments - 1);
}

/// Router options: `shards` admission partitions over one engine with the
/// machine's whole worker budget (num_threads 0 = hardware threads).
ShardRouterOptions RouterOptionsFor(size_t shards) {
  ShardRouterOptions options;
  options.num_shards = shards;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::ParseScale(argc, argv);
  bench::PrintBanner(
      "Shard scaling: multi-environment routing over one shared engine",
      "no paper counterpart; wall-clock should stay flat across shard "
      "counts under both mixes",
      scale);

  const size_t n = scale.N(20000);  // per side, per environment
  const size_t queries = scale.full ? 64 : 32;
  std::printf("workload: %zu environments of %zu x %zu uniform points, "
              "%zu OBJ queries per run\n\n",
              kEnvironments, n, n, queries);

  std::vector<std::unique_ptr<RcjEnvironment>> envs;
  for (size_t e = 0; e < kEnvironments; ++e) {
    envs.push_back(bench::MustBuild(GenerateUniform(n, 501 + e),
                                    GenerateUniform(n, 601 + e),
                                    RcjRunOptions{}));
  }
  const std::string env_names[kEnvironments] = {"env0", "env1", "env2",
                                                "env3"};

  bench::JsonReporter reporter("shard_scaling");
  reporter.AddMetric("workload", "environments",
                     static_cast<double>(kEnvironments));
  reporter.AddMetric("workload", "points_per_side", static_cast<double>(n));
  reporter.AddMetric("workload", "queries", static_cast<double>(queries));

  std::printf("%-22s %8s %10s %10s %6s\n", "configuration", "queries",
              "wall(s)", "qps", "shed");
  double baseline_uniform = 0.0;
  for (const bool skewed : {false, true}) {
    for (const size_t shards : {1u, 2u, 4u}) {
      Status status = Status::OK();
      ShardRouter router(RouterOptionsFor(shards));
      for (size_t e = 0; e < kEnvironments && status.ok(); ++e) {
        status = router.RegisterEnvironment(env_names[e], envs[e].get());
      }
      if (!status.ok()) {
        std::fprintf(stderr, "register: %s\n", status.ToString().c_str());
        return 1;
      }

      std::vector<CountingSink> sinks(queries);
      std::vector<QueryTicket> tickets(queries);
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < queries; ++i) {
        QuerySpec spec;  // env bound by the router
        status = router.Submit(env_names[PickEnv(skewed, i)], spec,
                               &sinks[i], &tickets[i]);
        if (!status.ok()) {
          std::fprintf(stderr, "submit %zu: %s\n", i,
                       status.ToString().c_str());
          return 1;
        }
      }
      uint64_t pairs = 0;
      for (size_t i = 0; i < queries; ++i) {
        if (!tickets[i].Wait().ok()) {
          std::fprintf(stderr, "query %zu failed\n", i);
          return 1;
        }
        pairs += sinks[i].count();
      }
      const double wall = SecondsSince(start);
      if (shards == 1 && !skewed) baseline_uniform = wall;
      if (pairs == 0) {
        std::fprintf(stderr, "no pairs streamed — broken workload\n");
        return 1;
      }

      const std::string label = std::string(skewed ? "skewed" : "uniform") +
                                "/shards=" + std::to_string(shards);
      std::printf("%-22s %8zu %10.3f %10.1f %6d\n", label.c_str(), queries,
                  wall, static_cast<double>(queries) / wall, 0);
      reporter.AddMetric(label, "shards", static_cast<double>(shards));
      reporter.AddMetric(label, "wall_seconds", wall);
      reporter.AddMetric(label, "qps",
                         static_cast<double>(queries) / wall);
      reporter.AddMetric(label, "pairs", static_cast<double>(pairs));
      if (baseline_uniform > 0.0) {
        reporter.AddMetric(label, "speedup_vs_1shard_uniform",
                           baseline_uniform / wall);
      }
    }
  }

  // ---- Admission control under a flood: bounded queues shed the excess. --
  {
    ShardRouterOptions options = RouterOptionsFor(2);
    options.admission.max_queue_per_shard = 4;
    ShardRouter router(options);
    for (size_t e = 0; e < kEnvironments; ++e) {
      if (!router.RegisterEnvironment(env_names[e], envs[e].get()).ok()) {
        std::fprintf(stderr, "register failed\n");
        return 1;
      }
    }
    const size_t flood = queries * 4;
    std::vector<CountingSink> sinks(flood);
    std::vector<QueryTicket> tickets(flood);
    size_t shed = 0;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < flood; ++i) {
      QuerySpec spec;
      const Status status =
          router.Submit(env_names[PickEnv(true, i)], spec, &sinks[i],
                        &tickets[i]);
      if (status.code() == StatusCode::kOverloaded) {
        ++shed;
      } else if (!status.ok()) {
        std::fprintf(stderr, "submit %zu: %s\n", i,
                     status.ToString().c_str());
        return 1;
      }
    }
    for (size_t i = 0; i < flood; ++i) {
      if (tickets[i].valid()) (void)tickets[i].Wait();
    }
    const double wall = SecondsSince(start);
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t ledger_shed = 0;
    for (const ShardStatus& shard : router.Stats()) {
      submitted += shard.counters.submitted;
      admitted += shard.counters.admitted;
      ledger_shed += shard.counters.shed;
    }
    if (admitted + ledger_shed != submitted || ledger_shed != shed) {
      std::fprintf(stderr, "admission ledger does not reconcile\n");
      return 1;
    }
    std::printf("%-22s %8zu %10.3f %10.1f %6zu\n", "flood/max-queue=4",
                flood, wall, static_cast<double>(flood - shed) / wall,
                shed);
    reporter.AddMetric("flood", "submitted",
                       static_cast<double>(submitted));
    reporter.AddMetric("flood", "admitted", static_cast<double>(admitted));
    reporter.AddMetric("flood", "shed", static_cast<double>(shed));
    reporter.AddMetric("flood", "wall_seconds", wall);
  }

  reporter.Write();
  return 0;
}
