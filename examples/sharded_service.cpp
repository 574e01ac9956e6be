// Sharded serving with admission control, in one process.
//
// A city's middleman service answers for several districts at once; one of
// them ("downtown") is far hotter than the rest. Funnelled through a
// single service, downtown's backlog would delay every district and grow
// without bound. This example stands up a ShardRouter instead: two shards
// (downtown pinned alone on shard 1, the quiet districts pinned together
// on shard 0 — unpinned names would be hash-placed instead),
// each with its own engine and worker pool, plus tight admission limits —
// so a burst of downtown traffic is partly shed with
// StatusCode::kOverloaded while the quiet districts keep answering, and
// the per-shard ledger reconciles at the end exactly like the network
// server's STATS command.
//
//   $ ./sharded_service
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "shard/shard_router.h"
#include "workload/generator.h"

using namespace rcj;

int main() {
  // Three districts: downtown (hot), harbor and campus (quiet).
  struct District {
    const char* name;
    std::unique_ptr<RcjEnvironment> env;
  };
  std::vector<District> districts;
  districts.push_back({"downtown", nullptr});
  districts.push_back({"harbor", nullptr});
  districts.push_back({"campus", nullptr});
  for (size_t i = 0; i < districts.size(); ++i) {
    const std::vector<PointRecord> q = GenerateUniform(2500, 100 + i);
    const std::vector<PointRecord> p = GenerateUniform(3000, 200 + i);
    Result<std::unique_ptr<RcjEnvironment>> env =
        RcjEnvironment::Build(q, p, RcjRunOptions{});
    if (!env.ok()) {
      std::fprintf(stderr, "build %s: %s\n", districts[i].name,
                   env.status().ToString().c_str());
      return 1;
    }
    districts[i].env = std::move(env).value();
  }

  ShardRouterOptions options;
  options.num_shards = 2;
  options.placement["downtown"] = 1;  // the hot district gets shard 1 alone
  options.placement["harbor"] = 0;
  options.placement["campus"] = 0;
  options.admission.max_queue_per_shard = 4;  // bounded backlog per shard
  options.admission.max_inflight_total = 8;
  ShardRouter router(options);
  for (const District& district : districts) {
    if (const Status status =
            router.RegisterEnvironment(district.name, district.env.get());
        !status.ok()) {
      std::fprintf(stderr, "register: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("router up: %zu shards, downtown pinned to shard %zu, "
              "harbor/campus on shard %zu\n",
              router.num_shards(), router.ShardOf("downtown"),
              router.ShardOf("harbor"));

  // The burst: 24 downtown queries land at once, plus 4 quiet-district
  // queries. Submission is non-blocking either way — shed requests learn
  // their fate immediately instead of queueing behind 20 others.
  struct Flight {
    std::string env;
    CountingSink sink;
    QueryTicket ticket;
    Status admission;
  };
  std::vector<std::unique_ptr<Flight>> flights;
  for (int i = 0; i < 24; ++i) {
    flights.push_back(std::make_unique<Flight>());
    flights.back()->env = "downtown";
  }
  for (int i = 0; i < 2; ++i) {
    flights.push_back(std::make_unique<Flight>());
    flights.back()->env = "harbor";
    flights.push_back(std::make_unique<Flight>());
    flights.back()->env = "campus";
  }
  size_t shed = 0;
  for (auto& flight : flights) {
    QuerySpec spec;  // env bound by the router
    spec.limit = 50;
    flight->admission = router.Submit(flight->env, spec, &flight->sink,
                                      &flight->ticket);
    if (flight->admission.code() == StatusCode::kOverloaded) ++shed;
  }

  size_t completed = 0;
  uint64_t pairs = 0;
  for (auto& flight : flights) {
    if (!flight->admission.ok()) continue;
    if (flight->ticket.Wait().ok()) {
      ++completed;
      pairs += flight->sink.count();
    }
  }
  std::printf("burst of %zu queries: %zu completed (%llu pairs), "
              "%zu shed with ERR Overloaded\n",
              flights.size(), completed,
              static_cast<unsigned long long>(pairs), shed);

  // The ledger the STATS wire command serves, reconciled.
  std::printf("\n%-6s %5s %10s %9s %6s %10s\n", "shard", "envs",
              "submitted", "admitted", "shed", "completed");
  bool reconciled = true;
  for (const ShardStatus& shard : router.Stats()) {
    std::printf("%-6zu %5zu %10llu %9llu %6llu %10llu\n", shard.shard,
                shard.environments,
                static_cast<unsigned long long>(shard.counters.submitted),
                static_cast<unsigned long long>(shard.counters.admitted),
                static_cast<unsigned long long>(shard.counters.shed),
                static_cast<unsigned long long>(shard.counters.completed));
    if (shard.counters.admitted + shard.counters.shed !=
        shard.counters.submitted) {
      reconciled = false;
    }
  }
  if (!reconciled) {
    std::fprintf(stderr, "ledger does not reconcile\n");
    return 1;
  }
  std::printf("\nadmitted + shed == submitted on every shard; quiet "
              "districts were never starved by downtown's burst\n");
  // The demo must actually have exercised both outcomes.
  return (shed > 0 && completed > 0) ? 0 : 1;
}
