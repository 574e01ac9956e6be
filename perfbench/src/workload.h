// The four workloads: the inputs each generates from its seed, the system
// each stands up in-process over loopback, the load each drives, and the
// self-checks every streamed result must pass.
#ifndef RINGJOIN_PERFBENCH_WORKLOAD_H_
#define RINGJOIN_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/runner.h"
#include "fleet/fleet_proxy.h"
#include "harness.h"
#include "live/live_environment.h"
#include "net/net_server.h"
#include "shard/shard_router.h"

namespace perfbench {

/// Ids at or above this mark the points the writers insert. They are placed
/// far outside the data domain, outside every base pair's circle, so they
/// add pairs of their own but never remove a base pair: a stream taken at
/// any epoch can still be checked against the base result.
inline constexpr rcj::PointId kFarIdBase = 1000000000;

/// A far point with the given id.
rcj::PointRecord FarPoint(rcj::PointId id, std::mt19937_64* rng);

struct EnvData {
  std::string name;
  std::vector<rcj::PointRecord> q;
  std::vector<rcj::PointRecord> p;
};

struct WorkloadSpec {
  /// Static environments, registered on every backend. For live_churn,
  /// envs[0] is served as the live environment instead.
  std::vector<EnvData> envs;
  /// Inputs of the side environment the writer mutates when !live.
  EnvData side;
  /// How environments are built (storage backend, pages, buffer sizing).
  rcj::RcjRunOptions build;
  /// Engine worker threads of each backend.
  size_t threads_per_backend = 4;
  /// Floor on every buffer pool (the serial runner's shared buffer and each
  /// engine worker's), which otherwise hold 1% of the tree pages.
  size_t min_pool_pages = 32;
  /// NetServer backends, each with its own router and engine.
  size_t backends = 1;
  /// Clients reach the backends through one FleetProxy.
  bool proxy = false;
  /// envs[0] is a live environment with a write-ahead log; otherwise the
  /// writer targets a small side environment nobody queries.
  bool live = false;
  size_t compact_threshold = 0;
  /// Group-commit window of every write-ahead log.
  int wal_sync_ms = 2;
  /// Closed-loop query connections, or open-loop senders.
  size_t query_clients = 1;
  /// > 0: open loop at this offered rate (queries per second).
  double open_loop_qps = 0.0;
  /// Drop the page files from the OS cache before every query.
  bool drop_os_cache = false;
  /// Query operations replayed rung by rung in the traced run.
  size_t ladder_ops = 3;
  /// The query mix, drawn in order (cyclic) from a seeded offset.
  std::vector<rcj::net::WireRequest> mix;
};

/// The environment the writer mutates.
inline const char* WriterEnv(const WorkloadSpec& spec) {
  return spec.live ? spec.envs[0].name.c_str() : "side";
}

/// True when `request` reads live_churn's live environment.
inline bool ReadsLiveEnv(const WorkloadSpec& spec,
                         const rcj::net::WireRequest& request) {
  return spec.live && request.env_name == spec.envs[0].name;
}

/// Builds the named workload's spec and inputs from `seed`. False for an
/// unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out);

/// The unlimited OBJ query over envs[0] (the ladder's cost-model row, and
/// live_churn's final check).
rcj::net::WireRequest FullQuery(const WorkloadSpec& spec);

/// The system under test of one workload, stood up in-process.
class System {
 public:
  /// Builds the environments, starts routers, servers and the proxy, and
  /// completes the first successful query. `dir` holds page files and the
  /// logs; it is created if missing.
  static rcj::Result<std::unique_ptr<System>> StandUp(const WorkloadSpec& spec,
                                                      const std::string& dir);
  ~System();

  /// Where clients connect: the proxy when there is one, else backend 0.
  uint16_t port() const;
  /// The static environment registered under `name`, or null.
  rcj::RcjEnvironment* FindEnv(const std::string& name) const;
  /// The environment the writer mutates, on backend 0.
  rcj::LiveEnvironment* writer_env() const { return live[0].get(); }
  /// Drops every static environment's page files from the OS cache.
  void DropPageCaches() const;

  const WorkloadSpec* spec = nullptr;
  std::string dir;
  // Declared in teardown order reversed: the proxy stops first, then the
  // servers, the routers (draining their engines), and only then the
  // environments they serve.
  std::vector<std::unique_ptr<rcj::RcjEnvironment>> envs;
  /// One writer environment per backend (the live environment itself when
  /// spec.live, a small side environment otherwise).
  std::vector<std::unique_ptr<rcj::LiveEnvironment>> live;
  std::vector<std::unique_ptr<rcj::ShardRouter>> routers;
  std::vector<std::unique_ptr<rcj::NetServer>> servers;
  std::unique_ptr<rcj::fleet::FleetProxy> proxy;
};

/// Ground truth, computed from the serial runner once the system is up.
class Oracle {
 public:
  /// Precomputes the serial limit-prefix of every request of the mix (and
  /// the live base result for live_churn). Call before any load starts.
  rcj::Status Prepare(System* system);

  /// Expected stream of a static request, or null when not precomputed.
  const Expected* For(const rcj::net::WireRequest& request) const;

  /// Checks one live_churn stream given its PAIR lines: every line not in
  /// the base result R(S0) must name a far point; a limited query streams
  /// exactly `limit` pairs, and an unlimited one carries exactly R(S0)'s
  /// base pairs.
  bool CheckChurnStream(const rcj::net::WireRequest& request,
                        const std::vector<std::string>& lines) const;

 private:
  std::map<std::string, Expected> expected_;
  std::unordered_set<uint64_t> base_lines_;
  uint64_t base_pairs_ = 0;
};

/// Cache key of one request (environment, algorithm, limit).
std::string RequestKey(const rcj::net::WireRequest& request);

/// What one end-to-end load phase observed.
struct LoadResult {
  std::vector<double> query_ms;
  std::vector<double> first_pair_ms;
  std::vector<double> mutation_ms;
  std::vector<double> sched_lag_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< ERR, shed, dropped connection or mismatch.
  uint64_t queries = 0;     ///< completed, checked queries.
  uint64_t mutations = 0;   ///< acknowledged mutations.
  uint64_t pairs = 0;       ///< PAIR lines received.
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Drives the workload's load for `seconds` and checks every result.
LoadResult RunLoad(System* system, const Oracle& oracle, uint64_t seed,
                   double seconds);

/// live_churn's closing check: after a wire COMPACT, an unlimited wire
/// stream must equal a serial run over the environment's effective
/// pointsets. False on mismatch (the reason goes to stderr).
bool FinalChurnCheck(System* system);

}  // namespace perfbench

#endif  // RINGJOIN_PERFBENCH_WORKLOAD_H_
