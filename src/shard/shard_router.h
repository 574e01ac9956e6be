// ShardRouter — multi-environment sharded serving over rcj::Service.
//
// The service layer funnels every query into one engine and its one pool
// queue: a hot environment's backlog delays every other environment,
// and nothing bounds the backlog. The router fixes both at the layer the
// paper's evaluation implies (many dataset configurations, independently
// queryable): it owns N shards, each pairing a slice of the named-
// environment registry with its OWN rcj::Service — own Engine, own worker
// pool and pool queue — so traffic to one environment can only
// queue behind its shardmates, never behind the whole process. An
// AdmissionController in front enforces a bounded queue per shard and a
// global in-flight cap: over-limit submissions resolve immediately with
// StatusCode::kOverloaded instead of queueing unboundedly.
//
// Environments are assigned to shards by explicit pin
// (ShardRouterOptions::placement) or, by default, by a stable FNV-1a hash
// of the name — the same name lands on the same shard on every platform
// and every run, so operators can predict and rebalance placement.
//
// This is the layer the network front end submits through: NetServer maps
// `ERR Overloaded` onto shed submissions and serves the router's per-shard
// ledger as the STATS wire command.
#ifndef RINGJOIN_SHARD_SHARD_ROUTER_H_
#define RINGJOIN_SHARD_SHARD_ROUTER_H_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "live/live_environment.h"
#include "service/service.h"
#include "shard/admission.h"

namespace rcj {

struct ShardRouterOptions {
  /// Number of shards; each owns a Service (and its engine). 0 is
  /// treated as 1. Mind the multiplication: every shard's engine sizes
  /// itself to hardware threads unless service.engine.num_threads caps it.
  size_t num_shards = 1;
  /// Knobs applied to every shard's service.
  ServiceOptions service;
  /// Bounded queue depth per shard + global in-flight cap (0 = unbounded).
  AdmissionLimits admission;
  /// Explicit environment placement (env name -> shard index), overriding
  /// the hash for the named environments. Lets an operator isolate a known
  /// hot environment on its own shard.
  std::map<std::string, size_t> placement;
};

/// Point-in-time view of one shard, the STATS wire command's source.
struct ShardStatus {
  size_t shard = 0;
  size_t environments = 0;  ///< environments registered on this shard.
  size_t queued = 0;        ///< Service::pending(): engine queue depth.
  AdmissionController::ShardCounters counters;
};

/// Point-in-time view of one registered environment, the STATS wire
/// command's per-environment rows. Static registrations report their
/// build generation and packed sizes with every mutation counter zero.
struct EnvironmentStatus {
  std::string name;
  size_t shard = 0;
  bool live = false;
  LiveStats stats;
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions options = {});
  /// Shuts every shard's service down (draining admitted work) before the
  /// shards are torn down.
  ~ShardRouter();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(ShardRouter);

  /// Registers a built environment under `name` on its assigned shard
  /// (placement pin, else hash). The environment must outlive the router
  /// and is treated as strictly read-only. InvalidArgument on a duplicate
  /// name or an out-of-range placement pin. Not thread-safe against
  /// Submit() — register everything before taking traffic, like the
  /// net server's construction-time registry.
  Status RegisterEnvironment(const std::string& name,
                             const RcjEnvironment* env);

  /// Registers a mutable environment under `name`. The router takes over
  /// the environment's invalidation hook (wiring retired-base teardown to
  /// the shard service's view drop), so the caller must not set one.
  /// Same registration discipline and errors as RegisterEnvironment;
  /// mutations themselves are fully concurrent once registered.
  Status RegisterLiveEnvironment(const std::string& name,
                                 LiveEnvironment* env);

  /// Unregisters `name` and drops every cached worker view (and plan) its
  /// shard's engine holds over the environment, blocking until the drop is
  /// applied — after it returns, the environment may be destroyed and the
  /// name re-registered (e.g. with a rebuilt environment). The caller must
  /// first stop traffic to the name and resolve its outstanding tickets,
  /// the same discipline RegisterEnvironment demands. For a live
  /// registration this also unwires the invalidation hook. NotFound when
  /// the name is not registered.
  Status ReleaseEnvironment(const std::string& name);

  /// The shard `env_name` is (or would be) assigned to.
  size_t ShardOf(const std::string& env_name) const;

  /// The registered static environment, or nullptr. Live registrations
  /// also return nullptr: their base environment changes at every
  /// compaction, so there is no stable pointer to hand out — submit (and
  /// mutate) by name instead.
  const RcjEnvironment* FindEnvironment(const std::string& env_name) const;

  /// Routed mutations, by environment name. NotFound for an unregistered
  /// name, NotSupported when the name is a static registration; otherwise
  /// the live environment's own result. On success `*after`, when set,
  /// receives the environment's counters observed right after the
  /// mutation (the MUT wire acknowledgement's payload).
  Status Insert(const std::string& env_name, LiveSide side,
                const PointRecord& rec, LiveStats* after = nullptr);
  Status Delete(const std::string& env_name, LiveSide side, PointId id,
                LiveStats* after = nullptr);
  Status Compact(const std::string& env_name, LiveStats* after = nullptr);

  /// Non-blocking sharded submission. The admission decision is made
  /// synchronously: on success `*ticket` is valid, the query is enqueued
  /// on the environment's shard, and its slot is returned automatically
  /// when the ticket resolves. NotFound for an unregistered environment;
  /// InvalidArgument when the bound spec fails validation (rejected
  /// before admission, so the net server's ERR always precedes its OK);
  /// Overloaded when the shard queue or the global in-flight cap is full
  /// (counted as shed, `*ticket` untouched). `spec.env` (and, for live
  /// environments, `spec.overlay`) is bound by the router — any prior
  /// value is overwritten. A live submission runs against a fresh
  /// snapshot, which the router keeps pinned until the ticket resolves —
  /// compaction can retire the base mid-query without invalidating it.
  ///
  /// `on_admit`, when set, runs synchronously inside the call after the
  /// query is admitted but before it can produce pairs — the hook the
  /// network server uses to put its OK acknowledgement on the wire ahead
  /// of any PAIR line. `on_done`, when set, runs once as the admitted
  /// query completes, after its slot is released and just before the
  /// ticket resolves (on an engine worker, or inline for a query the
  /// shut-down service refuses) — the network server's wake-up.
  Status Submit(const std::string& env_name, QuerySpec spec, PairSink* sink,
                QueryTicket* ticket,
                const std::function<void()>& on_admit = nullptr,
                std::function<void()> on_done = nullptr);

  /// Per-shard snapshot, indexed by shard.
  std::vector<ShardStatus> Stats() const;

  /// Per-environment snapshot, ordered by name (so the STATS wire rows
  /// are deterministic).
  std::vector<EnvironmentStatus> EnvStats() const;

  size_t num_shards() const { return shards_.size(); }
  /// Worker threads across all shard engines (for banners/logs).
  size_t num_threads() const;

 private:
  struct Shard {
    std::unique_ptr<Service> service;
    size_t environments = 0;
  };

  /// One named registration: exactly one of `env` (static, read-only) and
  /// `live` (mutable) is set.
  struct Registration {
    const RcjEnvironment* env = nullptr;
    LiveEnvironment* live = nullptr;
    size_t shard = 0;
  };

  /// Shared tail of both Register flavours: placement checks plus the
  /// registry insert.
  Status RegisterImpl(const std::string& name, Registration registration);

  /// The live registration under `name` (NotFound / NotSupported as
  /// documented on the mutation routers).
  Result<LiveEnvironment*> FindLive(const std::string& env_name) const;

  ShardRouterOptions options_;
  AdmissionController admission_;
  std::vector<Shard> shards_;
  /// Fixed after registration.
  std::map<std::string, Registration> environments_;
};

}  // namespace rcj

#endif  // RINGJOIN_SHARD_SHARD_ROUTER_H_
