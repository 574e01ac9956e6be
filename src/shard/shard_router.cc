#include "shard/shard_router.h"

#include <chrono>
#include <utility>

#include "common/stable_hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rcj {

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(std::move(options)),
      admission_(options_.num_shards == 0 ? 1 : options_.num_shards,
                 options_.admission) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  shards_.resize(options_.num_shards);
  for (Shard& shard : shards_) {
    shard.service = std::make_unique<Service>(options_.service);
  }
}

ShardRouter::~ShardRouter() {
  // Each Shutdown() drains that shard's admitted work; their Release()
  // callbacks run during the drain, so admission_ (destroyed after
  // shards_, it is declared first) must still be alive — and is.
  for (Shard& shard : shards_) shard.service->Shutdown();
}

Status ShardRouter::RegisterImpl(const std::string& name,
                                 Registration registration) {
  if (environments_.count(name) != 0) {
    return Status::InvalidArgument("environment '" + name +
                                   "' is already registered");
  }
  const auto pin = options_.placement.find(name);
  if (pin != options_.placement.end() && pin->second >= shards_.size()) {
    return Status::InvalidArgument(
        "placement pins '" + name + "' to shard " +
        std::to_string(pin->second) + " but there are only " +
        std::to_string(shards_.size()) + " shards");
  }
  registration.shard = ShardOf(name);
  ++shards_[registration.shard].environments;
  environments_.emplace(name, registration);
  return Status::OK();
}

Status ShardRouter::RegisterEnvironment(const std::string& name,
                                        const RcjEnvironment* env) {
  if (env == nullptr) {
    return Status::InvalidArgument("environment '" + name + "' is null");
  }
  Registration registration;
  registration.env = env;
  return RegisterImpl(name, registration);
}

Status ShardRouter::RegisterLiveEnvironment(const std::string& name,
                                            LiveEnvironment* env) {
  if (env == nullptr) {
    return Status::InvalidArgument("environment '" + name + "' is null");
  }
  Registration registration;
  registration.live = env;
  RINGJOIN_RETURN_IF_ERROR(RegisterImpl(name, registration));
  // Compaction retires a base only after every snapshot pin drained, and
  // Submit holds each query's snapshot until its ticket resolves — so when
  // this hook fires, no in-flight query of the shard still targets the
  // retired environment, exactly the precondition InvalidateEnvironment
  // demands.
  Service* service = shards_[ShardOf(name)].service.get();
  env->set_invalidation_hook([service](const RcjEnvironment* retired) {
    service->InvalidateEnvironment(retired);
  });
  return Status::OK();
}

Status ShardRouter::ReleaseEnvironment(const std::string& name) {
  const auto it = environments_.find(name);
  if (it == environments_.end()) {
    return Status::NotFound("unknown environment '" + name + "'");
  }
  const Registration registration = it->second;
  environments_.erase(it);
  --shards_[registration.shard].environments;
  Service* service = shards_[registration.shard].service.get();
  if (registration.live != nullptr) {
    // Future compactions must not call back into this router's services.
    registration.live->set_invalidation_hook(nullptr);
    const LiveSnapshot snapshot = registration.live->TakeSnapshot();
    service->InvalidateEnvironment(snapshot.env());
    return Status::OK();
  }
  // Synchronous: once this returns, no worker of the shard's engine holds
  // views over the environment's page stores.
  service->InvalidateEnvironment(registration.env);
  return Status::OK();
}

size_t ShardRouter::ShardOf(const std::string& env_name) const {
  const auto it = environments_.find(env_name);
  if (it != environments_.end()) return it->second.shard;
  const auto pin = options_.placement.find(env_name);
  if (pin != options_.placement.end() && pin->second < shards_.size()) {
    return pin->second;
  }
  return static_cast<size_t>(StableHash(env_name) % shards_.size());
}

const RcjEnvironment* ShardRouter::FindEnvironment(
    const std::string& env_name) const {
  const auto it = environments_.find(env_name);
  return it == environments_.end() ? nullptr : it->second.env;
}

Result<LiveEnvironment*> ShardRouter::FindLive(
    const std::string& env_name) const {
  const auto it = environments_.find(env_name);
  if (it == environments_.end()) {
    return Status::NotFound("unknown environment '" + env_name + "'");
  }
  if (it->second.live == nullptr) {
    return Status::NotSupported("environment '" + env_name +
                                "' is static (not registered live)");
  }
  return it->second.live;
}

Status ShardRouter::Insert(const std::string& env_name, LiveSide side,
                           const PointRecord& rec, LiveStats* after) {
  Result<LiveEnvironment*> live = FindLive(env_name);
  RINGJOIN_RETURN_IF_ERROR(live.status());
  RINGJOIN_RETURN_IF_ERROR(live.value()->Insert(side, rec));
  if (after != nullptr) *after = live.value()->stats();
  return Status::OK();
}

Status ShardRouter::Delete(const std::string& env_name, LiveSide side,
                           PointId id, LiveStats* after) {
  Result<LiveEnvironment*> live = FindLive(env_name);
  RINGJOIN_RETURN_IF_ERROR(live.status());
  RINGJOIN_RETURN_IF_ERROR(live.value()->Delete(side, id));
  if (after != nullptr) *after = live.value()->stats();
  return Status::OK();
}

Status ShardRouter::Compact(const std::string& env_name, LiveStats* after) {
  Result<LiveEnvironment*> live = FindLive(env_name);
  RINGJOIN_RETURN_IF_ERROR(live.status());
  RINGJOIN_RETURN_IF_ERROR(live.value()->Compact());
  if (after != nullptr) *after = live.value()->stats();
  return Status::OK();
}

Status ShardRouter::Submit(const std::string& env_name, QuerySpec spec,
                           PairSink* sink, QueryTicket* ticket,
                           const std::function<void()>& on_admit,
                           std::function<void()> on_done) {
  const auto it = environments_.find(env_name);
  if (it == environments_.end()) {
    return Status::NotFound("unknown environment '" + env_name + "'");
  }
  const Registration& registration = it->second;
  const size_t shard = registration.shard;

  // Bind the spec before admission: a spec the environment cannot run is
  // a rejection, never a started query. Live submissions bind a fresh
  // snapshot — base plus frozen overlay version — and park it in the
  // ticket's done-callback so the base stays pinned (compaction-proof)
  // exactly as long as the query is in flight.
  LiveSnapshot snapshot;
  const auto snapshot_bound_at = std::chrono::steady_clock::now();
  const bool pinned_snapshot = registration.live != nullptr;
  if (pinned_snapshot) {
    snapshot = registration.live->TakeSnapshot();
    spec.env = snapshot.env();
    spec.overlay = snapshot.overlay();
  } else {
    spec.env = registration.env;
  }
  RINGJOIN_RETURN_IF_ERROR(spec.Validate());

  // A query whose budget ran out before admission never takes a slot:
  // shed it now so the queue bounds stay available for work that can
  // still finish inside its deadline.
  if (spec.deadline_expired(std::chrono::steady_clock::now())) {
    return admission_.ShedExpired(shard);
  }

  RINGJOIN_RETURN_IF_ERROR(admission_.TryAdmit(shard));
  // From here the slot is held; every path below ends in the service's
  // on_done firing exactly once (even a post-shutdown Submit resolves
  // inline), which returns it.
  if (on_admit) on_admit();

  const auto admitted_at = std::chrono::steady_clock::now();
  obs::TraceContext* trace = spec.trace;
  QueryTicket submitted = shards_[shard].service->Submit(
      spec, sink,
      [this, shard, snapshot, admitted_at, snapshot_bound_at,
       pinned_snapshot, trace,
       on_done = std::move(on_done)](const Status& final_status) {
        // Admit-to-release is the full time the query held its slot —
        // the latency an operator reconciles against the inflight gauge.
        const auto released_at = std::chrono::steady_clock::now();
        static obs::Histogram* const wait_seconds =
            obs::MetricsRegistry::Default().histogram(
                "rcj_admission_wait_seconds");
        wait_seconds->Observe(
            std::chrono::duration<double>(released_at - admitted_at)
                .count());
        if (trace != nullptr && pinned_snapshot) {
          // The snapshot pin lives from bind until this callback returns
          // it (release happens as the lambda's captures die). The span
          // is what shows a slow query blocking compaction.
          trace->Record("snapshot_pin", 1, snapshot_bound_at, released_at);
        }
        admission_.Release(shard, final_status);
        if (on_done) on_done();
      });
  if (ticket != nullptr) *ticket = submitted;
  return Status::OK();
}

std::vector<ShardStatus> ShardRouter::Stats() const {
  std::vector<ShardStatus> all(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    all[i].shard = i;
    all[i].environments = shards_[i].environments;
    all[i].queued = shards_[i].service->pending();
    all[i].counters = admission_.shard_counters(i);
  }
  return all;
}

std::vector<EnvironmentStatus> ShardRouter::EnvStats() const {
  std::vector<EnvironmentStatus> all;
  all.reserve(environments_.size());
  for (const auto& entry : environments_) {
    EnvironmentStatus status;
    status.name = entry.first;
    status.shard = entry.second.shard;
    status.live = entry.second.live != nullptr;
    if (entry.second.live != nullptr) {
      status.stats = entry.second.live->stats();
    } else {
      const RcjEnvironment* env = entry.second.env;
      status.stats.generation = env->generation();
      status.stats.base_q = env->qset().size();
      status.stats.base_p =
          env->self_join() ? env->qset().size() : env->pset().size();
    }
    all.push_back(std::move(status));
  }
  return all;
}

size_t ShardRouter::num_threads() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.service->num_threads();
  return total;
}

}  // namespace rcj
