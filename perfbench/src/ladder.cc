#include "ladder.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "engine/engine.h"
#include "extensions/cost_estimator.h"
#include "net/protocol_client.h"
#include "service/service.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using rcj::net::WireRequest;

/// Timed repetitions of each mutation rung.
constexpr size_t kMutationRounds = 16;
/// Pending delta of the delta-query row where no compaction threshold
/// bounds it; otherwise it stays just below the threshold, so the
/// background compactor never folds it first.
constexpr size_t kDeltaPoints = 24;
/// Ids of the ladder's own far points, apart from the writer's.
constexpr rcj::PointId kLadderIdBase = 2 * kFarIdBase;

/// Per-row samples across the sampled operations, reported as medians.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  double operator[](const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

double Ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

uint64_t FileSize(const std::string& path) {
  struct stat info {};
  return stat(path.c_str(), &info) == 0 ? static_cast<uint64_t>(info.st_size)
                                        : 0;
}

/// One sampled operation bound to the system's current state: a pinned
/// snapshot for the live environment, the static environment otherwise.
struct Bound {
  rcj::RcjEnvironment* env = nullptr;
  rcj::LiveSnapshot snapshot;
  bool live = false;
  rcj::QuerySpec spec;

  rcj::Status RunSerial(const rcj::QuerySpec& query, rcj::PairSink* sink,
                        rcj::JoinStats* stats) const {
    return live ? snapshot.Run(query, sink, stats)
                : env->Run(query, sink, stats);
  }
};

rcj::Result<Bound> Bind(System* system, const WireRequest& request) {
  Bound bound;
  const WorkloadSpec& spec = *system->spec;
  if (ReadsLiveEnv(spec, request)) {
    bound.live = true;
    bound.snapshot = system->live[0]->TakeSnapshot();
    bound.spec = bound.snapshot.Spec();
  } else {
    bound.env = system->FindEnv(request.env_name);
    if (bound.env == nullptr) return rcj::Status::NotFound(request.env_name);
    bound.spec = rcj::QuerySpec::For(bound.env);
  }
  bound.spec.algorithm = request.spec.algorithm;
  bound.spec.order = request.spec.order;
  bound.spec.random_seed = request.spec.random_seed;
  bound.spec.limit = request.spec.limit;
  return bound;
}

/// Calibrates the paper's cost model on two small uniform runs whose
/// T_P heights differ, as bench_ext_costmodel does.
rcj::Result<rcj::CostModelFit> CalibrateCostModel(uint64_t seed) {
  rcj::CostSample samples[2];
  const size_t sizes[2] = {2000, 20000};
  for (int i = 0; i < 2; ++i) {
    rcj::RcjRunOptions options;
    options.buffer_fraction = 1.0;
    rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
        rcj::RcjEnvironment::Build(rcj::GenerateUniform(sizes[i], seed + i),
                                   rcj::GenerateUniform(sizes[i], seed + 7 + i),
                                   options);
    if (!env.ok()) return env.status();
    rcj::JoinStats stats;
    rcj::CountingSink sink;
    const rcj::Status status = env.value()->Run(
        rcj::QuerySpec::For(env.value().get()), &sink, &stats);
    if (!status.ok()) return status;
    samples[i].q_size = sizes[i];
    samples[i].tp_height = env.value()->tp().height();
    samples[i].node_accesses = stats.node_accesses;
  }
  return rcj::FitCostModel(samples[0], samples[1]);
}

class Ladder {
 public:
  Ladder(System* system, const Oracle& oracle, SpanLog* spans,
         uint64_t* attempted, uint64_t* failed)
      : system_(system),
        spec_(*system->spec),
        oracle_(oracle),
        spans_(spans),
        attempted_(attempted),
        failed_(failed),
        threads_(spec_.threads_per_backend),
        engine_t1_(EngineWith(1, spec_.min_pool_pages)),
        engine_(EngineWith(threads_, spec_.min_pool_pages)),
        service_(ServiceWith(threads_, spec_.min_pool_pages)) {}

  /// Replays one sampled operation on every query rung.
  rcj::Status QueryOp(uint64_t op, const WireRequest& request,
                      uint16_t fleet_port) {
    rcj::Result<Bound> bound = Bind(system_, request);
    if (!bound.ok()) return bound.status();
    const rcj::QuerySpec& query = bound.value().spec;

    // Rung 1: the serial runner, which is also the reference stream.
    std::vector<rcj::RcjPair> reference;
    {
      DigestSink sink(&reference);
      rcj::JoinStats stats;
      const Timed timed = Time("core.serial", op, [&] {
        return bound.value().RunSerial(query, &sink, &stats);
      });
      if (!timed.status.ok()) return timed.status;
      samples_.Add("core.serial_ms", timed.ms);
      samples_.Add("core.serial_cpu_ms", timed.cpu_ms);
      samples_.Add("core.serial_first_pair_ms",
                   FirstPairMs(sink, timed.start));
      samples_.Add("core.candidates", stats.candidates);
      samples_.Add("core.candidates_per_result",
                   Ratio(stats.candidates, stats.results));
      samples_.Add("rtree.node_accesses", stats.node_accesses);
      samples_.Add("rtree.us_per_node_access",
                   Ratio(1000.0 * timed.ms, stats.node_accesses));
      serial_ = stats;
    }
    expected_ = ExpectedOf(reference);
    const Expected* oracle = oracle_.For(request);
    Check(oracle == nullptr || (oracle->pairs == expected_.pairs &&
                                oracle->line_digest == expected_.line_digest),
          "core.serial", op);
    if (IsFullQuery(request)) full_node_accesses_ = serial_.node_accesses;
    {
      rcj::QuerySpec filter_only = query;
      filter_only.verify = false;
      DigestSink sink;
      rcj::JoinStats stats;
      const Timed timed = Time("core.filter_only", op, [&] {
        return bound.value().RunSerial(filter_only, &sink, &stats);
      });
      if (!timed.status.ok()) return timed.status;
      samples_.Add("core.filter_only_ms", timed.ms);
    }

    // Rungs 2 and 3: the engine on one thread and at the workload's count.
    for (rcj::Engine* engine : {engine_t1_.get(), engine_.get()}) {
      const bool single = engine == engine_t1_.get();
      DigestSink sink;
      rcj::JoinStats stats;
      const Timed timed =
          Time(single ? "engine.t1" : "engine", op,
               [&] { return engine->Run(query, &sink, &stats); });
      if (!timed.status.ok()) return timed.status;
      CheckSink(sink, single ? "engine.t1" : "engine", op);
      if (single) {
        samples_.Add("engine.t1_query_ms", timed.ms);
        continue;
      }
      samples_.Add("engine.query_ms", timed.ms);
      samples_.Add("engine.cpu_ms", timed.cpu_ms);
      samples_.Add("engine.first_pair_ms", FirstPairMs(sink, timed.start));
      samples_.Add("engine.candidates_ratio",
                   Ratio(stats.candidates, serial_.candidates));
      samples_.Add("engine.node_accesses_ratio",
                   Ratio(stats.node_accesses, serial_.node_accesses));
      samples_.Add("engine.busy_over_wall",
                   Ratio(1000.0 * stats.cpu_seconds, timed.ms));
    }

    // Rung 4: the asynchronous service.
    {
      DigestSink sink;
      const Timed timed = Time("service", op, [&] {
        rcj::QueryTicket ticket = service_->Submit(query, &sink);
        return ticket.Wait();
      });
      if (!timed.status.ok()) return timed.status;
      CheckSink(sink, "service", op);
      samples_.Add("service.done_ms", timed.ms);
      samples_.Add("service.cpu_ms", timed.cpu_ms);
      samples_.Add("service.first_pair_ms", FirstPairMs(sink, timed.start));
    }

    // Rung 5: the shard router of backend 0 (admission included).
    {
      DigestSink sink;
      double submit_us = 0.0;
      const Timed timed = Time("shard", op, [&] {
        rcj::QueryTicket ticket;
        const Clock::time_point start = Clock::now();
        const rcj::Status submitted = system_->routers[0]->Submit(
            request.env_name, request.spec, &sink, &ticket);
        submit_us = 1000.0 * MsBetween(start, Clock::now());
        return submitted.ok() ? ticket.Wait() : submitted;
      });
      if (!timed.status.ok()) return timed.status;
      CheckSink(sink, "shard", op);
      samples_.Add("shard.submit_us", submit_us);
      samples_.Add("shard.done_ms", timed.ms);
      samples_.Add("shard.cpu_ms", timed.cpu_ms);
    }

    // Rungs 6 and 7: the wire, direct to backend 0 and through the proxy;
    // then the same wire query traced, for the tracing overhead.
    const WireOutcome net = Wire("net", op, system_->servers[0]->port(),
                                 request);
    if (!net.status.ok()) return net.status;
    samples_.Add("net.connect_ms", net.connect_ms);
    samples_.Add("net.ok_ms", net.ok_ms);
    samples_.Add("net.done_ms", net.done_ms);
    samples_.Add("net.first_pair_ms", net.first_pair_ms);
    samples_.Add("net.pairs", net.pairs);
    samples_.Add("net.bytes_per_pair", Ratio(net.pair_bytes, net.pairs));
    const rcj::JoinStats& served = net.summary.stats;
    samples_.Add("storage.page_faults", served.page_faults);
    samples_.Add("storage.cold_faults", served.cold_faults);
    samples_.Add("storage.warm_faults", served.warm_faults);
    samples_.Add("storage.hit_ratio",
                 1.0 - Ratio(served.page_faults, served.node_accesses));
    samples_.Add("storage.io_wall_ms", 1000.0 * served.io_wall_seconds);
    samples_.Add("storage.io_wall_share",
                 Ratio(served.io_wall_seconds, served.cpu_seconds));

    const size_t dials_before = FleetDials();
    const WireOutcome fleet = Wire("fleet", op, fleet_port, request);
    if (!fleet.status.ok()) return fleet.status;
    samples_.Add("fleet.done_ms", fleet.done_ms);
    samples_.Add("fleet.dials", static_cast<double>(FleetDials() -
                                                    dials_before));

    WireRequest traced = request;
    traced.trace = true;
    const WireOutcome with_trace =
        Wire("obs.traced", op, system_->servers[0]->port(), traced);
    if (!with_trace.status.ok()) return with_trace.status;
    samples_.Add("obs.traced_done_ms", with_trace.done_ms);
    return rcj::Status::OK();
  }

  /// Mutation rungs on backend 0's writer environment: LiveEnvironment,
  /// then ShardRouter, then the wire; plus compaction, snapshot and the
  /// pending-delta query cost.
  rcj::Status MutationRungs() {
    rcj::LiveEnvironment* live = system_->writer_env();
    rcj::ShardRouter* router = system_->routers[0].get();
    const std::string env = WriterEnv(spec_);
    std::mt19937_64 rng(kLadderIdBase);
    rcj::PointId next_id = kLadderIdBase;
    auto far = [&] { return FarPoint(next_id++, &rng); };

    rcj::Status status = router->Compact(env);
    if (!status.ok()) return status;
    const size_t delta =
        spec_.live && spec_.compact_threshold > 1
            ? std::min(kDeltaPoints, spec_.compact_threshold - 1)
            : kDeltaPoints;
    for (size_t i = 0; i < delta; ++i) {
      status = live->Insert(rcj::LiveSide::kQ, far());
      if (!status.ok()) return status;
    }
    double with_delta_ms = 0.0;
    status = TimeFullJoin(live, &with_delta_ms);
    if (!status.ok()) return status;
    const Clock::time_point compact_start = Clock::now();
    status = router->Compact(env);
    if (!status.ok()) return status;
    samples_.Add("live.compact_ms", MsBetween(compact_start, Clock::now()));
    double compacted_ms = 0.0;
    status = TimeFullJoin(live, &compacted_ms);
    if (!status.ok()) return status;
    samples_.Add("live.delta_query_ratio", Ratio(with_delta_ms, compacted_ms));

    const std::string wal = system_->dir + "/wal-0/wal.log";
    const uint64_t wal_before = FileSize(wal);
    for (size_t i = 0; i < kMutationRounds; ++i) {
      const rcj::PointRecord rec = far();
      Clock::time_point start = Clock::now();
      status = live->Insert(rcj::LiveSide::kP, rec);
      if (!status.ok()) return status;
      samples_.Add("live.insert_us", 1000.0 * MsBetween(start, Clock::now()));
      start = Clock::now();
      status = live->Delete(rcj::LiveSide::kP, rec.id);
      if (!status.ok()) return status;
      samples_.Add("live.delete_us", 1000.0 * MsBetween(start, Clock::now()));
      start = Clock::now();
      const rcj::LiveSnapshot snapshot = live->TakeSnapshot();
      samples_.Add("live.snapshot_us",
                   1000.0 * MsBetween(start, Clock::now()));
    }
    samples_.Add("live.wal_bytes_per_mutation",
                 Ratio(static_cast<double>(FileSize(wal) - wal_before),
                       2.0 * kMutationRounds));

    for (size_t i = 0; i < kMutationRounds; ++i) {
      const rcj::PointRecord rec = far();
      const Clock::time_point start = Clock::now();
      status = router->Insert(env, rcj::LiveSide::kP, rec);
      if (!status.ok()) return status;
      samples_.Add("shard.insert_us",
                   1000.0 * MsBetween(start, Clock::now()));
      status = router->Delete(env, rcj::LiveSide::kP, rec.id);
      if (!status.ok()) return status;
    }

    rcj::Result<rcj::net::ProtocolClient> dialed =
        rcj::net::ProtocolClient::Connect("127.0.0.1",
                                          system_->servers[0]->port());
    if (!dialed.ok()) return dialed.status();
    for (size_t i = 0; i < kMutationRounds; ++i) {
      rcj::net::WireMutation mutation;
      mutation.op = rcj::net::WireMutationOp::kInsert;
      mutation.env_name = env;
      mutation.side = rcj::LiveSide::kP;
      mutation.rec = far();
      for (int step = 0; step < 2; ++step) {
        ++*attempted_;
        const Clock::time_point start = Clock::now();
        status = dialed.value().Mutate(mutation, nullptr);
        if (!status.ok()) return status;
        spans_->Record("net.mutation", i, start, Clock::now());
        samples_.Add("net.mutation_ms", MsBetween(start, Clock::now()));
        mutation.op = rcj::net::WireMutationOp::kDelete;
      }
    }

    // The same inserts into a copy of the environment with no log attached.
    std::vector<rcj::PointRecord> q;
    std::vector<rcj::PointRecord> p;
    live->EffectivePointsets(&q, &p);
    rcj::Result<std::unique_ptr<rcj::LiveEnvironment>> unlogged =
        rcj::LiveEnvironment::Create(q, p, rcj::LiveOptions{});
    if (!unlogged.ok()) return unlogged.status();
    for (size_t i = 0; i < kMutationRounds; ++i) {
      const Clock::time_point start = Clock::now();
      status = unlogged.value()->Insert(rcj::LiveSide::kP, far());
      if (!status.ok()) return status;
      samples_.Add("live.insert_nolog_us",
                   1000.0 * MsBetween(start, Clock::now()));
    }
    return rcj::Status::OK();
  }

  /// The engine's view-cache hit share over the whole ladder.
  double ViewReuseRatio() const {
    const rcj::WorkerContextStats stats = engine_->context_stats();
    return Ratio(stats.reuses, stats.opens + stats.reuses);
  }

  void set_fleet_proxy(const rcj::fleet::FleetProxy* proxy) {
    fleet_proxy_ = proxy;
  }
  const Samples& samples() const { return samples_; }
  uint64_t full_node_accesses() const { return full_node_accesses_; }
  size_t threads() const { return threads_; }

 private:
  struct Timed {
    rcj::Status status;
    Clock::time_point start;
    double ms = 0.0;
    double cpu_ms = 0.0;
  };

  static rcj::EngineOptions EngineOptionsWith(size_t threads,
                                              size_t min_pool_pages) {
    rcj::EngineOptions options;
    options.num_threads = threads;
    options.worker_min_buffer_pages = min_pool_pages;
    return options;
  }
  static std::unique_ptr<rcj::Engine> EngineWith(size_t threads,
                                                 size_t min_pool_pages) {
    return std::make_unique<rcj::Engine>(
        EngineOptionsWith(threads, min_pool_pages));
  }
  static std::unique_ptr<rcj::Service> ServiceWith(size_t threads,
                                                   size_t min_pool_pages) {
    rcj::ServiceOptions options;
    options.engine = EngineOptionsWith(threads, min_pool_pages);
    return std::make_unique<rcj::Service>(options);
  }

  bool IsFullQuery(const WireRequest& request) const {
    return RequestKey(request) == RequestKey(FullQuery(spec_));
  }

  /// Drops page files from the OS cache when the workload runs cold, so
  /// every rung starts from the device like the end-to-end queries.
  void ColdStart() {
    if (spec_.drop_os_cache) system_->DropPageCaches();
  }

  template <typename Call>
  Timed Time(const char* rung, uint64_t op, Call call) {
    ColdStart();
    Timed timed;
    const double cpu_start = ProcessCpuSeconds();
    timed.start = Clock::now();
    timed.status = call();
    const Clock::time_point end = Clock::now();
    timed.cpu_ms = 1000.0 * (ProcessCpuSeconds() - cpu_start);
    timed.ms = MsBetween(timed.start, end);
    spans_->Record(rung, op, timed.start, end);
    ++*attempted_;
    if (!timed.status.ok()) ++*failed_;
    return timed;
  }

  WireOutcome Wire(const char* rung, uint64_t op, uint16_t port,
                   const WireRequest& request) {
    ColdStart();
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    const WireOutcome out = RunWireQuery(port, request);
    spans_->Record(rung, op, start, Clock::now());
    samples_.Add(std::string(rung) + ".cpu_ms",
                 1000.0 * (ProcessCpuSeconds() - cpu_start));
    ++*attempted_;
    if (!out.status.ok()) {
      ++*failed_;
    } else {
      Check(out.pairs == expected_.pairs && out.digest == expected_.line_digest,
            rung, op);
    }
    return out;
  }

  static double FirstPairMs(const DigestSink& sink, Clock::time_point start) {
    return sink.pairs() > 0 ? MsBetween(start, sink.first_pair()) : 0.0;
  }

  void CheckSink(const DigestSink& sink, const char* rung, uint64_t op) {
    Check(sink.pairs() == expected_.pairs &&
              sink.digest() == expected_.pair_digest,
          rung, op);
  }

  void Check(bool ok, const char* rung, uint64_t op) {
    if (ok) return;
    ++*failed_;
    std::fprintf(stderr, "ladder op %llu: the %s stream differs from the "
                 "serial rung\n", static_cast<unsigned long long>(op), rung);
  }

  size_t FleetDials() const {
    return fleet_proxy_ != nullptr ? fleet_proxy_->pool().counters().dials : 0;
  }

  /// Times the unlimited OBJ join over the writer environment's current
  /// snapshot on the workload-width engine (after one untimed warm-up).
  rcj::Status TimeFullJoin(rcj::LiveEnvironment* live, double* ms) {
    engine_->InvalidateCachedViews();
    {
      const rcj::LiveSnapshot snapshot = live->TakeSnapshot();
      for (int round = 0; round < 2; ++round) {
        rcj::CountingSink sink;
        rcj::JoinStats stats;
        const Clock::time_point start = Clock::now();
        const rcj::Status status =
            engine_->Run(snapshot.Spec(), &sink, &stats);
        if (!status.ok()) return status;
        *ms = MsBetween(start, Clock::now());
      }
    }
    engine_->InvalidateCachedViews();
    return rcj::Status::OK();
  }

  System* system_;
  const WorkloadSpec& spec_;
  const Oracle& oracle_;
  SpanLog* spans_;
  uint64_t* attempted_;
  uint64_t* failed_;
  size_t threads_;
  std::unique_ptr<rcj::Engine> engine_t1_;
  std::unique_ptr<rcj::Engine> engine_;
  std::unique_ptr<rcj::Service> service_;
  const rcj::fleet::FleetProxy* fleet_proxy_ = nullptr;
  Samples samples_;
  Expected expected_;
  rcj::JoinStats serial_;
  uint64_t full_node_accesses_ = 0;
};

}  // namespace

rcj::Status RunLadder(System* system, const Oracle& oracle,
                      const LoadResult& load, uint64_t seed, SpanLog* spans,
                      MetricSet* metrics, uint64_t* attempted,
                      uint64_t* failed) {
  const WorkloadSpec& spec = *system->spec;

  // Ledgers of the end-to-end phase, read before the ladder adds to them.
  uint64_t shed = 0;
  for (const auto& router : system->routers) {
    for (const rcj::ShardStatus& shard : router->Stats()) {
      shed += shard.counters.shed;
    }
  }
  const uint64_t compactions = system->writer_env()->stats().compactions;

  // Workloads served without a proxy get one for the fleet rung.
  std::unique_ptr<rcj::fleet::FleetProxy> ladder_proxy;
  const rcj::fleet::FleetProxy* proxy = system->proxy.get();
  if (proxy == nullptr) {
    std::vector<rcj::fleet::BackendAddress> addresses;
    for (const auto& server : system->servers) {
      addresses.push_back({"127.0.0.1", server->port()});
    }
    ladder_proxy = std::make_unique<rcj::fleet::FleetProxy>(addresses);
    const rcj::Status started = ladder_proxy->Start();
    if (!started.ok()) return started;
    proxy = ladder_proxy.get();
  }

  Ladder ladder(system, oracle, spans, attempted, failed);
  ladder.set_fleet_proxy(proxy);
  std::mt19937_64 rng(seed ^ 0x6c616464657200ull);
  const size_t offset = rng() % spec.mix.size();
  for (size_t op = 0; op < spec.ladder_ops; ++op) {
    const WireRequest& request = spec.mix[(offset + op) % spec.mix.size()];
    const rcj::Status status = ladder.QueryOp(op, request, proxy->port());
    if (!status.ok()) return status;
  }
  const double view_reuse = ladder.ViewReuseRatio();

  // Cost-model drift: predicted against measured node accesses of the
  // unlimited OBJ join over envs[0].
  rcj::Result<rcj::CostModelFit> fit = CalibrateCostModel(seed);
  if (!fit.ok()) return fit.status();
  uint64_t measured = ladder.full_node_accesses();
  double predicted = 0.0;
  double tree_pages = 0.0;
  double pool_pages = 0.0;
  {
    // Scoped: the snapshot pin must be released before the mutation rungs
    // compact the environment.
    rcj::Result<Bound> bound = Bind(system, FullQuery(spec));
    if (!bound.ok()) return bound.status();
    if (measured == 0) {
      rcj::CountingSink sink;
      rcj::JoinStats stats;
      const rcj::Status status =
          bound.value().RunSerial(bound.value().spec, &sink, &stats);
      if (!status.ok()) return status;
      measured = stats.node_accesses;
    }
    const rcj::RcjEnvironment* env = bound.value().spec.env;
    predicted = rcj::PredictNodeAccesses(fit.value(), env->tq().num_points(),
                                         env->tp().height());
    // Each worker pool holds 1% of the tree pages, floored like the engine
    // floors it.
    tree_pages = static_cast<double>(env->total_tree_pages());
    pool_pages = std::max(static_cast<double>(spec.min_pool_pages),
                          std::floor(0.01 * tree_pages));
  }

  const rcj::Status mutated = ladder.MutationRungs();
  if (!mutated.ok()) return mutated;

  uint64_t cancelled = 0;
  uint64_t rejected = 0;
  for (const auto& server : system->servers) {
    const rcj::NetServer::Counters counters = server->counters();
    cancelled += counters.cancelled;
    rejected += counters.rejected;
  }
  const rcj::fleet::FleetProxy::Counters fleet = proxy->counters();

  const Samples& s = ladder.samples();
  const double serial_ms = s["core.serial_ms"];
  const double engine_ms = s["engine.query_ms"];
  const double service_ms = s["service.done_ms"];
  const double shard_ms = s["shard.done_ms"];
  const double net_ms = s["net.done_ms"];
  const Tail tail = TailPercentile(load.query_ms);
  double lag_max = 0.0;
  for (const double lag : load.sched_lag_ms) lag_max = std::max(lag_max, lag);

  MetricSet& m = *metrics;
  m.Add("core.serial_ms", serial_ms, "ms");
  m.Add("core.serial_cpu_ms", s["core.serial_cpu_ms"], "ms");
  m.Add("core.filter_only_ms", s["core.filter_only_ms"], "ms");
  m.Add("core.verify_ms", serial_ms - s["core.filter_only_ms"], "ms");
  m.Add("core.serial_first_pair_ms", s["core.serial_first_pair_ms"], "ms");
  m.Add("core.candidates", s["core.candidates"], "count");
  m.Add("core.candidates_per_result", s["core.candidates_per_result"],
        "ratio");
  m.Add("rtree.node_accesses", s["rtree.node_accesses"], "count");
  m.Add("rtree.us_per_node_access", s["rtree.us_per_node_access"], "us");
  m.Add("rtree.costmodel_predicted", predicted, "count");
  m.Add("rtree.costmodel_error",
        Ratio(predicted - static_cast<double>(measured),
              static_cast<double>(measured)),
        "ratio");
  m.Add("storage.page_faults", s["storage.page_faults"], "count");
  m.Add("storage.cold_faults", s["storage.cold_faults"], "count");
  m.Add("storage.warm_faults", s["storage.warm_faults"], "count");
  m.Add("storage.hit_ratio", s["storage.hit_ratio"], "ratio");
  m.Add("storage.io_wall_ms", s["storage.io_wall_ms"], "ms");
  m.Add("storage.io_wall_share", s["storage.io_wall_share"], "ratio");
  m.Add("storage.tree_pages_per_pool", Ratio(tree_pages, pool_pages),
        "ratio");
  m.Add("engine.threads", static_cast<double>(ladder.threads()), "count");
  m.Add("engine.t1_query_ms", s["engine.t1_query_ms"], "ms");
  m.Add("engine.query_ms", engine_ms, "ms");
  m.Add("engine.cpu_ms", s["engine.cpu_ms"], "ms");
  m.Add("engine.speedup", Ratio(serial_ms, engine_ms), "ratio");
  m.Add("engine.first_pair_ms", s["engine.first_pair_ms"], "ms");
  m.Add("engine.candidates_ratio", s["engine.candidates_ratio"], "ratio");
  m.Add("engine.node_accesses_ratio", s["engine.node_accesses_ratio"],
        "ratio");
  m.Add("engine.busy_over_wall", s["engine.busy_over_wall"], "ratio");
  m.Add("engine.view_reuse_ratio", view_reuse, "ratio");
  m.Add("service.done_ms", service_ms, "ms");
  m.Add("service.cpu_ms", s["service.cpu_ms"], "ms");
  m.Add("service.first_pair_ms", s["service.first_pair_ms"], "ms");
  m.Add("service.delta_ms", service_ms - engine_ms, "ms");
  m.Add("shard.submit_us", s["shard.submit_us"], "us");
  m.Add("shard.done_ms", shard_ms, "ms");
  m.Add("shard.cpu_ms", s["shard.cpu_ms"], "ms");
  m.Add("shard.delta_ms", shard_ms - service_ms, "ms");
  m.Add("shard.shed", static_cast<double>(shed), "count");
  m.Add("shard.insert_us", s["shard.insert_us"], "us");
  m.Add("net.connect_ms", s["net.connect_ms"], "ms");
  m.Add("net.ok_ms", s["net.ok_ms"], "ms");
  m.Add("net.first_pair_ms", s["net.first_pair_ms"], "ms");
  m.Add("net.done_ms", net_ms, "ms");
  m.Add("net.cpu_ms", s["net.cpu_ms"], "ms");
  m.Add("net.delta_ms", net_ms - shard_ms, "ms");
  m.Add("net.us_per_pair", Ratio(1000.0 * (net_ms - shard_ms), s["net.pairs"]),
        "us");
  m.Add("net.bytes_per_pair", s["net.bytes_per_pair"], "bytes");
  m.Add("net.mutation_ms", s["net.mutation_ms"], "ms");
  m.Add("net.cancelled", static_cast<double>(cancelled), "count");
  m.Add("net.rejected", static_cast<double>(rejected), "count");
  m.Add("fleet.done_ms", s["fleet.done_ms"], "ms");
  m.Add("fleet.cpu_ms", s["fleet.cpu_ms"], "ms");
  m.Add("fleet.delta_ms", s["fleet.done_ms"] - net_ms, "ms");
  m.Add("fleet.dials", s["fleet.dials"], "1/query");
  m.Add("fleet.retries", static_cast<double>(fleet.retries), "count");
  m.Add("fleet.failovers", static_cast<double>(fleet.failovers), "count");
  m.Add("fleet.backoffs", static_cast<double>(fleet.backoffs), "count");
  m.Add("live.insert_us", s["live.insert_us"], "us");
  m.Add("live.delete_us", s["live.delete_us"], "us");
  m.Add("live.insert_nolog_us", s["live.insert_nolog_us"], "us");
  m.Add("live.wal_bytes_per_mutation", s["live.wal_bytes_per_mutation"],
        "bytes");
  m.Add("live.compactions", static_cast<double>(compactions), "count");
  m.Add("live.compact_ms", s["live.compact_ms"], "ms");
  m.Add("live.snapshot_us", s["live.snapshot_us"], "us");
  m.Add("live.delta_query_ratio", s["live.delta_query_ratio"], "ratio");
  m.Add("obs.trace_overhead", Ratio(s["obs.traced_done_ms"], net_ms),
        "ratio");
  m.Add("bench.sched_lag_p50_ms", Median(load.sched_lag_ms), "ms");
  m.Add("bench.sched_lag_max_ms", lag_max, "ms");
  m.Add("bench.query_tail_percentile", tail.percentile, "%");
  m.Add("bench.query_samples", static_cast<double>(tail.samples), "count");
  return rcj::Status::OK();
}

}  // namespace perfbench
