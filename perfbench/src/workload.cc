#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <thread>

#include "common/stable_hash.h"
#include "live/mutation_log.h"
#include "net/protocol_client.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using rcj::net::WireRequest;

// Inputs per side. analytics_full and cold_scan share one size so that a
// CPU change shows on both; the top-k and churn environments are sized so
// their working set fits the worker pools.
constexpr size_t kAnalyticsPoints = 30000;
constexpr size_t kTopkPoints = 50000;
constexpr size_t kChurnPoints = 50000;
constexpr size_t kSidePoints = 2000;
constexpr size_t kTopkLimit = 100;
/// Random leaf orders per (environment, algorithm) of interactive_topk.
constexpr uint64_t kTopkOrders = 8;
/// Offered rate of interactive_topk: about half the closed-loop capacity
/// of its three senders through the proxy (see perfbench/README.md).
constexpr double kTopkOfferedQps = 73.0;
/// Far points the writer keeps alive before it deletes the oldest.
constexpr size_t kWriterWindow = 16;

uint64_t Derive(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

WireRequest Query(const std::string& env, rcj::RcjAlgorithm algorithm,
                  uint64_t limit) {
  WireRequest request;
  request.env_name = env;
  request.spec.algorithm = algorithm;
  request.spec.limit = limit;
  return request;
}

/// Environment names whose placements split evenly over `backends`.
std::vector<std::string> SpreadNames(const std::string& stem, size_t count,
                                     size_t backends) {
  std::vector<std::string> names;
  std::vector<size_t> per_backend(backends, 0);
  for (size_t candidate = 0; names.size() < count; ++candidate) {
    const std::string name = stem + std::to_string(candidate);
    const size_t slot = rcj::StableHash(name) % backends;
    if (per_backend[slot] >= (count + backends - 1) / backends) continue;
    ++per_backend[slot];
    names.push_back(name);
  }
  return names;
}

uint64_t ParseId(const char** cursor) {
  char* end = nullptr;
  const long long value = std::strtoll(*cursor, &end, 10);
  *cursor = end;
  return static_cast<uint64_t>(value);
}

/// True when a PAIR line names a writer-inserted point.
bool NamesFarPoint(const std::string& line) {
  const char* cursor = line.c_str() + 5;  // past "PAIR "
  const uint64_t p_id = ParseId(&cursor);
  const uint64_t q_id = ParseId(&cursor);
  return p_id >= static_cast<uint64_t>(kFarIdBase) ||
         q_id >= static_cast<uint64_t>(kFarIdBase);
}

}  // namespace

rcj::PointRecord FarPoint(rcj::PointId id, std::mt19937_64* rng) {
  std::uniform_real_distribution<double> offset(0.0, 100000.0);
  rcj::PointRecord rec;
  rec.id = id;
  rec.pt.x = 1000000.0 + offset(*rng);
  rec.pt.y = 1000000.0 + offset(*rng);
  return rec;
}

bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.side = {"side", rcj::GenerateUniform(kSidePoints, Derive(seed, 90)),
               rcj::GenerateUniform(kSidePoints, Derive(seed, 91))};
  if (name == "analytics_full" || name == "cold_scan") {
    const uint64_t data_seed = Derive(seed, 1);
    spec.envs.push_back(
        {"pp_sc",
         rcj::MakeRealSurrogate(rcj::RealDataset::kPopulatedPlaces, data_seed,
                                kAnalyticsPoints),
         rcj::MakeRealSurrogate(rcj::RealDataset::kSchools, data_seed,
                                kAnalyticsPoints)});
    spec.mix = {Query("pp_sc", rcj::RcjAlgorithm::kObj, 0)};
    // Two connections on both: with one, the first pair's time is the cost
    // of the first leaf chunk alone, which swings with where the seed put
    // the densest towns; with two it is set by the engine's interleaving.
    spec.query_clients = 2;
    if (name == "cold_scan") {
      spec.build.storage = rcj::StorageBackend::kFile;
      spec.drop_os_cache = true;
      // The pools keep their 1% share (about 15 pages) instead of the
      // 32-page floor, so the trees are 100x each worker's pool.
      spec.min_pool_pages = 8;
    }
  } else if (name == "interactive_topk") {
    spec.backends = 2;
    spec.threads_per_backend = 2;
    spec.proxy = true;
    // Three senders and the writer: four client connections in all.
    spec.query_clients = 3;
    spec.open_loop_qps = kTopkOfferedQps;
    spec.ladder_ops = 8;
    const std::vector<std::string> names = SpreadNames("topk", 4, 2);
    for (size_t e = 0; e < names.size(); ++e) {
      EnvData env;
      env.name = names[e];
      env.q = rcj::GenerateUniform(kTopkPoints, Derive(seed, 10 + e));
      env.p = rcj::GenerateUniform(kTopkPoints, Derive(seed, 20 + e));
      spec.envs.push_back(std::move(env));
      // Random leaf orders from a few seeds per (environment, algorithm):
      // the top-k is then drawn from all over the map, so its cost does not
      // hang on the first leaves of one depth-first order.
      for (const rcj::RcjAlgorithm algorithm :
           {rcj::RcjAlgorithm::kObj, rcj::RcjAlgorithm::kBij,
            rcj::RcjAlgorithm::kInj}) {
        for (uint64_t order = 0; order < kTopkOrders; ++order) {
          WireRequest request = Query(names[e], algorithm, kTopkLimit);
          request.spec.order = rcj::SearchOrder::kRandom;
          request.spec.random_seed = Derive(seed, 100 + spec.mix.size());
          spec.mix.push_back(request);
        }
      }
    }
    std::mt19937_64 rng(Derive(seed, 30));
    std::shuffle(spec.mix.begin(), spec.mix.end(), rng);
  } else if (name == "live_churn") {
    spec.live = true;
    spec.compact_threshold = 8;
    spec.query_clients = 2;
    spec.ladder_ops = 4;
    spec.envs.push_back({"city",
                         rcj::GenerateUniform(kChurnPoints, Derive(seed, 40)),
                         rcj::GenerateUniform(kChurnPoints, Derive(seed, 41))});
    // Clients step through the mix by the client count, so one reader
    // streams full joins only and the other alternates a top-k over a fresh
    // random leaf order with a full join. Full joins are then three
    // quarters of the reads, which keeps the medians off the boundary
    // between the two latency modes. The top-k comes first: set-up
    // completes it as its first query.
    spec.mix = {Query("city", rcj::RcjAlgorithm::kObj, kTopkLimit),
                Query("city", rcj::RcjAlgorithm::kObj, 0),
                Query("city", rcj::RcjAlgorithm::kObj, 0),
                Query("city", rcj::RcjAlgorithm::kObj, 0)};
    spec.mix[0].spec.order = rcj::SearchOrder::kRandom;
  } else {
    return false;
  }
  *out = std::move(spec);
  return true;
}

WireRequest FullQuery(const WorkloadSpec& spec) {
  return Query(spec.envs[0].name, rcj::RcjAlgorithm::kObj, 0);
}

std::string RequestKey(const WireRequest& request) {
  std::string key = request.env_name + "|" +
                    rcj::AlgorithmName(request.spec.algorithm) + "|" +
                    std::to_string(request.spec.limit);
  if (request.spec.order == rcj::SearchOrder::kRandom) {
    key += "|random:" + std::to_string(request.spec.random_seed);
  }
  return key;
}

// ---- System -----------------------------------------------------------------

rcj::Result<std::unique_ptr<System>> System::StandUp(const WorkloadSpec& spec,
                                                     const std::string& dir) {
  std::unique_ptr<System> system(new System());
  system->spec = &spec;
  system->dir = dir;
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) return rcj::Status::IoError("cannot create " + dir);

  rcj::RcjRunOptions build = spec.build;
  build.storage_dir = dir;
  build.min_buffer_pages = spec.min_pool_pages;
  for (size_t e = 0; e < spec.envs.size(); ++e) {
    if (spec.live && e == 0) continue;
    rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
        rcj::RcjEnvironment::Build(spec.envs[e].q, spec.envs[e].p, build);
    if (!env.ok()) return env.status();
    system->envs.push_back(std::move(env).value());
  }

  const EnvData& writer_data = spec.live ? spec.envs[0] : spec.side;
  for (size_t b = 0; b < spec.backends; ++b) {
    rcj::LiveOptions live_options;
    if (spec.live) {
      live_options.build = build;
      live_options.compact_threshold = spec.compact_threshold;
    }
    rcj::Result<std::unique_ptr<rcj::LiveEnvironment>> live =
        rcj::LiveEnvironment::Create(writer_data.q, writer_data.p,
                                     live_options);
    if (!live.ok()) return live.status();
    rcj::MutationLogOptions log_options;
    log_options.dir = dir + "/wal-" + std::to_string(b);
    log_options.sync_interval_ms = spec.wal_sync_ms;
    rcj::WalRecovery recovery;
    rcj::Result<std::unique_ptr<rcj::MutationLog>> log =
        rcj::MutationLog::Open(log_options, &recovery);
    if (!log.ok()) return log.status();
    live.value()->AttachLog(std::move(log).value());
    system->live.push_back(std::move(live).value());
  }

  std::vector<rcj::fleet::BackendAddress> addresses;
  for (size_t b = 0; b < spec.backends; ++b) {
    rcj::ShardRouterOptions router_options;
    router_options.service.engine.num_threads = spec.threads_per_backend;
    router_options.service.engine.worker_min_buffer_pages =
        spec.min_pool_pages;
    system->routers.push_back(
        std::make_unique<rcj::ShardRouter>(router_options));
    rcj::ShardRouter* router = system->routers.back().get();
    size_t static_index = 0;
    for (size_t e = 0; e < spec.envs.size(); ++e) {
      if (spec.live && e == 0) continue;
      const rcj::Status status = router->RegisterEnvironment(
          spec.envs[e].name, system->envs[static_index++].get());
      if (!status.ok()) return status;
    }
    const rcj::Status status = router->RegisterLiveEnvironment(
        writer_data.name, system->live[b].get());
    if (!status.ok()) return status;
    system->servers.push_back(std::make_unique<rcj::NetServer>(router));
    const rcj::Status started = system->servers.back()->Start();
    if (!started.ok()) return started;
    addresses.push_back({"127.0.0.1", system->servers.back()->port()});
  }
  if (spec.proxy) {
    system->proxy = std::make_unique<rcj::fleet::FleetProxy>(addresses);
    const rcj::Status started = system->proxy->Start();
    if (!started.ok()) return started;
  }

  const WireOutcome first = RunWireQuery(system->port(), spec.mix[0]);
  if (!first.status.ok()) return first.status;
  return system;
}

System::~System() = default;

uint16_t System::port() const {
  return proxy != nullptr ? proxy->port() : servers[0]->port();
}

void System::DropPageCaches() const {
  for (const auto& env : envs) {
    env->q_page_store()->DropOsCache();
    env->p_page_store()->DropOsCache();
  }
}

rcj::RcjEnvironment* System::FindEnv(const std::string& name) const {
  size_t static_index = 0;
  for (size_t e = 0; e < spec->envs.size(); ++e) {
    if (spec->live && e == 0) continue;
    if (spec->envs[e].name == name) return envs[static_index].get();
    ++static_index;
  }
  return nullptr;
}

// ---- Oracle -----------------------------------------------------------------

rcj::Status Oracle::Prepare(System* system) {
  const WorkloadSpec& spec = *system->spec;
  for (const WireRequest& request : spec.mix) {
    if (ReadsLiveEnv(spec, request)) continue;
    rcj::RcjEnvironment* env = system->FindEnv(request.env_name);
    if (env == nullptr) return rcj::Status::NotFound(request.env_name);
    rcj::QuerySpec query = request.spec;
    query.env = env;
    rcj::Result<rcj::RcjRunResult> run = env->Run(query);
    if (!run.ok()) return run.status();
    expected_[RequestKey(request)] = ExpectedOf(run.value().pairs);
  }
  if (spec.live) {
    const rcj::LiveSnapshot snapshot = system->live[0]->TakeSnapshot();
    rcj::Result<rcj::RcjRunResult> run = snapshot.Run(snapshot.Spec());
    if (!run.ok()) return run.status();
    for (const rcj::RcjPair& pair : run.value().pairs) {
      base_lines_.insert(rcj::StableHash(rcj::net::FormatPairLine(pair)));
    }
    base_pairs_ = run.value().pairs.size();
    if (base_lines_.size() != base_pairs_) {
      return rcj::Status::Corruption("duplicate base pair lines");
    }
  }
  return rcj::Status::OK();
}

const Expected* Oracle::For(const WireRequest& request) const {
  const auto it = expected_.find(RequestKey(request));
  return it == expected_.end() ? nullptr : &it->second;
}

bool Oracle::CheckChurnStream(const WireRequest& request,
                              const std::vector<std::string>& lines) const {
  std::unordered_set<uint64_t> seen;
  for (const std::string& line : lines) {
    if (NamesFarPoint(line)) continue;
    const uint64_t hash = rcj::StableHash(line);
    if (base_lines_.count(hash) == 0 || !seen.insert(hash).second) {
      return false;
    }
  }
  if (request.spec.limit > 0) return lines.size() == request.spec.limit;
  return seen.size() == base_pairs_;
}

// ---- Load -------------------------------------------------------------------

namespace {

/// One query client's view of the run: issues requests, checks every
/// stream, and keeps its own tallies (merged when the thread ends).
class QueryIssuer {
 public:
  QueryIssuer(System* system, const Oracle& oracle, uint64_t seed)
      : system_(system), oracle_(oracle), rng_(seed) {}

  /// Runs one request; latency counts from `from` (the due time in the
  /// open loop, the send time in the closed loop).
  void Issue(WireRequest request, Clock::time_point from, LoadResult* tally) {
    const WorkloadSpec& spec = *system_->spec;
    const bool churn = ReadsLiveEnv(spec, request);
    if (churn && request.spec.order == rcj::SearchOrder::kRandom) {
      request.spec.random_seed = rng_();
    }
    if (spec.drop_os_cache) {
      system_->DropPageCaches();
      if (from < Clock::now()) from = Clock::now();
    }
    std::vector<std::string> lines;
    ++tally->attempted;
    const WireOutcome out = RunWireQuery(
        system_->port(), request,
        churn ? [&lines](const std::string& line) { lines.push_back(line); }
              : std::function<void(const std::string&)>());
    const Clock::time_point done = Clock::now();
    std::string problem;
    if (!out.status.ok()) {
      problem = out.status.ToString();
    } else if (churn) {
      if (!oracle_.CheckChurnStream(request, lines)) {
        problem = "churn stream fails its check";
      }
    } else {
      const Expected* expected = oracle_.For(request);
      if (expected == nullptr || expected->pairs != out.pairs ||
          expected->line_digest != out.digest) {
        problem = "stream differs from the serial prefix";
      }
    }
    if (!problem.empty()) {
      ++tally->failed;
      std::fprintf(stderr, "query %s: %s\n", RequestKey(request).c_str(),
                   problem.c_str());
      return;
    }
    ++tally->queries;
    tally->pairs += out.pairs;
    tally->query_ms.push_back(MsBetween(from, done));
    if (out.pairs > 0) tally->first_pair_ms.push_back(out.first_pair_ms);
  }

 private:
  System* system_;
  const Oracle& oracle_;
  /// Leaf-order seeds of random-order queries, one fresh seed per query.
  std::mt19937_64 rng_;
};

void Merge(const LoadResult& part, LoadResult* into) {
  auto append = [](const std::vector<double>& from, std::vector<double>* to) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(part.query_ms, &into->query_ms);
  append(part.first_pair_ms, &into->first_pair_ms);
  append(part.mutation_ms, &into->mutation_ms);
  append(part.sched_lag_ms, &into->sched_lag_ms);
  into->attempted += part.attempted;
  into->failed += part.failed;
  into->queries += part.queries;
  into->mutations += part.mutations;
  into->pairs += part.pairs;
}

/// The writer: closed loop on each MUT ack over one connection. It inserts
/// far points and deletes the oldest once kWriterWindow are alive, and
/// checks that every acknowledged epoch is the previous one plus one.
void RunWriter(System* system, uint64_t seed, Clock::time_point deadline,
               LoadResult* tally) {
  const std::string env = WriterEnv(*system->spec);
  std::mt19937_64 rng(Derive(seed, 50));
  std::deque<std::pair<rcj::LiveSide, rcj::PointId>> alive;
  rcj::PointId next_id = kFarIdBase;
  uint64_t previous_epoch = 0;
  bool have_previous = false;
  std::unique_ptr<rcj::net::ProtocolClient> client;
  while (Clock::now() < deadline) {
    if (client == nullptr || !client->connected()) {
      rcj::Result<rcj::net::ProtocolClient> dialed =
          rcj::net::ProtocolClient::Connect("127.0.0.1", system->port());
      if (!dialed.ok()) {
        ++tally->attempted;
        ++tally->failed;
        std::fprintf(stderr, "writer dial: %s\n",
                     dialed.status().ToString().c_str());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      client = std::make_unique<rcj::net::ProtocolClient>(
          std::move(dialed).value());
    }
    rcj::net::WireMutation mutation;
    mutation.env_name = env;
    const bool remove = alive.size() >= kWriterWindow;
    if (remove) {
      mutation.op = rcj::net::WireMutationOp::kDelete;
      mutation.side = alive.front().first;
      mutation.rec.id = alive.front().second;
    } else {
      mutation.op = rcj::net::WireMutationOp::kInsert;
      mutation.side = next_id % 2 == 0 ? rcj::LiveSide::kQ : rcj::LiveSide::kP;
      mutation.rec = FarPoint(next_id++, &rng);
    }
    ++tally->attempted;
    rcj::net::WireMutationAck ack;
    const Clock::time_point sent = Clock::now();
    const rcj::Status status = client->Mutate(mutation, &ack);
    const Clock::time_point acked = Clock::now();
    if (!status.ok()) {
      ++tally->failed;
      std::fprintf(stderr, "mutation: %s\n", status.ToString().c_str());
      client.reset();
      continue;
    }
    if (have_previous && ack.epoch != previous_epoch + 1) {
      ++tally->failed;
      std::fprintf(stderr, "MUT epoch %llu follows %llu\n",
                   static_cast<unsigned long long>(ack.epoch),
                   static_cast<unsigned long long>(previous_epoch));
    } else {
      ++tally->mutations;
      tally->mutation_ms.push_back(MsBetween(sent, acked));
    }
    previous_epoch = ack.epoch;
    have_previous = true;
    if (remove) {
      alive.pop_front();
    } else {
      alive.emplace_back(mutation.side, mutation.rec.id);
    }
  }
}

}  // namespace

LoadResult RunLoad(System* system, const Oracle& oracle, uint64_t seed,
                   double seconds) {
  const WorkloadSpec& spec = *system->spec;
  const size_t clients = spec.query_clients;
  std::vector<LoadResult> tallies(clients + 1);
  std::vector<std::thread> threads;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const size_t offset = Derive(seed, 60) % spec.mix.size();

  threads.emplace_back(RunWriter, system, seed, deadline, &tallies[clients]);
  if (spec.open_loop_qps > 0.0) {
    // A fixed seeded schedule: request i is due at (i + u_i) / rate with
    // u_i uniform in [0, 1), whatever the completions do. Senders take the
    // next due request, so a stall delays later requests and shows in
    // their latency. The jitter is bounded (unlike Poisson gaps), so the
    // tail measures the system rather than the bursts a seed happens to
    // draw.
    std::vector<double> due_s;
    std::mt19937_64 rng(Derive(seed, 70));
    std::uniform_real_distribution<double> jitter(0.0, 1.0);
    for (size_t i = 0;; ++i) {
      const double t = (static_cast<double>(i) + jitter(rng)) /
                       spec.open_loop_qps;
      if (t >= seconds) break;
      due_s.push_back(t);
    }
    auto next = std::make_shared<std::atomic<size_t>>(0);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c, next] {
        QueryIssuer issuer(system, oracle, Derive(seed, 80 + c));
        LoadResult* tally = &tallies[c];
        for (size_t i = next->fetch_add(1); i < due_s.size();
             i = next->fetch_add(1)) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_s[i]));
          std::this_thread::sleep_until(due);
          tally->sched_lag_ms.push_back(MsBetween(due, Clock::now()));
          issuer.Issue(spec.mix[(offset + i) % spec.mix.size()], due, tally);
        }
      });
    }
  } else {
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        QueryIssuer issuer(system, oracle, Derive(seed, 80 + c));
        LoadResult* tally = &tallies[c];
        for (size_t i = offset + c; Clock::now() < deadline; i += clients) {
          issuer.Issue(spec.mix[i % spec.mix.size()], Clock::now(), tally);
        }
      });
    }
  }
  for (std::thread& thread : threads) thread.join();

  LoadResult result;
  for (const LoadResult& tally : tallies) Merge(tally, &result);
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.cpu_s = ProcessCpuSeconds() - cpu_start;
  return result;
}

bool FinalChurnCheck(System* system) {
  const WorkloadSpec& spec = *system->spec;
  rcj::Result<rcj::net::ProtocolClient> dialed =
      rcj::net::ProtocolClient::Connect("127.0.0.1", system->port());
  if (!dialed.ok()) {
    std::fprintf(stderr, "final check dial: %s\n",
                 dialed.status().ToString().c_str());
    return false;
  }
  rcj::net::WireMutation compact;
  compact.op = rcj::net::WireMutationOp::kCompact;
  compact.env_name = spec.envs[0].name;
  const rcj::Status compacted = dialed.value().Mutate(compact, nullptr);
  if (!compacted.ok()) {
    std::fprintf(stderr, "final compact: %s\n", compacted.ToString().c_str());
    return false;
  }
  const WireOutcome streamed = RunWireQuery(system->port(), FullQuery(spec));
  if (!streamed.status.ok()) {
    std::fprintf(stderr, "final query: %s\n",
                 streamed.status.ToString().c_str());
    return false;
  }

  std::vector<rcj::PointRecord> q;
  std::vector<rcj::PointRecord> p;
  system->live[0]->EffectivePointsets(&q, &p);
  rcj::RcjRunOptions build = spec.build;
  build.storage_dir = system->dir;
  rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
      rcj::RcjEnvironment::Build(q, p, build);
  if (!env.ok()) {
    std::fprintf(stderr, "final build: %s\n",
                 env.status().ToString().c_str());
    return false;
  }
  rcj::Result<rcj::RcjRunResult> serial =
      env.value()->Run(rcj::QuerySpec::For(env.value().get()));
  if (!serial.ok()) {
    std::fprintf(stderr, "final serial: %s\n",
                 serial.status().ToString().c_str());
    return false;
  }
  const Expected expected = ExpectedOf(serial.value().pairs);
  if (expected.pairs != streamed.pairs ||
      expected.line_digest != streamed.digest) {
    std::fprintf(stderr,
                 "final stream (%llu pairs) differs from the serial run over "
                 "the effective pointsets (%llu pairs)\n",
                 static_cast<unsigned long long>(streamed.pairs),
                 static_cast<unsigned long long>(expected.pairs));
    return false;
  }
  return true;
}

}  // namespace perfbench
