#include "fleet/fleet_proxy.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stable_hash.h"
#include "net/line_reader.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rcj {
namespace fleet {
namespace {

/// Registry metrics beyond the proxy's outcome counters: responses
/// actually read from backends (the counter the CI smoke reconciles against
/// the backends' admission ledgers), replayed pairs skipped on failover,
/// mutations replayed by catch-up, and the backoff-delay histogram.
struct ProxyMetrics {
  obs::Counter* forwarded;
  obs::Counter* replay_skipped_pairs;
  obs::Counter* catchup_replayed;
  obs::Histogram* backoff_seconds;

  static const ProxyMetrics& Get() {
    static const ProxyMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      ProxyMetrics m;
      m.forwarded = registry.counter("rcj_proxy_forwarded_total");
      m.replay_skipped_pairs =
          registry.counter("rcj_proxy_replay_skipped_pairs_total");
      m.catchup_replayed =
          registry.counter("rcj_proxy_catchup_replayed_total");
      m.backoff_seconds = registry.histogram("rcj_proxy_backoff_seconds");
      return m;
    }();
    return metrics;
  }
};

/// Per-backend attempt counter (labeled metric name). Looked up per
/// attempt — attempts are connection-rate, not pair-rate, so the registry
/// mutex is fine here.
obs::Counter* BackendAttemptCounter(size_t backend) {
  return obs::MetricsRegistry::Default().counter(
      "rcj_proxy_backend_attempts_total{backend=\"" +
      std::to_string(backend) + "\"}");
}

/// Client-bound bytes are batched up to this size before hitting the
/// socket, amortizing syscalls across a pair stream while keeping the
/// relay incremental.
constexpr size_t kFlushThresholdBytes = 8192;

bool IsPairLine(const std::string& line) {
  return line.rfind("PAIR ", 0) == 0;
}

bool IsEndLine(const std::string& line) {
  return line.rfind("END ", 0) == 0;
}

}  // namespace

struct FleetProxy::Connection : net::LineServer::Connection {
  using net::LineServer::Connection::Connection;

  /// fd of the in-flight backend relay, if any (guarded by `mu`).
  int backend_fd = -1;
  /// Pooled backend conversations held across a mutation batch, indexed
  /// like the pool (handler thread only).
  std::vector<std::unique_ptr<net::ProtocolClient>> held;
};

FleetProxy::FleetProxy(std::vector<BackendAddress> backends,
                       FleetProxyOptions options)
    : options_(std::move(options)),
      pool_(std::move(backends)),
      excluded_(pool_.size()),
      server_(options_, MakeTier()) {
  // vector<atomic> default-constructs its elements; make the initial
  // state explicit rather than relying on zero-initialization.
  for (std::atomic<bool>& flag : excluded_) {
    flag.store(false, std::memory_order_relaxed);
  }
}

FleetProxy::~FleetProxy() { Stop(); }

net::LineServer::Tier FleetProxy::MakeTier() {
  net::LineServer::Tier tier;
  tier.adopt = [this](int fd) {
    connections_.Add();
    return std::make_shared<Connection>(fd);
  };
  tier.verbs["STATS"] = [this](net::LineServer::Connection* connection,
                               const std::string& line) {
    HandleStats(static_cast<Connection*>(connection), line);
  };
  tier.fallback = [this](net::LineServer::Connection* connection,
                         const std::string& line) {
    HandleQuery(static_cast<Connection*>(connection), line);
  };
  tier.mutate = [this](net::LineServer::Connection* base,
                       const std::string& line) {
    Connection* connection = static_cast<Connection*>(base);
    if (connection->held.empty()) connection->held.resize(pool_.size());
    std::string reply;
    const bool applied = RelayMutation(connection, line, &reply);
    return FlushToClient(connection, &reply) && applied;
  };
  tier.send = [this](net::LineServer::Connection* connection,
                     const std::string& frames) {
    std::string out = frames;
    return FlushToClient(static_cast<Connection*>(connection), &out);
  };
  tier.unblock = [this](net::LineServer::Connection* base) {
    // Shutting the backend socket down makes a blocking relay return at
    // once; a handler sleeping between retry cycles is woken too.
    Connection* connection = static_cast<Connection*>(base);
    if (connection->backend_fd >= 0) {
      shutdown(connection->backend_fd, SHUT_RDWR);
    }
    {
      std::lock_guard<std::mutex> lock(sleep_mu_);
    }
    sleep_cv_.notify_all();
  };
  tier.finish = [this](net::LineServer::Connection* base) {
    // Park the still-healthy batch conversations for the next batch.
    Connection* connection = static_cast<Connection*>(base);
    for (size_t index = 0; index < connection->held.size(); ++index) {
      if (connection->held[index]) {
        pool_.Release(index, std::move(*connection->held[index]));
      }
    }
  };
  tier.rejected = &rejected_;
  tier.metrics = &metrics_;
  return tier;
}

Status FleetProxy::Start() {
  if (pool_.size() == 0) {
    return Status::InvalidArgument("fleet proxy needs at least one backend");
  }
  return server_.Start();
}

void FleetProxy::Stop() { server_.Stop(); }

std::vector<size_t> FleetProxy::ReplicaSet(
    const std::string& env_name) const {
  const size_t backends = pool_.size();
  const size_t width =
      std::min(std::max<size_t>(1, options_.replicas), backends);
  const size_t primary =
      static_cast<size_t>(StableHash(env_name) % backends);
  std::vector<size_t> replicas;
  replicas.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    replicas.push_back((primary + i) % backends);
  }
  return replicas;
}

FleetProxy::Counters FleetProxy::counters() const {
  Counters counters;
  counters.connections = connections_.value();
  counters.queries = queries_.value();
  counters.ok = ok_.value();
  counters.rejected = rejected_.value();
  counters.shed = shed_.value();
  counters.failed = failed_.value();
  counters.cancelled = cancelled_.value();
  counters.retries = retries_.value();
  counters.failovers = failovers_.value();
  counters.backoffs = backoffs_.value();
  counters.stats = stats_.value();
  counters.mutations = mutations_.value();
  counters.stats_backends_skipped = stats_backends_skipped_.value();
  counters.metrics = metrics_.value();
  counters.expired = expired_.value();
  counters.epoch_probes = epoch_probes_.value();
  counters.catchups = catchups_.value();
  counters.catchup_failures = catchup_failures_.value();
  counters.excluded_skips = excluded_skips_.value();
  counters.relay_exclusions = relay_exclusions_.value();
  return counters;
}

void FleetProxy::SetExcluded(size_t index, bool excluded) {
  if (index >= excluded_.size()) return;
  excluded_[index].store(excluded, std::memory_order_relaxed);
}

bool FleetProxy::excluded(size_t index) const {
  return index < excluded_.size() &&
         excluded_[index].load(std::memory_order_relaxed);
}

void FleetProxy::SetBackendFd(Connection* connection, int fd) {
  std::lock_guard<std::mutex> lock(connection->mu);
  connection->backend_fd = fd;
}

bool FleetProxy::FlushToClient(Connection* connection, std::string* out) {
  if (out->empty()) return true;
  int fd;
  {
    std::lock_guard<std::mutex> lock(connection->mu);
    fd = connection->fd;
  }
  if (fd < 0) {
    out->clear();
    return false;
  }
  const bool sent = net::SendAll(fd, *out);
  out->clear();
  return sent;
}

void FleetProxy::Backoff(uint64_t ms) {
  backoffs_.Add();
  ProxyMetrics::Get().backoff_seconds->Observe(
      static_cast<double>(ms) / 1000.0);
  if (options_.sleep_fn) {
    options_.sleep_fn(ms);
    return;
  }
  std::unique_lock<std::mutex> lock(sleep_mu_);
  sleep_cv_.wait_for(lock, std::chrono::milliseconds(ms), [this] {
    return server_.stopping();
  });
}

void FleetProxy::HandleQuery(Connection* connection,
                             const std::string& line) {
  net::WireRequest request;
  const Status parse = net::ParseRequestLine(line, &request);
  if (!parse.ok()) {
    // Reject malformed requests at the edge — no backend ever sees them.
    server_.Reject(connection, parse);
    return;
  }
  queries_.Add();
  std::string out;

  // The client's relative budget is anchored once, here: retries, dials,
  // and backoffs below all spend from this single deadline, and each
  // forwarded attempt carries only the budget still remaining.
  const bool has_deadline = request.deadline_ms != 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(request.deadline_ms);
  const auto remaining_ms = [&deadline] {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    return remaining > 0 ? static_cast<uint64_t>(remaining) : 0;
  };

  // A traced query is stitched: the proxy mints (or adopts) the trace id
  // and forwards it on the backend's QUERY line, so the backend's TRACE
  // lines carry the same id and can be relayed verbatim; the proxy's own
  // proxy.* spans join them under one combined ENDTRACE.
  std::unique_ptr<obs::TraceContext> trace;
  if (request.trace) {
    trace = std::make_unique<obs::TraceContext>(request.trace_id);
    request.trace_id = trace->id();
  }

  const std::vector<size_t> replicas = ReplicaSet(request.env_name);
  RetryPolicy policy = options_.retry;
  if (policy.max_attempts == 0) policy.max_attempts = 1;
  // De-correlate concurrent requests' jitter streams; request 0 keeps the
  // configured seed so tests can pin the schedule.
  policy.seed += retry_seed_.fetch_add(1, std::memory_order_relaxed) *
                 0x9e3779b97f4a7c15ull;
  RetrySchedule schedule(policy);

  bool ok_sent = false;
  // FNV hashes of every PAIR line already relayed to the client: the
  // replay-skip ledger. A failover re-runs the (deterministic) query on
  // the next replica and verifies-then-skips this prefix, so the client
  // stream carries no duplicated and no corrupted pairs.
  std::vector<uint64_t> forwarded;
  uint64_t replay_skipped = 0;
  Status last_error = Status::IoError("no backend attempt was made");

  // Feed the process-wide slow-query log on every exit path. The proxy's
  // wall time includes dials, retries, and backoff — exactly what a slow
  // fleet query looks like from the client's side.
  struct SlowLogGuard {
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    const std::vector<uint64_t>* relayed = nullptr;
    const obs::TraceContext* trace = nullptr;
    std::string env;
    ~SlowLogGuard() {
      obs::SlowQueryLog* log = obs::MetricsRegistry::Default().slow_log();
      if (!log->enabled()) return;
      obs::SlowQueryEntry entry;
      entry.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      entry.pairs = relayed->size();
      entry.env = env;
      if (trace != nullptr) entry.trace_id = trace->id();
      entry.detail = "proxy";
      log->MaybeRecord(entry);
    }
  };
  SlowLogGuard slow_guard;
  slow_guard.relayed = &forwarded;
  slow_guard.trace = trace.get();
  slow_guard.env = request.env_name;

  for (size_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (server_.stopping()) break;
    if (has_deadline &&
        std::chrono::steady_clock::now() >= deadline) {
      last_error = Status::DeadlineExceeded(
          "deadline expired after " + std::to_string(attempt) +
          " backend attempts");
      break;
    }
    if (attempt > 0 && attempt % replicas.size() == 0) {
      // A whole replica cycle failed: back off before going around again
      // — but never sleep past the client's deadline; the budget is
      // better spent reporting DeadlineExceeded promptly.
      uint64_t delay_ms = schedule.NextDelayMs();
      if (has_deadline) delay_ms = std::min(delay_ms, remaining_ms());
      const auto backoff_start = obs::TraceClock::now();
      Backoff(delay_ms);
      if (trace != nullptr) {
        trace->Record("proxy.backoff", 1, backoff_start,
                      obs::TraceClock::now());
      }
      if (server_.stopping()) break;
    }
    if (attempt > 0) retries_.Add();
    const size_t backend = replicas[attempt % replicas.size()];
    if (excluded_[backend].load(std::memory_order_relaxed)) {
      // The replica is respawning / catching up: it is not allowed to
      // serve reads until its epochs match the primary's again.
      excluded_skips_.Add();
      last_error = Status::IoError(
          "backend " + std::to_string(backend) +
          " is excluded pending catch-up");
      continue;
    }
    const std::string backend_name =
        BackendAddressToString(pool_.address(backend));

    // Every attempt forwards the request re-serialized, so a deadline
    // carries only the *remaining* budget — the backend's own admission
    // and engine checks then enforce the same end-to-end deadline.
    if (has_deadline) {
      request.deadline_ms = std::max<uint64_t>(remaining_ms(), 1);
    }
    const std::string attempt_line = net::FormatRequestLine(request);

    BackendAttemptCounter(backend)->Add();
    const Status dial_fp = RINGJOIN_FAILPOINT("backend_dial");
    if (!dial_fp.ok()) {
      last_error = dial_fp;
      continue;
    }
    const auto dial_start = obs::TraceClock::now();
    Result<net::ProtocolClient> dialed = pool_.Dial(backend);
    if (trace != nullptr) {
      trace->Record("proxy.dial", 1, dial_start, obs::TraceClock::now());
    }
    if (!dialed.ok()) {
      last_error = dialed.status();
      continue;
    }
    net::ProtocolClient conn = std::move(dialed).value();
    SetBackendFd(connection, conn.fd());
    const bool resuming = ok_sent;

    std::string resp;
    if (!conn.SendLine(attempt_line) || !conn.ReadLine(&resp)) {
      SetBackendFd(connection, -1);
      last_error = Status::IoError("backend " + backend_name +
                                   " closed before a response");
      continue;
    }
    // A response line was read: the backend processed the request (and,
    // for well-formed queries, ran it through admission) — the counter
    // the fleet smoke reconciles against backend ledgers.
    ProxyMetrics::Get().forwarded->Add();
    if (resp != "OK") {
      SetBackendFd(connection, -1);
      Status transported = Status::Corruption(
          "backend " + backend_name + " sent '" + resp + "' before OK");
      net::ParseErrLine(resp, &transported);
      if (transported.code() == StatusCode::kOverloaded) {
        // The shed happened before the query started; retrying is safe.
        last_error = transported;
        continue;
      }
      if (transported.code() == StatusCode::kDeadlineExceeded) {
        // The backend shed the query because the (forwarded, remaining)
        // budget ran out — another replica would expire the same way, so
        // this is final, not a failover.
        expired_.Add();
        out.append(resp).push_back('\n');
        FlushToClient(connection, &out);
        return;
      }
      // A definitive rejection (unknown env, bad spec the proxy's laxer
      // knowledge let through): relay verbatim, conversation over.
      rejected_.Add();
      out.append(resp).push_back('\n');
      FlushToClient(connection, &out);
      return;
    }
    if (!ok_sent) {
      ok_sent = true;
      out.append("OK\n");
      if (!FlushToClient(connection, &out)) {
        cancelled_.Add();
        SetBackendFd(connection, -1);
        return;
      }
    }
    if (resuming) failovers_.Add();

    uint64_t seen = 0;  // pairs observed from THIS backend's stream
    for (;;) {
      const Status relay_fp = RINGJOIN_FAILPOINT("relay_midstream");
      if (!relay_fp.ok()) {
        // Chaos seam: drop the backend conversation mid-stream, exactly
        // like a relay whose peer died — exercising the failover replay.
        last_error = relay_fp;
        break;
      }
      if (!conn.ReadLine(&resp)) {
        last_error = Status::IoError(
            "backend " + backend_name + " lost mid-stream after " +
            std::to_string(seen) + " pairs");
        break;
      }
      if (IsPairLine(resp)) {
        const uint64_t hash = StableHash(resp);
        if (seen < forwarded.size()) {
          if (forwarded[seen] != hash) {
            // The replica's deterministic stream does not match what was
            // already relayed — splicing would corrupt the client stream.
            failed_.Add();
            out = net::FormatErrLine(Status::Corruption(
                      "replica streams diverged at pair " +
                      std::to_string(seen))) +
                  "\n";
            FlushToClient(connection, &out);
            SetBackendFd(connection, -1);
            return;
          }
          ++seen;  // verified: already relayed, skip
          ++replay_skipped;
          continue;
        }
        forwarded.push_back(hash);
        ++seen;
        out.append(resp).push_back('\n');
        if (out.size() >= kFlushThresholdBytes &&
            !FlushToClient(connection, &out)) {
          cancelled_.Add();
          SetBackendFd(connection, -1);
          return;
        }
        continue;
      }
      if (IsEndLine(resp) && seen < forwarded.size()) {
        // The replica finished short of the already-relayed prefix:
        // divergence again, not a relayable END.
        failed_.Add();
        out = net::FormatErrLine(Status::Corruption(
                  "replica stream ended at pair " + std::to_string(seen) +
                  " short of the " + std::to_string(forwarded.size()) +
                  " already relayed")) +
              "\n";
        FlushToClient(connection, &out);
        SetBackendFd(connection, -1);
        return;
      }
      // END or a post-OK ERR epilogue: relay verbatim, conversation over.
      const bool is_end = IsEndLine(resp);
      out.append(resp).push_back('\n');
      if (is_end && replay_skipped > 0) {
        ProxyMetrics::Get().replay_skipped_pairs->Add(replay_skipped);
      }
      if (is_end && trace != nullptr) {
        if (replay_skipped > 0) {
          trace->RecordSeconds("proxy.replay_skip", 1, 0.0, replay_skipped);
        }
        // Relay the backend's TRACE lines verbatim (same trace id, so the
        // fleet trace stitches), swallow the backend's ENDTRACE, append the
        // proxy's own spans, and emit one combined ENDTRACE.
        uint64_t relayed_spans = 0;
        std::string trace_line;
        while (conn.ReadLine(&trace_line)) {
          if (net::IsTraceEndLine(trace_line)) break;
          if (!net::IsTraceLine(trace_line)) continue;  // defensive
          out.append(trace_line).push_back('\n');
          ++relayed_spans;
        }
        trace->Record("proxy", 0, trace->start_time(), obs::TraceClock::now());
        out += net::FormatTraceBlock(*trace, relayed_spans);
      }
      if (!FlushToClient(connection, &out)) {
        cancelled_.Add();
      } else if (is_end) {
        ok_.Add();
      } else {
        failed_.Add();
      }
      SetBackendFd(connection, -1);
      return;
    }
    SetBackendFd(connection, -1);  // the stream was lost: try the next one
  }

  // Retry budget exhausted (or shutdown): report the last failure. The
  // ERR frame is legal both before OK (rejection) and after (epilogue).
  if (has_deadline && last_error.code() != StatusCode::kDeadlineExceeded &&
      std::chrono::steady_clock::now() >= deadline) {
    // The policy's attempts ran out and so did the clock; the deadline is
    // the truer story for a budgeted caller.
    last_error = Status::DeadlineExceeded(
        "deadline expired during retries; last failure: " +
        last_error.message());
  }
  if (last_error.code() == StatusCode::kOverloaded) {
    shed_.Add();
  } else if (last_error.code() == StatusCode::kDeadlineExceeded) {
    expired_.Add();
  } else {
    failed_.Add();
  }
  out.append(net::FormatErrLine(last_error)).push_back('\n');
  FlushToClient(connection, &out);
}

void FleetProxy::HandleStats(Connection* connection, const std::string& line) {
  if (!net::IsStatsRequestLine(line)) {
    server_.Reject(connection,
                   Status::InvalidArgument("STATS takes no fields"));
    return;
  }
  // Fan out to every backend; renumber each backend's shard indices by
  // the running total so the fleet view is one flat shard space, and sum
  // the ENDSTATS totals. Per-backend ledgers each satisfy
  // admitted + shed == submitted, so their concatenation reconciles
  // exactly — no proxy-side bookkeeping is needed for the global count.
  std::string shard_rows;
  std::string env_rows;
  uint64_t total_shards = 0;
  uint64_t total_envs = 0;
  for (size_t index = 0; index < pool_.size(); ++index) {
    if (server_.stopping()) break;
    Result<net::ProtocolClient> dialed = pool_.Dial(index);
    if (!dialed.ok()) {
      stats_backends_skipped_.Add();
      continue;
    }
    net::ProtocolClient conn = std::move(dialed).value();
    SetBackendFd(connection, conn.fd());
    std::vector<net::WireShardStats> shards;
    std::vector<net::WireEnvStats> envs;
    const Status status = conn.Stats(&shards, &envs);
    SetBackendFd(connection, -1);
    if (!status.ok()) {
      stats_backends_skipped_.Add();
      continue;
    }
    for (net::WireShardStats& shard : shards) {
      shard.shard += total_shards;
      shard_rows.append(net::FormatShardStatsLine(shard)).push_back('\n');
    }
    for (net::WireEnvStats& env : envs) {
      env.shard += total_shards;
      env_rows.append(net::FormatEnvStatsLine(env)).push_back('\n');
    }
    total_shards += shards.size();
    total_envs += envs.size();
  }
  stats_.Add();
  std::string out = "OK\n";
  out += shard_rows;
  out += env_rows;
  out += net::FormatStatsEndLine(total_shards, total_envs) + "\n";
  FlushToClient(connection, &out);
}

bool FleetProxy::RelayMutation(Connection* connection, const std::string& line,
                               std::string* reply) {
  net::WireMutation mutation;
  Status parse = net::ParseMutationLine(line, &mutation);
  if (!parse.ok()) {
    rejected_.Add();
    *reply = net::FormatErrLine(parse) + "\n";
    return false;
  }
  // Mutations go to the environment's whole replica window, not just the
  // primary — every backend that may serve a read of this environment
  // must converge. A replica that cannot take the op is not allowed to
  // fail it for everyone: it is *excluded* from the read window on the
  // spot, the op lands on the ring below, and CatchUp() replays the
  // suffix before the replica may serve reads again — so a mid-batch
  // kill degrades to one replica catching up, never to forked histories
  // a client can observe. (Whether the failed replica actually applied
  // the op before dying is ambiguous here; the EPOCH probe at catch-up
  // time resolves it exactly, because the replayed suffix starts at the
  // replica's own recovered epoch.) Only when *no* replica acknowledges
  // does the op fail.
  //
  // The catch-up lock spans the fan-out AND the ring append: a CatchUp()
  // running concurrently would otherwise miss exactly this mutation.
  std::lock_guard<std::mutex> catchup_lock(catchup_mu_);
  const std::vector<size_t> replicas = ReplicaSet(mutation.env_name);
  net::WireMutationAck primary_ack;
  bool have_ack = false;
  Status last_error;
  for (size_t i = 0; i < replicas.size(); ++i) {
    const size_t index = replicas[i];
    if (excluded_[index].load(std::memory_order_relaxed)) {
      excluded_skips_.Add();
      continue;
    }
    std::unique_ptr<net::ProtocolClient>& slot = connection->held[index];
    net::WireMutationAck ack;
    Status op_status;
    for (int attempt = 0; attempt < 2; ++attempt) {
      // A conversation that sat idle (parked in the pool, or held since
      // an earlier op of this batch) may have been timed out by the
      // backend; such a failure earns one fresh redial. A fresh dial's
      // failure — and any backend ERR — is final: after the request hit
      // the wire a non-idempotent op must not be replayed blindly.
      bool stale_candidate = slot != nullptr;
      if (!slot) {
        bool reused = false;
        Result<net::ProtocolClient> dialed = pool_.Acquire(index, &reused);
        if (!dialed.ok()) {
          op_status = dialed.status();
          break;
        }
        slot = std::make_unique<net::ProtocolClient>(
            std::move(dialed).value());
        stale_candidate = reused;
      }
      SetBackendFd(connection, slot->fd());
      op_status = slot->Mutate(mutation, &ack);
      SetBackendFd(connection, -1);
      if (op_status.ok()) break;
      slot.reset();  // the conversation is dead either way
      if (!stale_candidate ||
          op_status.code() != StatusCode::kIoError) {
        break;
      }
    }
    if (op_status.ok()) {
      if (!have_ack) {
        primary_ack = ack;
        have_ack = true;
      }
      continue;
    }
    if (op_status.code() != StatusCode::kIoError) {
      // A *logical* rejection (InvalidArgument, NotFound...) comes from a
      // healthy backend refusing the op; converged replicas refuse
      // deterministically, so relay the first refusal and exclude no one.
      failed_.Add();
      *reply = net::FormatErrLine(op_status) + "\n";
      return false;
    }
    // Transport failure: the replica is unreachable (or died mid-op).
    // Exclude it from the read window right now — before the supervisor
    // even notices the death — and keep going; CatchUp() reconciles it.
    excluded_[index].store(true, std::memory_order_relaxed);
    relay_exclusions_.Add();
    last_error = op_status;
  }
  if (!have_ack) {
    Status failure = last_error.ok()
                         ? Status::IoError("every replica of '" +
                                           mutation.env_name +
                                           "' is excluded pending catch-up")
                         : last_error;
    failed_.Add();
    *reply = net::FormatErrLine(failure) + "\n";
    return false;
  }
  // Remember the acknowledged mutation for catch-up. COMPACT stays off
  // the ring: it does not advance the epoch, and a caught-up replica may
  // compact on its own schedule.
  if (mutation.op != net::WireMutationOp::kCompact) {
    RingEntry entry;
    entry.epoch = primary_ack.epoch;
    entry.env_name = mutation.env_name;
    entry.line = line;
    mutation_ring_.push_back(std::move(entry));
    while (mutation_ring_.size() > options_.mutation_ring_capacity &&
           !mutation_ring_.empty()) {
      mutation_ring_.pop_front();
    }
  }
  mutations_.Add();
  *reply = "OK\n" + net::FormatMutationAckLine(primary_ack) + "\n";
  return true;
}

Status FleetProxy::ProbeEpoch(size_t index, const std::string& env_name,
                              uint64_t* epoch) {
  epoch_probes_.Add();
  Result<net::ProtocolClient> dialed = pool_.Dial(index);
  if (!dialed.ok()) return dialed.status();
  return dialed.value().Epoch(env_name, epoch);
}

Status FleetProxy::CatchUpEnv(size_t index, const std::string& env_name) {
  // The target is the primary's epoch: the first healthy replica of the
  // window that is not the one catching up. A lone replica has no peer
  // to trail behind.
  const std::vector<size_t> replicas = ReplicaSet(env_name);
  size_t primary = pool_.size();
  for (const size_t replica : replicas) {
    if (replica != index &&
        !excluded_[replica].load(std::memory_order_relaxed)) {
      primary = replica;
      break;
    }
  }
  if (primary == pool_.size()) return Status::OK();
  uint64_t target = 0;
  RINGJOIN_RETURN_IF_ERROR(ProbeEpoch(primary, env_name, &target));
  uint64_t have = 0;
  RINGJOIN_RETURN_IF_ERROR(ProbeEpoch(index, env_name, &have));
  if (have >= target) return Status::OK();

  // The missing suffix must be fully covered by the ring: contiguous
  // from the replica's next epoch up to the primary's. A gap means the
  // ring already evicted history this replica needs.
  std::vector<const RingEntry*> suffix;
  for (const RingEntry& entry : mutation_ring_) {
    if (entry.env_name == env_name && entry.epoch > have &&
        entry.epoch <= target) {
      suffix.push_back(&entry);
    }
  }
  if (suffix.empty() || suffix.front()->epoch != have + 1 ||
      suffix.back()->epoch != target ||
      suffix.back()->epoch - suffix.front()->epoch + 1 != suffix.size()) {
    return Status::IoError(
        "mutation ring no longer covers epochs " + std::to_string(have + 1) +
        ".." + std::to_string(target) + " of '" + env_name +
        "'; the replica needs a full restore");
  }

  Result<net::ProtocolClient> dialed = pool_.Dial(index);
  if (!dialed.ok()) return dialed.status();
  net::ProtocolClient conn = std::move(dialed).value();
  for (const RingEntry* entry : suffix) {
    net::WireMutation mutation;
    RINGJOIN_RETURN_IF_ERROR(net::ParseMutationLine(entry->line, &mutation));
    net::WireMutationAck ack;
    RINGJOIN_RETURN_IF_ERROR(conn.Mutate(mutation, &ack));
    ProxyMetrics::Get().catchup_replayed->Add();
    if (ack.epoch != entry->epoch) {
      return Status::Corruption(
          "catch-up replay of '" + env_name + "' landed at epoch " +
          std::to_string(ack.epoch) + ", expected " +
          std::to_string(entry->epoch) +
          " — the replica's history diverged");
    }
  }

  // Close the handshake: the replica must now agree with the primary.
  RINGJOIN_RETURN_IF_ERROR(ProbeEpoch(index, env_name, &have));
  if (have != target) {
    return Status::Corruption(
        "after catch-up, '" + env_name + "' on backend " +
        std::to_string(index) + " is at epoch " + std::to_string(have) +
        ", primary at " + std::to_string(target));
  }
  return Status::OK();
}

Status FleetProxy::CatchUp(size_t index) {
  if (index >= pool_.size()) {
    return Status::InvalidArgument("no backend " + std::to_string(index));
  }
  // No mutation may land while the suffix is being fed, or "epochs
  // match" below would be stale the moment it was measured.
  std::lock_guard<std::mutex> lock(catchup_mu_);
  std::vector<std::string> envs;
  for (const RingEntry& entry : mutation_ring_) {
    if (std::find(envs.begin(), envs.end(), entry.env_name) != envs.end()) {
      continue;
    }
    const std::vector<size_t> replicas = ReplicaSet(entry.env_name);
    if (std::find(replicas.begin(), replicas.end(), index) !=
        replicas.end()) {
      envs.push_back(entry.env_name);
    }
  }
  for (const std::string& env_name : envs) {
    const Status status = CatchUpEnv(index, env_name);
    if (!status.ok()) {
      catchup_failures_.Add();
      return status;
    }
  }
  excluded_[index].store(false, std::memory_order_relaxed);
  catchups_.Add();
  return Status::OK();
}

}  // namespace fleet
}  // namespace rcj
