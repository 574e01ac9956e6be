#include "net/net_server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <utility>

#include "common/failpoint.h"
#include "core/runner.h"
#include "core/stop_token.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rcj {
namespace {

/// Registry metrics beyond the connection-outcome counters: the
/// wire-volume counters only the sinks know (bytes to the kernel, pairs
/// delivered, backpressure stalls) and the open-connection gauge, which
/// moves as connections are adopted and finish.
struct ServerMetrics {
  obs::Counter* bytes_sent;
  obs::Counter* pairs_sent;
  obs::Counter* backpressure_stalls;
  obs::Gauge* active_connections;

  static const ServerMetrics& Get() {
    static const ServerMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      ServerMetrics m;
      m.bytes_sent = registry.counter("rcj_server_bytes_sent_total");
      m.pairs_sent = registry.counter("rcj_server_pairs_total");
      m.backpressure_stalls =
          registry.counter("rcj_server_backpressure_stalls_total");
      m.active_connections = registry.gauge("rcj_server_active_connections");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

struct NetServer::Connection : net::LineServer::Connection {
  Connection(int fd, const SocketSinkOptions& options)
      : net::LineServer::Connection(fd),
        sink(fd, options, &stop),
        wake_fd(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}
  ~Connection() override {
    if (wake_fd >= 0) close(wake_fd);
  }

  /// The stop signal of this connection's one query (QuerySpec::stop); a
  /// stop before submission resolves the query before any chunk claim.
  StopToken stop;
  /// Written by the handler thread and, during a query, the engine's
  /// delivery. Its death (peer gone, or backpressure past the grace)
  /// stops `stop` with kPeerGone.
  SocketSink sink;
  /// Made readable once by the query's completion (the router's on_done
  /// hook), so the handler's poll wakes the moment the ticket resolves.
  /// -1 when no eventfd could be made: a query is then refused.
  int wake_fd;
};

NetServer::NetServer(ShardRouter* router, NetServerOptions options)
    : router_(router),
      options_(std::move(options)),
      server_(options_, MakeTier()) {}

NetServer::~NetServer() { Stop(); }

net::LineServer::Tier NetServer::MakeTier() {
  using Method = void (NetServer::*)(Connection*, const std::string&);
  const auto handler = [this](Method method) -> net::LineServer::Handler {
    return [this, method](net::LineServer::Connection* connection,
                          const std::string& line) {
      (this->*method)(static_cast<Connection*>(connection), line);
    };
  };
  net::LineServer::Tier tier;
  tier.adopt = [this](int fd) {
    if (options_.send_buffer_bytes > 0) {
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                 sizeof(options_.send_buffer_bytes));
    }
    connections_.Add();
    ServerMetrics::Get().active_connections->Add(1);
    return std::make_shared<Connection>(fd, options_.sink);
  };
  tier.verbs["STATS"] = handler(&NetServer::HandleStats);
  tier.verbs["EPOCH"] = handler(&NetServer::HandleEpoch);
  tier.verbs["FAILPOINT"] = handler(&NetServer::HandleFailpoint);
  tier.fallback = handler(&NetServer::HandleQuery);
  tier.mutate = [this](net::LineServer::Connection* connection,
                       const std::string& line) {
    return HandleMutation(static_cast<Connection*>(connection), line);
  };
  tier.send = [this](net::LineServer::Connection* connection,
                     const std::string& frames) {
    return Send(static_cast<Connection*>(connection), frames);
  };
  tier.unblock = [](net::LineServer::Connection* connection) {
    static_cast<Connection*>(connection)->stop.Stop(StopReason::kCancelled);
  };
  tier.finish = [](net::LineServer::Connection* connection) {
    // The wire-volume counters only the sink knows, settled once per
    // connection (the sink is single-owner here, so the reads are safe).
    const SocketSink& sink = static_cast<Connection*>(connection)->sink;
    ServerMetrics::Get().bytes_sent->Add(sink.bytes_sent());
    ServerMetrics::Get().pairs_sent->Add(sink.emitted());
    ServerMetrics::Get().backpressure_stalls->Add(sink.stalls());
    ServerMetrics::Get().active_connections->Add(-1);
  };
  tier.rejected = &rejected_;
  tier.metrics = &metrics_;
  tier.idle_closed = &idle_closed_;
  tier.idle_timeout_ms = options_.idle_timeout_ms;
  return tier;
}

Status NetServer::Start() {
  RINGJOIN_RETURN_IF_ERROR(server_.Start());
  // The slow-query log is process-wide; only a non-negative threshold
  // reconfigures it, so embedding several servers (tests, the fleet's
  // in-process backends) composes without clobbering.
  if (options_.slow_query_ms >= 0) {
    obs::MetricsRegistry::Default().slow_log()->Configure(
        options_.slow_query_ms / 1000.0);
  }
  return Status::OK();
}

void NetServer::Stop() { server_.Stop(); }

NetServer::Counters NetServer::counters() const {
  Counters counters;
  counters.connections = connections_.value();
  counters.ok = ok_.value();
  counters.rejected = rejected_.value();
  counters.shed = shed_.value();
  counters.cancelled = cancelled_.value();
  counters.failed = failed_.value();
  counters.stats = stats_.value();
  counters.mutations = mutations_.value();
  counters.metrics = metrics_.value();
  counters.expired = expired_.value();
  counters.idle_closed = idle_closed_.value();
  counters.epochs = epochs_.value();
  return counters;
}

bool NetServer::Send(Connection* connection, const std::string& frames) {
  // One SendLine per frame, then one flush: the socket sees the same
  // sends whether an answer is written here or frame by frame.
  size_t begin = 0;
  while (begin < frames.size()) {
    const size_t end = frames.find('\n', begin);
    connection->sink.SendLine(frames.substr(begin, end - begin));
    begin = end + 1;
  }
  return connection->sink.Flush(options_.sink.drain_grace_ms);
}

void NetServer::HandleStats(Connection* connection, const std::string& line) {
  if (!net::IsStatsRequestLine(line)) {
    server_.Reject(connection,
                   Status::InvalidArgument("STATS takes no fields"));
    return;
  }
  stats_.Add();
  const std::vector<ShardStatus> stats = router_->Stats();
  std::string out = "OK\n";
  for (const ShardStatus& shard : stats) {
    net::WireShardStats wire;
    wire.shard = shard.shard;
    wire.environments = shard.environments;
    wire.queued = shard.queued;
    wire.inflight = shard.counters.inflight;
    wire.submitted = shard.counters.submitted;
    wire.admitted = shard.counters.admitted;
    wire.shed = shard.counters.shed;
    wire.completed = shard.counters.completed;
    wire.cancelled = shard.counters.cancelled;
    wire.failed = shard.counters.failed;
    out += net::FormatShardStatsLine(wire) + "\n";
  }
  const std::vector<EnvironmentStatus> envs = router_->EnvStats();
  for (const EnvironmentStatus& env : envs) {
    net::WireEnvStats wire;
    wire.name = env.name;
    wire.shard = env.shard;
    wire.live = env.live;
    wire.generation = env.stats.generation;
    wire.epoch = env.stats.epoch;
    wire.delta = env.stats.delta_size;
    wire.tombstones = env.stats.tombstones;
    wire.compactions = env.stats.compactions;
    wire.base_q = env.stats.base_q;
    wire.base_p = env.stats.base_p;
    out += net::FormatEnvStatsLine(wire) + "\n";
  }
  Send(connection, out + net::FormatStatsEndLine(stats.size(), envs.size()) +
                       "\n");
}

void NetServer::HandleEpoch(Connection* connection, const std::string& line) {
  std::string env_name;
  Status status = net::ParseEpochRequestLine(line, &env_name);
  uint64_t epoch = 0;
  if (status.ok()) {
    status = Status::NotFound("unknown environment '" + env_name + "'");
    for (const EnvironmentStatus& env : router_->EnvStats()) {
      if (env.name == env_name) {
        epoch = env.stats.epoch;
        status = Status::OK();
        break;
      }
    }
  }
  if (!status.ok()) {
    server_.Reject(connection, status);
    return;
  }
  epochs_.Add();
  Send(connection,
       "OK\n" + net::FormatEpochResponseLine(env_name, epoch) + "\n");
}

void NetServer::HandleFailpoint(Connection* connection,
                                const std::string& line) {
  std::string site;
  std::string spec;
  Status status = net::ParseFailpointLine(line, &site, &spec);
  if (status.ok() && !failpoint::kCompiledIn) {
    status = Status::NotSupported(
        "this server was built without RINGJOIN_FAILPOINTS");
  }
  if (status.ok()) status = failpoint::Configure(site, spec);
  if (!status.ok()) {
    server_.Reject(connection, status);
    return;
  }
  Send(connection, "OK\n");
}

bool NetServer::HandleMutation(Connection* connection,
                               const std::string& line) {
  net::WireMutation mutation;
  Status status = net::ParseMutationLine(line, &mutation);
  LiveStats after;
  if (status.ok()) {
    switch (mutation.op) {
      case net::WireMutationOp::kInsert:
        status = router_->Insert(mutation.env_name, mutation.side,
                                 mutation.rec, &after);
        break;
      case net::WireMutationOp::kDelete:
        status = router_->Delete(mutation.env_name, mutation.side,
                                 mutation.rec.id, &after);
        break;
      case net::WireMutationOp::kCompact:
        status = router_->Compact(mutation.env_name, &after);
        break;
    }
  }
  if (!status.ok()) {
    server_.Reject(connection, status);
    return false;
  }
  mutations_.Add();
  net::WireMutationAck ack;
  ack.op = mutation.op;
  ack.env_name = mutation.env_name;
  ack.epoch = after.epoch;
  ack.generation = after.generation;
  ack.delta = after.delta_size;
  ack.tombstones = after.tombstones;
  ack.compactions = after.compactions;
  Send(connection, "OK\n" + net::FormatMutationAckLine(ack) + "\n");
  return true;
}

void NetServer::HandleQuery(Connection* connection, const std::string& line) {
  const int fd = connection->fd;
  SocketSink* sink = &connection->sink;
  const auto query_start = std::chrono::steady_clock::now();
  net::WireRequest request;
  Status status = net::ParseRequestLine(line, &request);
  if (status.ok() && connection->wake_fd < 0) {
    // Without its completion eventfd the handler could not learn when the
    // query ends; refuse it rather than poll on a timer.
    failed_.Add();
    Send(connection, net::FormatErrLine(Status::IoError(
                         "no completion eventfd for this connection")) +
                         "\n");
    return;
  }
  // The wire carries a *relative* budget; anchor it to this process's
  // steady clock the moment the request is understood. Everything below —
  // admission, the engine's stop check, the final ERR — compares against
  // this one absolute deadline.
  if (status.ok() && request.deadline_ms != 0) {
    request.spec.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(request.deadline_ms);
  }
  // A traced query carries its context on this frame: every layer below
  // records into it through spec.trace, and the ticket resolves before
  // this frame unwinds, so the lifetime holds by construction.
  std::unique_ptr<obs::TraceContext> trace;
  if (status.ok() && request.trace) {
    trace = std::make_unique<obs::TraceContext>(request.trace_id);
    request.spec.trace = trace.get();
  }
  request.spec.stop = &connection->stop;
  // Name resolution, environment binding (a live environment binds a
  // pinned snapshot), and spec validation all happen inside Submit,
  // before admission — a malformed spec is a rejection (ERR before OK),
  // never a started query.
  QueryTicket ticket;
  if (status.ok()) {
    // The router decides admission synchronously; on_admit puts the OK
    // acknowledgement on the wire before the query can emit its first
    // PAIR, preserving the frame order with zero buffering tricks. on_done
    // wakes this thread as the query completes.
    obs::ScopedSpan admit_span(trace.get(), "admit", 1);
    const int wake_fd = connection->wake_fd;
    const auto wake = [wake_fd] { eventfd_write(wake_fd, 1); };
    status = router_->Submit(request.env_name, request.spec, sink, &ticket,
                             [sink] { sink->SendLine("OK"); }, wake);
  }

  if (!status.ok()) {
    if (status.code() == StatusCode::kOverloaded) {
      shed_.Add();
    } else if (status.code() == StatusCode::kDeadlineExceeded) {
      // Admission shed the query because its budget had already run out —
      // a deadline outcome, not a malformed request.
      expired_.Add();
    } else {
      rejected_.Add();
    }
    Send(connection, net::FormatErrLine(status) + "\n");
    return;
  }

  // Babysit the in-flight query: sleep until the completion wake fires,
  // while watching the socket's read side. A read *error* (ECONNRESET:
  // the peer vanished with data in flight) stops the query with
  // kPeerGone — the engine ends it within a few pairs, so the other
  // connections' joins keep their workers. A plain EOF is NOT a
  // cancellation: a netcat-style client legitimately half-closes its
  // write side after the request while it keeps reading, so EOF only
  // means "done sending" (the socket leaves the poll set) — a peer that
  // truly closed is caught by the sink's failing sends instead.
  Status final;
  bool read_side_open = true;
  while (!ticket.TryGet(&final)) {
    struct pollfd pfds[2] = {{connection->wake_fd, POLLIN, 0},
                             {read_side_open ? fd : -1, POLLIN, 0}};
    if (poll(pfds, 2, -1) <= 0) continue;
    if (pfds[0].revents != 0) {
      // The completion hook runs just before the ticket resolves.
      eventfd_t ignored;
      eventfd_read(connection->wake_fd, &ignored);
      final = ticket.Wait();
      break;
    }
    if (pfds[1].revents == 0) continue;
    char buffer[256];
    const ssize_t got = recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    // Stray bytes are ignored: one request per connection.
    if (got > 0 || (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                                errno == EINTR))) {
      continue;
    }
    if (got < 0) connection->stop.Stop(StopReason::kPeerGone);
    read_side_open = false;  // an EOF is a half-close: keep streaming
  }

  std::string outcome;
  if (final.ok() && !sink->dead()) {
    if (trace != nullptr) {
      // Drain the streamed pairs first, timed: a slow consumer's
      // backpressure wait shows up as this span. (The control-frame flush
      // below stays untraced — its duration could not be reported anyway.)
      const auto flush_start = obs::TraceClock::now();
      sink->Flush(options_.sink.drain_grace_ms);
      trace->Record("sink_flush", 1, flush_start, obs::TraceClock::now());
    }
    net::WireSummary summary;
    summary.pairs = sink->emitted();
    summary.stats = ticket.stats();
    // The span tree rides after END: the result stream stays
    // byte-identical to an untraced run up to and including END, and a
    // trace-aware client reads on until ENDTRACE.
    if (trace != nullptr) {
      trace->Record("server", 0, trace->start_time(), obs::TraceClock::now());
    }
    if (Send(connection,
             net::FormatEndLine(summary) + "\n" +
                 (trace != nullptr ? net::FormatTraceBlock(*trace) : ""))) {
      ok_.Add();
      outcome = "ok";
    } else {
      cancelled_.Add();
      outcome = "cancelled (final flush)";
    }
  } else {
    const StopReason reason = connection->stop.reason();
    Status error = final;
    if (reason == StopReason::kDeadline) {
      // Same outcome class as the admission shed.
      expired_.Add();
      outcome = "expired: " + final.message();
    } else if (final.code() == StatusCode::kCancelled || sink->dead()) {
      cancelled_.Add();
      error = Status::Cancelled("stream cancelled before completion");
      outcome = std::string("cancelled: ") + StopReasonName(reason);
    } else {
      failed_.Add();
      outcome = "failed: " + final.message();
    }
    Send(connection, net::FormatErrLine(error) + "\n");
  }

  obs::SlowQueryEntry slow;
  slow.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    query_start)
          .count();
  slow.pairs = sink->emitted();
  slow.env = request.env_name;
  if (trace != nullptr) slow.trace_id = trace->id();
  slow.detail = outcome;
  obs::MetricsRegistry::Default().slow_log()->MaybeRecord(slow);
}

}  // namespace rcj
