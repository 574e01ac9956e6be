// rcj::net::LineServer — the connection lifecycle NetServer and
// FleetProxy share.
//
// Both tiers speak the same line protocol to their clients, so one core
// serves both. It owns the listening socket and the accept loop, which
// defers at max_connections so further peers wait in the kernel backlog
// instead of spawning unbounded threads. It runs one thread per accepted
// connection, reaps finished ones, and unblocks and joins the rest on
// Stop(). The loop sleeps in poll with no timeout: a finishing handler
// and Stop() each wake it through an eventfd. It reads each request line
// through the connection's net::LineReader (the one framer, under the
// request timeout, the idle reaper and the length cap), answers a read
// failure with ERR, and dispatches the line on its first token (its verb)
// to the tier's handler table. It also owns the two answers that do not
// depend on the tier: the mutation-batch loop (one connection, many
// INSERT/DELETE/COMPACT lines, one ack each) and METRICS. It owns each
// connection's one writer (a SocketSink) and one stop (a StopToken), for
// both tiers. A tier supplies only its handlers and a few hooks
// (LineServer::Tier).
#ifndef RINGJOIN_NET_LINE_SERVER_H_
#define RINGJOIN_NET_LINE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "core/stop_token.h"
#include "net/line_reader.h"
#include "net/socket_sink.h"
#include "obs/metrics.h"

namespace rcj {

/// The listener options both tiers share; NetServerOptions and
/// fleet::FleetProxyOptions derive from it. The kernel listen backlog (64)
/// and the request-line cap (4096 bytes; longer lines are answered
/// "ERR InvalidArgument request line exceeds 4096 bytes") are fixed.
struct LineServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back with
  /// port() after Start()).
  uint16_t port = 0;
  /// Listen address. The default only accepts loopback peers; widen it
  /// explicitly (e.g. "0.0.0.0") to serve remote callers.
  std::string bind_address = "127.0.0.1";
  /// Cap on simultaneously served connections (each holds one thread).
  /// At the cap the accept loop defers — further peers wait in the kernel
  /// backlog instead of spawning unbounded threads.
  size_t max_connections = 256;
  /// How long a connection may take to deliver a request line (applied
  /// per line: each mutation of a batch gets a fresh allowance).
  int request_timeout_ms = 10000;
};

namespace net {

class LineServer {
 public:
  /// One accepted client connection. Tiers derive from it to add the state
  /// their hooks reach (NetServer's ticket, FleetProxy's backend socket).
  struct Connection {
    Connection(int client_fd, const SocketSinkOptions& sink_options)
        : fd(client_fd),
          reader(client_fd),
          sink(client_fd, sink_options, &stop) {}
    virtual ~Connection() = default;

    /// Guards `fd` and the tier's unblock state against Stop().
    std::mutex mu;
    /// The client socket; -1 once the handler closed it.
    int fd;
    /// Frames the client's request lines, keeping bytes read past the
    /// current one (a batch's next lines). Handler thread only.
    LineReader reader;
    /// Stops the connection's query or relay: Stop() with kCancelled, the
    /// sink with kPeerGone as it dies.
    StopToken stop;
    /// Every client-bound byte. Written by the handler thread and, during
    /// a NetServer query, the engine's delivery; never by Stop().
    SocketSink sink;
    /// Set as the handler's very last step; the accept loop reaps (joins
    /// and erases) done connections.
    std::atomic<bool> done{false};
  };

  /// Answers one request line on `connection`.
  using Handler =
      std::function<void(Connection* connection, const std::string& line)>;

  /// What a tier plugs into the core.
  struct Tier {
    /// Adopts a freshly accepted socket into the tier's connection type.
    std::function<std::shared_ptr<Connection>(int fd)> adopt;
    /// Handlers by verb. METRICS and, when `mutate` is set, the mutation
    /// verbs are the core's own.
    std::map<std::string, Handler> verbs;
    /// Answers a line whose verb has no handler: the QUERY path, which
    /// also rejects unknown verbs.
    Handler fallback;
    /// Applies one INSERT/DELETE/COMPACT line and answers it; false when
    /// the answer was an ERR or the client is gone, which ends the batch.
    std::function<bool(Connection* connection, const std::string& line)>
        mutate;
    /// Run by Stop() under connection->mu, after the token is stopped and
    /// before the client socket is shut down: shuts whatever else the
    /// handler may block on.
    std::function<void(Connection* connection)> unblock;
    /// Run on the handler thread once the conversation is over, before
    /// the client socket closes.
    std::function<void(Connection* connection)> finish;
    /// The tier's counts of rejected requests, METRICS scrapes and
    /// connections reaped by the idle timeout (null when it has none).
    obs::OutcomeCounter* rejected = nullptr;
    obs::OutcomeCounter* metrics = nullptr;
    obs::OutcomeCounter* idle_closed = nullptr;
    /// Reap a connection that sits this long with no bytes of a next
    /// request (0 = off).
    int idle_timeout_ms = 0;
  };

  LineServer(const LineServerOptions& options, Tier tier);
  ~LineServer();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(LineServer);

  /// Binds, listens, and starts accepting. IoError on bind/listen failure
  /// (e.g. the port is taken) or when no wake eventfd can be made,
  /// InvalidArgument on a bad bind address.
  Status Start();

  /// Stops accepting, unblocks every connection (its token stopped with
  /// kCancelled, the tier's unblock hook, then a shutdown of the client
  /// socket) and joins all connection threads. Idempotent.
  void Stop();

  /// The bound port (resolves ephemeral port 0); valid after Start().
  uint16_t port() const { return port_; }

  /// Connections currently being served.
  size_t active_connections();

  /// Counts a rejected request and answers it with ERR.
  void Reject(Connection* connection, const Status& status);

 private:
  void AcceptLoop();
  /// Wakes the accept loop out of its poll (a slot freed, or Stop()).
  void Wake();
  /// Joins and erases the connections whose handlers have finished.
  void ReapFinishedConnections();
  /// The per-connection thread body: read, dispatch, finish, close.
  void Serve(Connection* connection);
  /// Reads the next request line (any CR kept for the parsers) under the
  /// length cap, the request timeout and the tier's idle window, and
  /// counts an idle reap.
  ReadOutcome ReadLine(Connection* connection, std::string* line);
  /// Serves a batch of mutation lines, the first already read: each is
  /// applied through the tier's mutate hook, then the next line is read
  /// off the same connection until the client closes (clean end) or a
  /// line fails (ERR, conversation over).
  void ServeMutations(Connection* connection, std::string line);
  /// Answers METRICS with the process-wide registry's Prometheus
  /// exposition: OK, the exposition lines, ENDMETRICS.
  void AnswerMetrics(Connection* connection, const std::string& line);

  const LineServerOptions options_;
  Tier tier_;

  int listen_fd_ = -1;
  /// eventfd the accept loop polls beside listen_fd_; open while started.
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;

  std::mutex mu_;
  /// connections_[i] is served by threads_[i].
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> threads_;
};

}  // namespace net
}  // namespace rcj

#endif  // RINGJOIN_NET_LINE_SERVER_H_
