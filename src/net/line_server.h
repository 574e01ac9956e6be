// rcj::net::LineServer — the connection lifecycle NetServer and
// FleetProxy share.
//
// Both tiers speak the same line protocol to their clients, so one core
// serves both. It owns the listening socket and the accept loop, which
// defers at max_connections so further peers wait in the kernel backlog
// instead of spawning unbounded threads. It runs one thread per accepted
// connection, reaps finished ones, and unblocks and joins the rest on
// Stop(). The loop sleeps in poll with no timeout: a finishing handler
// and Stop() each wake it through an eventfd. It reads the request line,
// answers a read failure with ERR, and dispatches the line on its first
// token (its verb) to the tier's handler table. It also owns the two
// answers that do not depend on the tier: the mutation-batch loop (one
// connection, many INSERT/DELETE/COMPACT lines, one ack each) and
// METRICS. A tier supplies only its handlers and a few hooks
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
#include "net/request_reader.h"
#include "obs/metrics.h"

namespace rcj {

/// The listener options both tiers share; NetServerOptions and
/// fleet::FleetProxyOptions derive from it.
struct LineServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back with
  /// port() after Start()).
  uint16_t port = 0;
  /// Listen address. The default only accepts loopback peers; widen it
  /// explicitly (e.g. "0.0.0.0") to serve remote callers.
  std::string bind_address = "127.0.0.1";
  int backlog = 64;
  /// Cap on simultaneously served connections (each holds one thread).
  /// At the cap the accept loop defers — further peers wait in the kernel
  /// backlog instead of spawning unbounded threads.
  size_t max_connections = 256;
  /// Hard cap on the request line; longer requests are rejected.
  size_t max_request_bytes = 4096;
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
    explicit Connection(int client_fd) : fd(client_fd) {}
    virtual ~Connection() = default;

    /// Guards `fd` and the tier's unblock state against Stop().
    std::mutex mu;
    /// The client socket; -1 once the handler closed it.
    int fd;
    /// Bytes read past the current request line (the next lines of a
    /// mutation batch). Handler thread only.
    std::string carry;
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
    /// Writes newline-terminated frames to the client; false once the
    /// client is gone.
    std::function<bool(Connection* connection, const std::string& frames)>
        send;
    /// Run by Stop() under connection->mu, just before the client socket
    /// is shut down: cancels or shuts whatever the handler may block on.
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

  /// Stops accepting, unblocks every connection (the tier's unblock hook,
  /// then a shutdown of the client socket) and joins all connection
  /// threads. Idempotent.
  void Stop();

  /// The bound port (resolves ephemeral port 0); valid after Start().
  uint16_t port() const { return port_; }

  /// True from the start of Stop(); handlers use it to give up early.
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

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
  /// Reads the next request line off the connection (see ReadRequestLine).
  Status ReadLine(Connection* connection, std::string* line,
                  bool* clean_eof = nullptr, bool* idle_closed = nullptr);
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
