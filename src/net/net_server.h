// rcj::NetServer — the TCP front door of the ringjoin stack.
//
// Layered on rcj::ShardRouter: one accepted connection carries one
// request conversation. A QUERY line becomes one routed Submit() ticket
// on the target environment's shard and streams its result pairs back
// through a SocketSink in the exact serial order the engine delivers
// them; an INSERT/DELETE/COMPACT line is a routed mutation of a live
// environment, answered with an OK + MUT acknowledgement — and further
// mutation lines may follow on the same connection (a batch: one
// connection, many ops, one ack each) until the client closes or errs;
// a STATS line is answered
// immediately with the router's per-shard and per-environment ledgers
// (protocol.h defines all the grammars). Admission control surfaces on the
// wire: a submission the router sheds (bounded shard queue or global
// in-flight cap) is answered with `ERR Overloaded` before any OK, so an
// overloaded server fails fast instead of queueing unboundedly.
//
// The query's StopToken (QuerySpec::stop) and its SocketSink are the
// connection's own, held by the net::LineServer core, and every way the
// connection can end a query stops that token:
//
//   * client drop — a read error on the socket while the ticket is in
//     flight stops it with kPeerGone;
//   * slow consumer — the SocketSink's bounded pending buffer turns a
//     stalled socket into a dead sink, which stops it with kPeerGone;
//   * Stop() — the line server stops it with kCancelled.
//
// While its query runs, the connection thread sleeps in poll() on the
// client socket (for a read error) and on a per-connection eventfd that
// the query's completion writes once, so END leaves as soon as the query
// is done.
//
// The connection lifecycle — listener, accept loop, one thread per
// connection (the joins themselves run on the shard engines' pools;
// connection threads only shuttle bytes), Stop(), the mutation-batch loop
// and METRICS — is the shared net::LineServer core; this class supplies
// the handlers. Every environment the server can answer for is registered
// by name on the router — requests select one with the `env=` field.
#ifndef RINGJOIN_NET_NET_SERVER_H_
#define RINGJOIN_NET_NET_SERVER_H_

#include <cstdint>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "net/line_server.h"
#include "net/socket_sink.h"
#include "obs/metrics.h"
#include "shard/shard_router.h"

namespace rcj {

/// NetServer's options: the shared listener options (port, bind address,
/// backlog, connection cap, request-line limits) plus the server's own.
struct NetServerOptions : LineServerOptions {
  /// Reap a connection that sits with no bytes of a next request for this
  /// long (0 = off). A keep-alive client that went quiet is closed without
  /// an ERR and counted in Counters::idle_closed; a peer that stalled
  /// mid-line stays governed by request_timeout_ms.
  int idle_timeout_ms = 0;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Shrinking
  /// it (tests do) makes the sink's bounded-queue backpressure bite after
  /// a few pairs instead of after megabytes.
  int send_buffer_bytes = 0;
  /// Backpressure knobs of each connection's SocketSink.
  SocketSinkOptions sink;
  /// Queries whose wall time meets this threshold are remembered by the
  /// process-wide slow-query log (dumped by METRICS and rcj_tool).
  /// Negative leaves the log's current configuration alone (off by
  /// default); 0 records every query.
  double slow_query_ms = -1.0;
};

class NetServer {
 public:
  /// Monotonic counters of connection outcomes, for observability and
  /// tests (e.g. asserting that a mid-stream disconnect was counted as a
  /// cancellation, not a success).
  struct Counters {
    uint64_t connections = 0;  ///< accepted sockets.
    uint64_t ok = 0;           ///< full stream + END delivered.
    uint64_t rejected = 0;     ///< malformed/unknown requests (ERR before OK).
    uint64_t shed = 0;         ///< refused by admission (ERR Overloaded).
    uint64_t cancelled = 0;    ///< client drop or backpressure cancellation.
    uint64_t failed = 0;       ///< engine-side query failure (ERR after OK).
    uint64_t stats = 0;        ///< STATS probes answered.
    uint64_t mutations = 0;    ///< INSERT/DELETE/COMPACT applied (OK + MUT).
    uint64_t metrics = 0;      ///< METRICS scrapes answered.
    uint64_t expired = 0;      ///< deadline exceeded (ERR DeadlineExceeded).
    uint64_t idle_closed = 0;  ///< reaped by the idle timeout.
    uint64_t epochs = 0;       ///< EPOCH probes answered.
  };

  /// Serves queries by submitting through `router`, whose registered
  /// environments are the ones requests may name. The router (and every
  /// environment registered on it) must outlive the server.
  NetServer(ShardRouter* router, NetServerOptions options = {});
  ~NetServer();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(NetServer);

  /// Binds, listens, and starts accepting. IoError on bind/listen failure
  /// (e.g. the port is taken).
  Status Start();

  /// Stops accepting, stops every connection's query, unblocks and joins
  /// all connection threads. Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (resolves ephemeral port 0); valid after Start().
  uint16_t port() const { return server_.port(); }

  Counters counters() const;

 private:
  /// Per-connection state shared between its handler thread and Stop().
  struct Connection;

  /// The handler table and hooks this tier plugs into the line server.
  net::LineServer::Tier MakeTier();
  /// Routes one QUERY request: validation, admission, submission, and the
  /// in-flight babysitting until the ticket resolves.
  void HandleQuery(Connection* connection, const std::string& line);
  /// Answers a STATS request with the router's per-shard and
  /// per-environment ledgers.
  void HandleStats(Connection* connection, const std::string& line);
  /// Answers an EPOCH probe: OK plus one epoch response row for the named
  /// environment (static environments report epoch 0).
  void HandleEpoch(Connection* connection, const std::string& line);
  /// Arms or disarms one failpoint site (test builds only; ERR
  /// NotSupported when failpoints are compiled out).
  void HandleFailpoint(Connection* connection, const std::string& line);
  /// Applies one INSERT/DELETE/COMPACT line through the router and
  /// acknowledges with OK + MUT; false when the line failed and an ERR
  /// was sent instead (which ends the batch). Mutations are synchronous —
  /// no ticket, no admission slot; the router serializes them against the
  /// target environment's locks.
  bool HandleMutation(Connection* connection, const std::string& line);

  ShardRouter* router_;
  NetServerOptions options_;

  obs::OutcomeCounter connections_{"rcj_server_connections_total"};
  obs::OutcomeCounter ok_{"rcj_server_ok_total"};
  obs::OutcomeCounter rejected_{"rcj_server_rejected_total"};
  obs::OutcomeCounter shed_{"rcj_server_shed_total"};
  obs::OutcomeCounter cancelled_{"rcj_server_cancelled_total"};
  obs::OutcomeCounter failed_{"rcj_server_failed_total"};
  obs::OutcomeCounter stats_{"rcj_server_stats_total"};
  obs::OutcomeCounter mutations_{"rcj_server_mutations_total"};
  obs::OutcomeCounter metrics_{"rcj_server_metrics_total"};
  obs::OutcomeCounter expired_{"rcj_server_expired_total"};
  obs::OutcomeCounter idle_closed_{"rcj_server_idle_closed_total"};
  obs::OutcomeCounter epochs_{"rcj_server_epochs_total"};

  net::LineServer server_;
};

}  // namespace rcj

#endif  // RINGJOIN_NET_NET_SERVER_H_
