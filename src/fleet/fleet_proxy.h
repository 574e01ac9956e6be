// FleetProxy — the router tier that turns the wire protocol into a
// distribution substrate.
//
// The proxy speaks the existing line protocol on the front (a client
// cannot tell it from a single `rcj_tool serve` process — the CI smoke
// `cmp`s the byte streams to prove it) and proxies each conversation to
// one or more backend serve processes over TCP:
//
//   * QUERY — placed by consistent hash of the environment name (the
//     same StableHash that places environments on shards inside one
//     process), optionally fanned across a replica window of
//     `replicas` consecutive backends for read-mostly environments.
//     The response stream is relayed verbatim. Failures fail over:
//     a refused connection, an `ERR Overloaded` shed, or a backend
//     dying mid-stream moves the request to the next replica, with
//     capped exponential backoff + jitter between full replica cycles
//     (see retry.h). Because pair streams are deterministic and
//     byte-identical across engines, a mid-stream failover *replays*
//     the query on the next replica and skips the pairs already
//     forwarded — verifying each skipped line against a hash of what
//     was sent, so a diverging replica is surfaced as Corruption
//     rather than spliced into the stream.
//   * INSERT/DELETE/COMPACT — applied to every replica of the
//     environment (a replicated live environment must converge), and
//     acknowledged with the primary's MUT. Batches (many mutation
//     lines per connection) are relayed onto pooled backend
//     connections that persist across the batch.
//   * STATS — fanned out to every reachable backend; per-backend shard
//     rows are renumbered into one global index space and the ENDSTATS
//     totals are summed, so per-backend admission ledgers reconcile
//     into one exact fleet-wide count.
//
// The connection lifecycle (listener, accept loop, per-connection threads,
// Stop(), the mutation-batch loop and METRICS) is the net::LineServer core
// NetServer also runs on; this class supplies the relay handlers.
//
// The proxy holds no query state beyond the in-flight relay: environment
// registration lives on the backends, admission lives on the backends
// (an `ERR Overloaded` that survives the retry budget reaches the
// client), and determinism lives in the engines. That is what makes the
// tier stateless and horizontally stackable.
#ifndef RINGJOIN_FLEET_FLEET_PROXY_H_
#define RINGJOIN_FLEET_FLEET_PROXY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "fleet/backend_pool.h"
#include "fleet/retry.h"
#include "net/line_server.h"
#include "obs/metrics.h"

namespace rcj {
namespace fleet {

/// The proxy's options: the shared listener options (port, bind address,
/// backlog, connection cap, request-line limits; loopback-only by default,
/// like NetServer) plus the fleet's own.
struct FleetProxyOptions : LineServerOptions {
  /// Read fan-out: a query for environment E may be served by any of the
  /// `replicas` backends following StableHash(E) around the ring.
  /// Clamped to [1, backend count]. Mutations always go to the whole
  /// window so replicated environments converge.
  size_t replicas = 1;
  /// Retry/backoff policy for failed backend attempts.
  RetryPolicy retry;
  /// Bound on the in-memory ring of recently relayed mutations (the
  /// catch-up feed for respawned replicas). A replica that fell further
  /// behind than the ring reaches cannot catch up incrementally and
  /// needs a full restore; size it to cover the longest expected outage.
  size_t mutation_ring_capacity = 4096;
  /// Test seam: sleeps `ms` between failed replica cycles. Defaults to a
  /// stop-aware condition-variable wait; tests inject a recorder.
  std::function<void(uint64_t ms)> sleep_fn;
};

class FleetProxy {
 public:
  /// Monotonic counters of proxy outcomes. Backend-side dial counters
  /// live on the pool (pool().counters()).
  struct Counters {
    uint64_t connections = 0;      ///< accepted client sockets.
    uint64_t queries = 0;          ///< QUERY conversations begun.
    uint64_t ok = 0;               ///< full stream + END relayed.
    uint64_t rejected = 0;         ///< malformed requests (ERR before OK).
    uint64_t shed = 0;             ///< Overloaded relayed after retries.
    uint64_t failed = 0;           ///< backend ERR / exhausted retries.
    uint64_t cancelled = 0;        ///< client gone mid-relay.
    uint64_t retries = 0;          ///< backend attempts past the first.
    uint64_t failovers = 0;        ///< mid-stream replays on a replica.
    uint64_t backoffs = 0;         ///< sleeps between failed cycles.
    uint64_t stats = 0;            ///< STATS fan-outs answered.
    uint64_t mutations = 0;        ///< mutation ops acknowledged.
    uint64_t stats_backends_skipped = 0;  ///< unreachable during STATS.
    uint64_t metrics = 0;          ///< METRICS scrapes answered (locally).
    uint64_t expired = 0;          ///< deadlines blown (ERR DeadlineExceeded).
    uint64_t epoch_probes = 0;     ///< EPOCH handshakes sent to backends.
    uint64_t catchups = 0;         ///< replicas caught up and readmitted.
    uint64_t catchup_failures = 0; ///< CatchUp calls that left the exclusion.
    uint64_t excluded_skips = 0;   ///< attempts skipped over excluded replicas.
    uint64_t relay_exclusions = 0; ///< replicas excluded by a failed relay.
  };

  FleetProxy(std::vector<BackendAddress> backends,
             FleetProxyOptions options = {});
  ~FleetProxy();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(FleetProxy);

  /// Binds, listens, and starts accepting. IoError on bind/listen
  /// failure. The backends need not be up yet — placement is pure
  /// hashing, and a request simply retries per policy.
  Status Start();

  /// Stops accepting, unblocks every relay, joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (resolves ephemeral port 0); valid after Start().
  uint16_t port() const { return server_.port(); }

  size_t backend_count() const { return pool_.size(); }

  /// Rewrites one backend's address (supervisor respawn path).
  void SetBackendAddress(size_t index, BackendAddress address) {
    pool_.SetAddress(index, std::move(address));
  }

  /// The replica window for `env_name`: `replicas` consecutive backend
  /// indices starting at StableHash(env_name) % backends. Exposed so
  /// tests (and the supervisor's kill targeting) can predict placement.
  std::vector<size_t> ReplicaSet(const std::string& env_name) const;

  /// Marks one backend excluded from (or readmitted to) query fan-out
  /// and mutation relay. The supervisor sets the flag the moment it
  /// observes a death; CatchUp() clears it once the replica's epochs
  /// match the primary's again.
  void SetExcluded(size_t index, bool excluded);
  bool excluded(size_t index) const;

  /// The respawn handshake: for every environment the backend replicates
  /// that has ring history, probes the backend's and the primary's EPOCH,
  /// feeds the missing mutation suffix from the ring, and re-probes until
  /// the epochs match — only then is the exclusion flag cleared. Fails
  /// (and keeps the replica excluded) when the ring no longer reaches
  /// back to the replica's epoch: that replica needs a full restore.
  /// Serialized against in-flight mutation relays, so no mutation can
  /// slip between the feed and the readmission.
  Status CatchUp(size_t index);

  Counters counters() const;
  const BackendPool& pool() const { return pool_; }

 private:
  /// Per-connection state shared with Stop(): both socket fds are shut
  /// down to unblock the handler wherever it is blocked.
  struct Connection;

  /// The handler table and hooks this tier plugs into the line server.
  net::LineServer::Tier MakeTier();
  void HandleQuery(Connection* connection, const std::string& line);
  void HandleStats(Connection* connection, const std::string& line);
  /// Relays one mutation line to every replica of its environment.
  /// On success fills `*reply` with the primary's OK + MUT frames; on
  /// failure fills it with the ERR frame and returns false (which ends
  /// the batch, matching backend behavior). The connection's `held`
  /// caches the pooled backend conversations across a batch.
  bool RelayMutation(Connection* connection, const std::string& line,
                     std::string* reply);
  /// Sends buffered client-bound bytes; false once the client is gone.
  bool FlushToClient(Connection* connection, std::string* out);
  /// Stop-aware backoff sleep (or the injected sleep_fn).
  void Backoff(uint64_t ms);
  /// Publishes `fd` as the connection's in-flight backend socket so
  /// Stop() can shut it down; pass -1 to clear.
  void SetBackendFd(Connection* connection, int fd);

  /// One relayed mutation remembered for catch-up: the raw wire line and
  /// the epoch the (first acknowledging) replica landed it at.
  struct RingEntry {
    uint64_t epoch = 0;
    std::string env_name;
    std::string line;
  };

  /// One EPOCH handshake with backend `index` for `env_name`.
  Status ProbeEpoch(size_t index, const std::string& env_name,
                    uint64_t* epoch);
  /// CatchUp's per-environment body; caller holds catchup_mu_.
  Status CatchUpEnv(size_t index, const std::string& env_name);

  FleetProxyOptions options_;
  BackendPool pool_;

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;

  /// Serializes mutation relays against catch-up feeds: while one
  /// replica is being fed its missing suffix, no new mutation may land
  /// on the others, so "epochs match" at the end of CatchUp() really
  /// means caught up.
  std::mutex catchup_mu_;
  std::deque<RingEntry> mutation_ring_;  ///< guarded by catchup_mu_.
  /// Per-backend exclusion flags (fixed size; indexed like the pool).
  std::vector<std::atomic<bool>> excluded_;

  std::atomic<uint64_t> retry_seed_{0};

  obs::OutcomeCounter connections_{"rcj_proxy_connections_total"};
  obs::OutcomeCounter queries_{"rcj_proxy_queries_total"};
  obs::OutcomeCounter ok_{"rcj_proxy_ok_total"};
  obs::OutcomeCounter rejected_{"rcj_proxy_rejected_total"};
  obs::OutcomeCounter shed_{"rcj_proxy_shed_total"};
  obs::OutcomeCounter failed_{"rcj_proxy_failed_total"};
  obs::OutcomeCounter cancelled_{"rcj_proxy_cancelled_total"};
  obs::OutcomeCounter retries_{"rcj_proxy_retries_total"};
  obs::OutcomeCounter failovers_{"rcj_proxy_failovers_total"};
  obs::OutcomeCounter backoffs_{"rcj_proxy_backoffs_total"};
  obs::OutcomeCounter stats_{"rcj_proxy_stats_total"};
  obs::OutcomeCounter mutations_{"rcj_proxy_mutations_total"};
  obs::OutcomeCounter stats_backends_skipped_{
      "rcj_proxy_stats_backends_skipped_total"};
  obs::OutcomeCounter metrics_{"rcj_proxy_metrics_total"};
  obs::OutcomeCounter expired_{"rcj_proxy_expired_total"};
  obs::OutcomeCounter epoch_probes_{"rcj_proxy_epoch_probes_total"};
  obs::OutcomeCounter catchups_{"rcj_proxy_catchups_total"};
  obs::OutcomeCounter catchup_failures_{
      "rcj_proxy_catchup_failures_total"};
  obs::OutcomeCounter excluded_skips_{"rcj_proxy_excluded_skips_total"};
  obs::OutcomeCounter relay_exclusions_{
      "rcj_proxy_relay_exclusions_total"};

  net::LineServer server_;
};

}  // namespace fleet
}  // namespace rcj

#endif  // RINGJOIN_FLEET_FLEET_PROXY_H_
