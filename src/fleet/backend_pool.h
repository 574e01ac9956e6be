// BackendPool — the fleet proxy's view of its backends: addresses (which
// the supervisor may rewrite when it respawns a dead backend onto a new
// ephemeral port) plus a small per-backend pool of idle protocol
// connections.
//
// Pooling matters on the mutation path: a batched mutation conversation
// keeps its connection open between ops (the server only closes after an
// error), so the proxy parks the still-healthy connection here and the
// next mutation for the same backend skips the dial. Query and STATS
// conversations are consumed by the server (it closes after END /
// ENDSTATS), so those always dial — the pool simply reports the dials in
// its counters so benches can see the difference.
#ifndef RINGJOIN_FLEET_BACKEND_POOL_H_
#define RINGJOIN_FLEET_BACKEND_POOL_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/protocol_client.h"

namespace rcj {
namespace fleet {

/// One backend's dialing address.
struct BackendAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Formats "host:port" for logs and errors.
std::string BackendAddressToString(const BackendAddress& address);

/// Parses "host:port" (strict: numeric port in range). Used by
/// `rcj_tool proxy --backends`.
Status ParseBackendAddress(const std::string& text, BackendAddress* out);

/// Parses a comma-separated backend list ("h1:p1,h2:p2,...").
Status ParseBackendList(const std::string& text,
                        std::vector<BackendAddress>* out);

class BackendPool {
 public:
  explicit BackendPool(std::vector<BackendAddress> backends);

  size_t size() const { return entries_.size(); }

  BackendAddress address(size_t index) const;

  /// Rewrites one backend's address (a respawned backend lands on a new
  /// ephemeral port) and drops its idle connections — they point at the
  /// dead process.
  void SetAddress(size_t index, BackendAddress address);

  /// Always dials a fresh connection. Queries and STATS use this: a
  /// parked conversation already carried a mutation, and the server only
  /// accepts further mutations on such a connection.
  Result<net::ProtocolClient> Dial(size_t index);

  /// Hands out a *mutation* conversation to backend `index`: an idle
  /// pooled one when available, else a fresh dial. `reused` (when
  /// non-null) reports which, so callers can retry a stale pooled
  /// connection with a fresh dial.
  Result<net::ProtocolClient> Acquire(size_t index, bool* reused = nullptr);

  /// Parks a still-connected conversation for reuse (at most 8 idle per
  /// backend; further releases are closed). Connections the server
  /// consumed (queries, STATS) or that errored must simply be dropped
  /// instead.
  void Release(size_t index, net::ProtocolClient client);

  struct Counters {
    uint64_t dials = 0;          ///< fresh connections established.
    uint64_t dial_failures = 0;  ///< connect attempts that failed.
    uint64_t reuses = 0;         ///< acquisitions served from the pool.
  };
  Counters counters() const;

 private:
  struct Entry {
    BackendAddress address;
    std::vector<net::ProtocolClient> idle;
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  Counters counters_;
};

}  // namespace fleet
}  // namespace rcj

#endif  // RINGJOIN_FLEET_BACKEND_POOL_H_
