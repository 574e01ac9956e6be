// Server-side request-line framing, shared by NetServer and FleetProxy.
//
// Reads one LF-terminated request line off a connected socket under a
// wall-clock deadline and a length cap. Bytes received past the newline
// are preserved in a caller-owned carry buffer and consumed by the next
// call — the mechanism that lets one connection carry a *batch* of
// mutation requests (PR 7's open follow-up) instead of the historical
// one-request-per-connection rule, without ever re-reading the socket
// for data that already arrived.
#ifndef RINGJOIN_NET_REQUEST_READER_H_
#define RINGJOIN_NET_REQUEST_READER_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace rcj {
namespace net {

struct RequestReadOptions {
  /// Hard cap on the request line; longer requests are rejected.
  size_t max_request_bytes = 4096;
  /// How long the peer may take to deliver the full line.
  int request_timeout_ms = 10000;
  /// How long a connection may sit with *no bytes of a next request* (not
  /// even a partial line) before the server reaps it; 0 disables. Only
  /// meaningful when shorter than request_timeout_ms: once the first byte
  /// arrives the peer is mid-request and the request timeout governs.
  int idle_timeout_ms = 0;
};

/// Reads the next request line from `fd` into `*line` (LF consumed, no
/// trailing CR stripping — the strict parsers reject CRs like any other
/// unexpected byte, matching the historical server behavior). `*carry`
/// holds surplus bytes between calls and must persist per connection.
///
/// On a clean EOF — the peer closed with no partial line pending —
/// `*clean_eof` (when non-null) is set and InvalidArgument is returned;
/// batch loops use the flag to end without treating the close as an
/// error. The wait is one poll up to the nearer deadline; server shutdown
/// unblocks it by shutting the socket down, which reads as that EOF.
///
/// When `idle_timeout_ms` elapses with zero bytes of a next request
/// received, `*idle_closed` (when non-null) is set and InvalidArgument is
/// returned — the reaper path for keep-alive connections that went quiet,
/// distinguishable from a peer that stalled mid-request.
Status ReadRequestLine(int fd, const RequestReadOptions& options,
                       std::string* carry, std::string* line,
                       bool* clean_eof = nullptr, bool* idle_closed = nullptr);

}  // namespace net
}  // namespace rcj

#endif  // RINGJOIN_NET_REQUEST_READER_H_
