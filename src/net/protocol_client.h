// Client side of the ringjoin wire protocol — the consuming counterpart
// of NetServer. ProtocolClient owns dialing, request framing, and strict
// response parsing (OK/PAIR/END/TRACE/ERR, MUT, EPOCH, STATS, METRICS), so
// a server's answer is read in one place.
//
// Two API levels:
//   * raw lines (SendLine/ReadLine) — for callers that must see the bytes
//     themselves: the fleet proxy relays responses verbatim (and hashes
//     them for its replay skip), perfbench's harness stamps each line's
//     arrival, and tests assert raw wire bytes;
//   * typed calls (RunQuery/Mutate/Epoch/Stats/Metrics) — what every
//     other client uses: `rcj_tool client`, the examples, the proxy's
//     STATS fan-out and mutation relay.
//
// One client owns one connection. Queries, EPOCH, STATS and METRICS
// consume it (the server ends the conversation after its last line);
// mutations keep it open, so a mutation batch is a loop of Mutate() calls
// on one client.
#ifndef RINGJOIN_NET_PROTOCOL_CLIENT_H_
#define RINGJOIN_NET_PROTOCOL_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/line_reader.h"
#include "net/protocol.h"

namespace rcj {
namespace net {

/// Dials `host:port` (numeric or resolvable name) and returns a connected
/// blocking socket fd. IoError on resolution or connection failure — the
/// message carries errno text so retry layers can log the real cause.
Result<int> DialTcp(const std::string& host, uint16_t port);

/// One protocol conversation with a ringjoin server (or fleet proxy —
/// the proxy is transparent by construction). Move-only; closes its fd on
/// destruction.
class ProtocolClient {
 public:
  /// Adopts an already-connected socket (takes ownership of `fd`).
  explicit ProtocolClient(int fd);

  /// Dials and wraps in one step.
  static Result<ProtocolClient> Connect(const std::string& host,
                                        uint16_t port);

  ~ProtocolClient();
  ProtocolClient(ProtocolClient&& other) noexcept;
  ProtocolClient& operator=(ProtocolClient&& other) noexcept;
  ProtocolClient(const ProtocolClient&) = delete;
  ProtocolClient& operator=(const ProtocolClient&) = delete;

  /// True while the connection is usable (dialed and no hard send/recv
  /// failure observed yet).
  bool connected() const { return fd_ >= 0; }

  /// The underlying fd (for poll()-style integration); -1 once closed.
  int fd() const { return fd_; }

  /// Closes the connection now (idempotent).
  void Close();

  // --- raw line level -----------------------------------------------------

  /// Sends one request line (LF appended). False once the peer is gone.
  bool SendLine(const std::string& line);

  /// Reads the next response line (LF consumed, CR stripped). False on
  /// EOF or a hard error before a complete line.
  bool ReadLine(std::string* line);

  // --- typed conversations ------------------------------------------------

  /// Runs one query: sends the QUERY line, expects `OK`, then streams
  /// every PAIR line to `on_pair` (the raw line, so callers may relay
  /// verbatim or ParsePairLine as needed), and parses the END summary
  /// into `*summary`. A server-side `ERR` is returned as its transported
  /// Status (e.g. Overloaded); a connection that dies mid-stream is
  /// IoError with the count of pairs already received in the message.
  /// `on_pair` returning false abandons the stream (the connection is
  /// closed — the server maps the disconnect onto cancellation) and
  /// returns Cancelled. `on_pair` may be null to discard pairs (summary
  /// still counts them). The connection is consumed either way.
  ///
  /// A traced request (`request.trace`) also reads the span tree after
  /// END: every TRACE row is appended to `*spans` (may be null) and the
  /// row count must equal ENDTRACE's (Corruption otherwise; IoError when
  /// the connection ends before ENDTRACE). An untraced query reads
  /// nothing after END.
  Status RunQuery(const WireRequest& request,
                  const std::function<bool(const std::string& pair_line)>&
                      on_pair,
                  WireSummary* summary,
                  std::vector<WireTraceSpan>* spans = nullptr);

  /// Applies one mutation: sends the INSERT/DELETE/COMPACT line, expects
  /// `OK` + `MUT` and parses the acknowledgement into `*ack` (may be
  /// null). On success the connection stays open for the next Mutate()
  /// call — a batch is a loop over one client. A server `ERR` closes the
  /// conversation (the server drops the connection after an error) and is
  /// returned as the transported Status.
  Status Mutate(const WireMutation& mutation, WireMutationAck* ack);

  /// Probes one environment's mutation epoch: sends `EPOCH`, expects `OK`
  /// and the epoch row for `env_name` (Corruption when it names another
  /// environment). Consumes the connection.
  Status Epoch(const std::string& env_name, uint64_t* epoch);

  /// Fetches server statistics: sends `STATS`, expects `OK`, collects
  /// every SHARD row into `*shards` and every ENV row into `*envs`
  /// (either may be null), and validates the ENDSTATS totals against the
  /// received row counts (Corruption on mismatch). Consumes the
  /// connection.
  Status Stats(std::vector<WireShardStats>* shards,
               std::vector<WireEnvStats>* envs);

  /// Scrapes the server's metrics: sends `METRICS`, expects `OK`, and
  /// collects the Prometheus exposition into `*exposition` (may be null),
  /// each line newline-terminated as sent. The line count must equal
  /// ENDMETRICS's (Corruption otherwise; IoError when the connection ends
  /// before ENDMETRICS). Consumes the connection.
  Status Metrics(std::string* exposition);

 private:
  /// Reads the initial OK/ERR acknowledgement line shared by every
  /// conversation. OK() when acknowledged; the transported error for ERR;
  /// IoError/Corruption otherwise.
  Status ReadAck(const char* what);
  /// Reads a query's TRACE rows through ENDTRACE into `*spans` (may be
  /// null), checking ENDTRACE's count against the rows received.
  Status ReadTrace(std::vector<WireTraceSpan>* spans);

  int fd_ = -1;
  LineReader reader_;
};

}  // namespace net
}  // namespace rcj

#endif  // RINGJOIN_NET_PROTOCOL_CLIENT_H_
