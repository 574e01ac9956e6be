// SocketSink — the PairSink that turns a connected TCP socket into a
// streaming result channel.
//
// Every pair is encoded as one PAIR line straight into a bounded pending
// buffer, with no string per line. The buffer is drained with one
// non-blocking send() per delivered engine chunk (EndBatch) or whenever
// it passes a threshold (an eighth of its bound), not one per line, so a
// reading client receives results incrementally while the join is still
// running and the socket sees kernel-sized writes.
// Backpressure maps onto the query's stop signal: when the kernel send
// buffer is full and the pending buffer would exceed its bound (after a
// short drain grace), or the peer disconnected, the sink dies — it stops
// the query's StopToken with kPeerGone and Emit() returns false — so the
// engine drops the query's remaining work instead of joining for a client
// that cannot or will not consume the stream.
//
// Threading: like every per-query sink, one thread drives Emit() and
// EndBatch() at a time (the engine serializes delivery per query). The
// connection thread only calls SendLine()/Flush() before submitting and
// after the ticket resolved, so no internal locking is needed.
#ifndef RINGJOIN_NET_SOCKET_SINK_H_
#define RINGJOIN_NET_SOCKET_SINK_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/pair_sink.h"
#include "core/stop_token.h"

namespace rcj {

struct SocketSinkOptions {
  /// Bound of the userspace pending buffer (serialized-but-unsent bytes).
  /// Overflowing it past the drain grace cancels the query.
  size_t max_pending_bytes = 256 * 1024;
  /// How long one Emit() may wait for the socket to become writable once
  /// the pending buffer is full before declaring the consumer dead.
  int drain_grace_ms = 2000;
};

class SocketSink final : public PairSink {
 public:
  /// Does not own `fd`; the caller closes it after the last Flush().
  /// `stop`, when set, is stopped with kPeerGone as the sink dies, on the
  /// thread that killed it and before the failing call returns — so a
  /// backpressure-killed stream resolves as Cancelled, keeping the
  /// admission ledger consistent with the wire's ERR frame.
  explicit SocketSink(int fd, SocketSinkOptions options = {},
                      StopToken* stop = nullptr);

  /// Encodes one PAIR line into the pending buffer, sending only once the
  /// buffer passes the drain threshold. Returns false — requesting
  /// engine-side cancellation — once the peer is gone or the bounded
  /// pending buffer cannot be drained.
  bool Emit(const RcjPair& pair) override;

  /// Hands everything pending to the socket, as far as it accepts it
  /// without blocking: the engine calls this once per delivered batch of
  /// chunks, so a chunk's pairs leave as soon as the chunk is delivered.
  void EndBatch() override;

  /// Enqueues one control frame (OK/END/ERR, without the newline) and
  /// sends it at once. Returns false when the sink is already dead.
  bool SendLine(const std::string& line);

  /// Blocks up to `timeout_ms` draining the pending buffer; true when every
  /// queued byte reached the kernel.
  bool Flush(int timeout_ms);

  /// True once a send failed or the pending bound was overrun; no further
  /// bytes will be accepted or sent.
  bool dead() const { return dead_; }

  /// PAIR lines accepted so far (the count an END summary reports).
  uint64_t emitted() const { return emitted_; }

  /// Bytes handed to the kernel so far (result payload plus control
  /// frames sent through this sink).
  uint64_t bytes_sent() const { return bytes_sent_; }

  /// Times an Emit() hit the pending-buffer bound and had to sit out the
  /// drain grace — the backpressure signal the server's registry counts.
  uint64_t stalls() const { return stalls_; }

 private:
  /// TryDrain, then the backpressure bound: past max_pending_bytes, one
  /// drain grace, then death. False once the sink is dead.
  bool Drain();
  /// Sends as much pending data as the socket accepts right now.
  void TryDrain();
  /// Marks the sink dead and stops `stop_` with kPeerGone.
  void MarkDead();
  /// Bytes enqueued but not yet handed to the kernel.
  size_t pending_bytes() const { return pending_.size() - drained_; }

  int fd_;
  SocketSinkOptions options_;
  StopToken* stop_;
  /// Pending bytes at which Emit() drains (max_pending_bytes / 8).
  size_t drain_threshold_ = 1;
  std::string pending_;
  /// Length of pending_'s already-sent prefix (compacted lazily).
  size_t drained_ = 0;
  bool dead_ = false;
  uint64_t emitted_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t stalls_ = 0;
};

}  // namespace rcj

#endif  // RINGJOIN_NET_SOCKET_SINK_H_
