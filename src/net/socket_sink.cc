#include "net/socket_sink.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "net/protocol.h"

namespace rcj {

SocketSink::SocketSink(int fd, SocketSinkOptions options, StopToken* stop)
    : fd_(fd), options_(options), stop_(stop) {
  if (options_.max_pending_bytes == 0) options_.max_pending_bytes = 1;
  drain_threshold_ = std::max<size_t>(1, options_.max_pending_bytes / 8);
}

void SocketSink::MarkDead() {
  dead_ = true;
  if (stop_ != nullptr) stop_->Stop(StopReason::kPeerGone);
}

bool SocketSink::Emit(const RcjPair& pair) {
  if (dead_) return false;
  net::AppendPairLine(pair, &pending_);
  return Enqueued();
}

bool SocketSink::EmitLine(const std::string& line) {
  if (dead_) return false;
  pending_ += line;
  return Enqueued();
}

bool SocketSink::Enqueued() {
  pending_ += '\n';
  if (pending_bytes() >= drain_threshold_ && !Drain()) return false;
  ++emitted_;
  return true;
}

void SocketSink::EndBatch() {
  if (!dead_) TryDrain();
}

bool SocketSink::SendLine(const std::string& line) {
  if (dead_) return false;
  pending_ += line;
  pending_ += '\n';
  return Drain();
}

bool SocketSink::SendFrames(const std::string& frames) {
  if (dead_) return false;
  pending_ += frames;
  return Flush(options_.drain_grace_ms);
}

bool SocketSink::Drain() {
  TryDrain();
  if (dead_) return false;
  if (pending_bytes() > options_.max_pending_bytes) {
    // The kernel buffer and our bound are both full: wait while the
    // consumer takes bytes. A client that merely reads slowly keeps the
    // wait going until the buffer drains; one that took nothing for a
    // whole grace turns into a cancellation instead of an unbounded queue.
    ++stalls_;
    if (!Flush(options_.drain_grace_ms)) {
      MarkDead();
      return false;
    }
  }
  return true;
}

void SocketSink::TryDrain() {
  // drained_ indexes the sent prefix; the buffer is compacted only when
  // empty or the dead prefix dominates, so partial kernel-sized sends cost
  // linear copies instead of a memmove of the whole backlog each round.
  while (drained_ < pending_.size() && !dead_) {
    const ssize_t sent =
        send(fd_, pending_.data() + drained_, pending_.size() - drained_,
             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (sent > 0) {
      drained_ += static_cast<size_t>(sent);
      bytes_sent_ += static_cast<uint64_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    MarkDead();  // peer closed or the connection errored
  }
  if (drained_ == pending_.size()) {
    pending_.clear();
    drained_ = 0;
  } else if (drained_ > options_.max_pending_bytes) {
    pending_.erase(0, drained_);
    drained_ = 0;
  }
}

bool SocketSink::Flush(int timeout_ms) {
  TryDrain();
  // The deadline is wall-clock, so poll() returning early (socket
  // writable, signal) does not eat into the grace, and it moves with every
  // byte the socket takes: only a peer that takes nothing for the whole
  // timeout is given up.
  const auto timeout = std::chrono::milliseconds(timeout_ms);
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (pending_bytes() > 0 && !dead_) {
    const auto remaining = std::chrono::duration_cast<
        std::chrono::milliseconds>(deadline -
                                   std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return false;
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    // Sliced: a TCP socket reports POLLOUT only once a third of its send
    // buffer is free, so only the slices see a slower reader's progress.
    const int step_ms =
        remaining.count() < 50 ? static_cast<int>(remaining.count()) : 50;
    const int ready = poll(&pfd, 1, step_ms);
    if (ready < 0 && errno != EINTR) {
      MarkDead();
      return false;
    }
    if (ready > 0 && (pfd.revents & (POLLERR | POLLNVAL)) != 0) {
      MarkDead();
      return false;
    }
    const uint64_t sent_before = bytes_sent_;
    TryDrain();
    if (bytes_sent_ != sent_before) {
      deadline = std::chrono::steady_clock::now() + timeout;
    }
  }
  return pending_bytes() == 0 && !dead_;
}

}  // namespace rcj
