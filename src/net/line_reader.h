// The wire protocol's one LF framer, for both sides of a connection:
// LineServer reads every request line through it (under the request
// timeout, the idle reaper and the length cap), and net::ProtocolClient
// every answer (the fleet proxy's under the request's deadline). So
// framing details (EINTR, partial recv, bytes past a newline, the limits)
// live in one place. Servers write through SocketSink, not SendAll.
#ifndef RINGJOIN_NET_LINE_READER_H_
#define RINGJOIN_NET_LINE_READER_H_

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>

namespace rcj {
namespace net {

/// How one Read() ended.
enum class ReadOutcome {
  kLine,      ///< a complete line was read.
  kEof,       ///< the peer closed with no byte of a next line buffered.
  kIdle,      ///< the idle window passed with no byte of a next line.
  kTimedOut,  ///< the deadline passed before the line was complete.
  kTooLong,   ///< the line grew past the length cap.
  kError,     ///< recv/poll failed, or the peer closed mid-line.
};

using ReadClock = std::chrono::steady_clock;
constexpr ReadClock::time_point kNoDeadline = ReadClock::time_point::max();

/// The bounds of one Read(); the defaults bound nothing.
struct ReadLimits {
  /// The line is due by then.
  ReadClock::time_point deadline = kNoDeadline;
  /// kIdle once this long passes with no byte of the line (0 = off).
  int idle_ms = 0;
  /// The longest line, LF excluded (0 = no cap).
  size_t max_bytes = 0;
};

/// Reads LF-terminated lines off a blocking socket through an internal
/// 64 KiB buffer (uninitialised, so a short line touches one page): one
/// recv() fills it, and each line is cut out of it with memchr. Bytes past
/// a newline, and those of a line whose read ended early, stay buffered
/// for the next read. Not thread-safe; one reader per connection.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd), buffer_(new char[kBufferBytes]) {}

  /// True when a complete line is buffered (ReadLine() will not recv()).
  bool HasLine() const {
    return std::memchr(buffer_.get() + next_, '\n', buffered_ - next_) !=
           nullptr;
  }

  /// True when any byte of a next line is buffered.
  bool HasBytes() const { return !partial_.empty() || next_ < buffered_; }

  /// Read() with no limits: true when a line was read.
  bool ReadLine(std::string* line) {
    return Read(line, {}) == ReadOutcome::kLine;
  }

  /// Reads the next line into `*line` (LF consumed, any CR kept; set only
  /// on kLine). With a deadline or an idle window it polls up to the
  /// nearer bound before each recv(); without, it blocks in recv().
  ReadOutcome Read(std::string* line, const ReadLimits& limits) {
    const bool bounded = limits.deadline != kNoDeadline || limits.idle_ms > 0;
    const ReadClock::time_point idle_until =
        bounded ? ReadClock::now() + std::chrono::milliseconds(limits.idle_ms)
                : ReadClock::time_point();
    for (;;) {
      const char* begin = buffer_.get() + next_;
      const size_t available = buffered_ - next_;
      const char* newline =
          static_cast<const char*>(std::memchr(begin, '\n', available));
      const size_t length =
          newline == nullptr ? available : static_cast<size_t>(newline - begin);
      if (limits.max_bytes > 0 &&
          partial_.size() + length > limits.max_bytes) {
        return ReadOutcome::kTooLong;
      }
      if (newline != nullptr) {
        if (partial_.empty()) {
          line->assign(begin, length);
        } else {
          partial_.append(begin, length);
          line->swap(partial_);
          partial_.clear();
        }
        next_ += length + 1;
        return ReadOutcome::kLine;
      }
      partial_.append(begin, available);
      next_ = buffered_ = 0;
      if (bounded) {
        const ReadClock::time_point now = ReadClock::now();
        const bool idle_applies = limits.idle_ms > 0 && partial_.empty();
        if (idle_applies && now >= idle_until) return ReadOutcome::kIdle;
        if (now >= limits.deadline) return ReadOutcome::kTimedOut;
        // Sleep until data arrives or the nearer bound passes, rounded up
        // so the wake lands at or after it; past a day, the loop re-checks.
        ReadClock::time_point wake_at = now + std::chrono::hours(24);
        wake_at = std::min(wake_at, limits.deadline);
        if (idle_applies) wake_at = std::min(wake_at, idle_until);
        const auto wait =
            std::chrono::ceil<std::chrono::milliseconds>(wake_at - now);
        struct pollfd pfd = {fd_, POLLIN, 0};
        const int ready = poll(&pfd, 1, static_cast<int>(wait.count()));
        if (ready < 0 && errno != EINTR) return ReadOutcome::kError;
        if (ready <= 0) continue;
      }
      const ssize_t got = recv(fd_, buffer_.get(), kBufferBytes, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got == 0 && partial_.empty()) return ReadOutcome::kEof;
      if (got <= 0) return ReadOutcome::kError;
      buffered_ = static_cast<size_t>(got);
    }
  }

 private:
  static constexpr size_t kBufferBytes = 64 * 1024;

  int fd_;
  std::unique_ptr<char[]> buffer_;
  size_t buffered_ = 0;
  size_t next_ = 0;
  /// The start of a line that outgrew the buffer or outlasted its read.
  std::string partial_;
};

/// Sends the whole buffer (EINTR/partial-send safe, SIGPIPE suppressed).
/// False once the peer is gone.
inline bool SendAll(int fd, const std::string& data) {
  size_t sent_total = 0;
  while (sent_total < data.size()) {
    const ssize_t sent = send(fd, data.data() + sent_total,
                              data.size() - sent_total, MSG_NOSIGNAL);
    if (sent < 0 && errno == EINTR) continue;
    if (sent <= 0) return false;
    sent_total += static_cast<size_t>(sent);
  }
  return true;
}

}  // namespace net
}  // namespace rcj

#endif  // RINGJOIN_NET_LINE_READER_H_
