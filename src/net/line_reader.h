// Client-side socket I/O helpers for the ringjoin wire protocol — the
// consuming counterpart of SocketSink. LineReader is the one LF-framed
// reader: net::ProtocolClient reads every answer through it (and with it
// `rcj_tool client`, the examples, the fleet proxy and perfbench's
// harness), and tests that assert raw wire bytes use it directly, so
// framing details (CR stripping, EINTR, partial recv) live in exactly one
// place. Servers write through SocketSink, not SendAll.
#ifndef RINGJOIN_NET_LINE_READER_H_
#define RINGJOIN_NET_LINE_READER_H_

#include <sys/socket.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

namespace rcj {
namespace net {

/// Reads LF-terminated lines off a blocking socket through an internal
/// 64 KiB buffer: one recv() fills it, and each line is cut out of it
/// with memchr and appended as whole spans. Not thread-safe; one reader
/// per connection.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd), buffer_(kBufferBytes) {}

  /// True when a complete line is buffered (ReadLine() will not recv()).
  bool HasLine() const {
    return std::memchr(buffer_.data() + next_, '\n', buffered_ - next_) !=
           nullptr;
  }

  /// Fills `*line` with the next line (LF consumed, trailing CR
  /// stripped). False on EOF or a hard error before a complete line.
  bool ReadLine(std::string* line) {
    line->clear();
    for (;;) {
      const char* begin = buffer_.data() + next_;
      const size_t available = buffered_ - next_;
      const char* newline =
          static_cast<const char*>(std::memchr(begin, '\n', available));
      if (newline != nullptr) {
        line->append(begin, newline);
        next_ += static_cast<size_t>(newline - begin) + 1;
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      line->append(begin, available);
      next_ = buffered_;
      const ssize_t got = recv(fd_, buffer_.data(), buffer_.size(), 0);
      if (got <= 0) {
        if (got < 0 && errno == EINTR) continue;
        return false;
      }
      buffered_ = static_cast<size_t>(got);
      next_ = 0;
    }
  }

 private:
  static constexpr size_t kBufferBytes = 64 * 1024;

  int fd_;
  std::vector<char> buffer_;
  size_t buffered_ = 0;
  size_t next_ = 0;
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
