#include "net/request_reader.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace rcj {
namespace net {
namespace {

/// Moves bytes from `*carry` into `*line` up to the first newline.
/// True when a full line was assembled.
bool TakeLineFromCarry(std::string* carry, std::string* line) {
  const size_t newline = carry->find('\n');
  if (newline == std::string::npos) {
    line->append(*carry);
    carry->clear();
    return false;
  }
  line->append(*carry, 0, newline);
  carry->erase(0, newline + 1);
  return true;
}

}  // namespace

Status ReadRequestLine(int fd, const RequestReadOptions& options,
                       std::string* carry, std::string* line, bool* clean_eof,
                       bool* idle_closed) {
  line->clear();
  if (clean_eof) *clean_eof = false;
  if (idle_closed) *idle_closed = false;
  if (TakeLineFromCarry(carry, line)) {
    if (line->size() > options.max_request_bytes) {
      return Status::InvalidArgument(
          "request line exceeds " +
          std::to_string(options.max_request_bytes) + " bytes");
    }
    return Status::OK();
  }
  // Wall-clock deadline: a slow-drip client that keeps the socket readable
  // must still run out of time, or it pins a handler thread forever.
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::milliseconds(options.request_timeout_ms);
  const auto idle_deadline =
      start + std::chrono::milliseconds(options.idle_timeout_ms);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    // The idle reaper only applies while not a single byte of the next
    // request has arrived (carry included, via the initial line fill): a
    // peer that started typing is governed by the request timeout alone.
    const bool idle_applies = options.idle_timeout_ms > 0 && line->empty();
    if (idle_applies && now >= idle_deadline) {
      if (idle_closed) *idle_closed = true;
      return Status::InvalidArgument(
          "connection idle for " +
          std::to_string(options.idle_timeout_ms) + " ms");
    }
    if (now >= deadline) {
      return Status::InvalidArgument("timed out waiting for request line");
    }
    // Sleep until data arrives or the nearer deadline passes, rounded up
    // so the wake lands at or after it.
    const auto wake_at =
        idle_applies ? std::min(deadline, idle_deadline) : deadline;
    const auto wait_us =
        std::chrono::duration_cast<std::chrono::microseconds>(wake_at - now)
            .count();
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = poll(&pfd, 1, static_cast<int>((wait_us + 999) / 1000));
    if (ready < 0 && errno != EINTR) {
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;
    char buffer[512];
    const ssize_t got = recv(fd, buffer, sizeof(buffer), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (got == 0) {
      if (clean_eof && line->empty()) *clean_eof = true;
      return Status::InvalidArgument(
          "connection closed before a full request line");
    }
    const char* newline =
        static_cast<const char*>(memchr(buffer, '\n', static_cast<size_t>(got)));
    if (newline) {
      line->append(buffer, newline - buffer);
      // Bytes past the newline belong to the *next* request of a batch;
      // park them for the following call instead of dropping them.
      carry->append(newline + 1, buffer + got - (newline + 1));
    } else {
      line->append(buffer, static_cast<size_t>(got));
    }
    if (line->size() > options.max_request_bytes) {
      return Status::InvalidArgument(
          "request line exceeds " +
          std::to_string(options.max_request_bytes) + " bytes");
    }
    if (newline) return Status::OK();
  }
}

}  // namespace net
}  // namespace rcj
