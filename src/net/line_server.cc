#include "net/line_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/protocol.h"

namespace rcj {
namespace net {
namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

LineServer::LineServer(const LineServerOptions& options, Tier tier)
    : options_(options), tier_(std::move(tier)) {
  tier_.verbs["METRICS"] = [this](Connection* connection,
                                  const std::string& line) {
    AnswerMetrics(connection, line);
  };
  if (tier_.mutate) {
    for (const char* verb : {"INSERT", "DELETE", "COMPACT"}) {
      tier_.verbs[verb] = [this](Connection* connection,
                                 const std::string& line) {
        ServeMutations(connection, line);
      };
    }
  }
}

LineServer::~LineServer() { Stop(); }

Status LineServer::Start() {
  // Non-blocking, so an accept that loses its peer between poll and
  // accept cannot park the loop where no wake reaches it.
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return Status::IoError(Errno("socket"));
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  socklen_t addr_len = sizeof(addr);
  Status status;
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    status = Status::InvalidArgument("bad bind address '" +
                                     options_.bind_address + "'");
  } else if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
    status = Status::IoError(Errno("bind"));
  } else if (listen(listen_fd_, options_.backlog) != 0) {
    status = Status::IoError(Errno("listen"));
  } else if (getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                         &addr_len) != 0) {
    status = Status::IoError(Errno("getsockname"));
  } else if ((wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) < 0) {
    status = Status::IoError(Errno("eventfd"));
  }
  if (!status.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(addr.sin_port);

  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LineServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  Wake();
  accept_thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;

  // Unblock every connection: the tier cancels or shuts what its handler
  // may wait on, and shutting the client socket down makes reads and
  // writes in the handler return immediately.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections = connections_;
  }
  for (const std::shared_ptr<Connection>& connection : connections) {
    std::lock_guard<std::mutex> lock(connection->mu);
    if (tier_.unblock) tier_.unblock(connection.get());
    if (connection->fd >= 0) shutdown(connection->fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(threads_);
    connections_.clear();
  }
  for (std::thread& thread : threads) thread.join();
  // Every handler that could still wake the loop has been joined.
  close(wake_fd_);
  wake_fd_ = -1;
  started_ = false;
}

void LineServer::Wake() { eventfd_write(wake_fd_, 1); }

size_t LineServer::active_connections() {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_.size();
}

void LineServer::ReapFinishedConnections() {
  // Swap-remove keeps connections_[i] and threads_[i] paired. Joining a
  // finished handler returns immediately, but still happens outside the
  // lock so a slow exit never blocks the accounting.
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t i = 0;
    while (i < connections_.size()) {
      if (connections_[i]->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(threads_[i]));
        connections_[i] = std::move(connections_.back());
        connections_.pop_back();
        threads_[i] = std::move(threads_.back());
        threads_.pop_back();
      } else {
        ++i;
      }
    }
  }
  for (std::thread& thread : finished) thread.join();
}

void LineServer::AcceptLoop() {
  while (!stopping()) {
    ReapFinishedConnections();
    // At the cap only the wake fd is polled: peers queue in the kernel
    // backlog until a handler finishes and wakes the loop, instead of the
    // thread count growing without bound. Stop() wakes it too.
    const bool at_cap = active_connections() >= options_.max_connections;
    struct pollfd pfds[2] = {{wake_fd_, POLLIN, 0}, {listen_fd_, POLLIN, 0}};
    if (poll(pfds, at_cap ? 1 : 2, -1) <= 0) continue;
    if ((pfds[0].revents & POLLIN) != 0) {
      eventfd_t ignored;
      eventfd_read(wake_fd_, &ignored);
    }
    if (at_cap || (pfds[1].revents & POLLIN) == 0) continue;
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::shared_ptr<Connection> connection = tier_.adopt(fd);
    std::lock_guard<std::mutex> lock(mu_);
    connections_.push_back(connection);
    threads_.emplace_back([this, connection] { Serve(connection.get()); });
  }
}

Status LineServer::ReadLine(Connection* connection, std::string* line,
                            bool* clean_eof, bool* idle_closed) {
  const RequestReadOptions read_options{options_.max_request_bytes,
                                        options_.request_timeout_ms,
                                        tier_.idle_timeout_ms};
  return ReadRequestLine(connection->fd, read_options, &stop_,
                         &connection->carry, line, clean_eof, idle_closed);
}

void LineServer::Reject(Connection* connection, const Status& status) {
  if (tier_.rejected != nullptr) tier_.rejected->Add();
  tier_.send(connection, FormatErrLine(status) + "\n");
}

void LineServer::Serve(Connection* connection) {
  std::string line;
  bool idle_closed = false;
  const Status status = ReadLine(connection, &line, nullptr, &idle_closed);
  if (idle_closed) {
    // The peer connected and sent nothing for the idle window: reap it
    // quietly — no ERR, it was never mid-conversation.
    if (tier_.idle_closed != nullptr) tier_.idle_closed->Add();
  } else if (!status.ok()) {
    Reject(connection, status);
  } else {
    const auto handler = tier_.verbs.find(RequestVerb(line));
    if (handler != tier_.verbs.end()) {
      handler->second(connection, line);
    } else {
      tier_.fallback(connection, line);
    }
  }
  if (tier_.finish) tier_.finish(connection);
  {
    std::lock_guard<std::mutex> lock(connection->mu);
    close(connection->fd);
    connection->fd = -1;
  }
  // Done before the wake, so the woken loop reaps this connection.
  connection->done.store(true, std::memory_order_release);
  Wake();
}

void LineServer::ServeMutations(Connection* connection, std::string line) {
  while (tier_.mutate(connection, line)) {
    bool clean_eof = false;
    bool idle_closed = false;
    const Status status = ReadLine(connection, &line, &clean_eof, &idle_closed);
    if (!status.ok()) {
      if (idle_closed && tier_.idle_closed != nullptr) {
        tier_.idle_closed->Add();
      }
      // A clean close (or the idle reaper with no partial line pending)
      // simply ends the batch; a half-delivered line is a real error.
      if (!clean_eof && !idle_closed && !line.empty()) {
        Reject(connection, status);
      }
      return;
    }
    if (!IsMutationRequestLine(line)) {
      Reject(connection, Status::InvalidArgument(
                             "only mutation requests may follow a mutation "
                             "on one connection"));
      return;
    }
  }
}

void LineServer::AnswerMetrics(Connection* connection,
                               const std::string& line) {
  if (!IsMetricsRequestLine(line)) {
    Reject(connection, Status::InvalidArgument("METRICS takes no fields"));
    return;
  }
  if (tier_.metrics != nullptr) tier_.metrics->Add();
  // The exposition is newline-terminated per line, so its line count is
  // its '\n' count; ENDMETRICS carries it so a client can read the block
  // without sniffing.
  const std::string exposition =
      obs::MetricsRegistry::Default().RenderPrometheus();
  uint64_t lines = 0;
  for (const char c : exposition) {
    if (c == '\n') ++lines;
  }
  tier_.send(connection,
             "OK\n" + exposition + FormatMetricsEndLine(lines) + "\n");
}

}  // namespace net
}  // namespace rcj
