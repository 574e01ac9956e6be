// Tests for the fleet proxy tier. Two kinds of backends serve here:
//
//   * real in-process NetServers (each its own router + environments,
//     like independent `rcj_tool serve` processes) prove the headline
//     contract — a client cannot tell the proxy from a single server,
//     down to the bytes — plus STATS aggregation and replicated
//     mutations;
//   * scripted raw-TCP fakes inject the failures the retry machinery
//     exists for (refused dials, ERR Overloaded sheds, mid-stream
//     drops, diverging replicas) and assert bounded retries, the
//     recorded jittered backoff schedule, and exact error mapping.
#include "fleet/fleet_proxy.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stable_hash.h"
#include "core/rcj.h"
#include "live/live_environment.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "net/protocol_client.h"
#include "shard/shard_router.h"
#include "workload/generator.h"

namespace rcj {
namespace fleet {
namespace {

std::unique_ptr<RcjEnvironment> BuildEnv(size_t n, uint64_t seed) {
  const std::vector<PointRecord> qset = GenerateUniform(n, seed);
  const std::vector<PointRecord> pset = GenerateUniform(n + 100, seed + 1);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

/// One real backend: its own router + NetServer, registering the same
/// environments as its peers — exactly what each `rcj_tool serve` process
/// of a fleet does.
struct RealBackend {
  explicit RealBackend(
      const std::vector<std::pair<std::string, const RcjEnvironment*>>&
          environments) {
    for (const auto& named : environments) {
      EXPECT_TRUE(
          router.RegisterEnvironment(named.first, named.second).ok());
    }
    server = std::make_unique<NetServer>(&router);
    EXPECT_TRUE(server->Start().ok());
  }
  BackendAddress address() const { return {"127.0.0.1", server->port()}; }
  ShardRouter router;
  std::unique_ptr<NetServer> server;
};

/// Grabs an ephemeral port nothing listens on: dials to it are refused.
BackendAddress DeadAddress() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                 sizeof(addr)),
            0);
  socklen_t addr_len = sizeof(addr);
  EXPECT_EQ(getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        &addr_len),
            0);
  const uint16_t port = ntohs(addr.sin_port);
  close(fd);
  return {"127.0.0.1", port};
}

/// A scripted backend speaking raw bytes: the handler gets the
/// zero-based connection index and the accepted fd, writes whatever the
/// scenario needs, and returns to close the conversation.
class FakeBackend {
 public:
  using Handler = std::function<void(size_t conn_index, int fd)>;

  explicit FakeBackend(Handler handler) : handler_(std::move(handler)) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
              0);
    EXPECT_EQ(listen(listen_fd_, 16), 0);
    socklen_t addr_len = sizeof(addr);
    EXPECT_EQ(getsockname(listen_fd_,
                          reinterpret_cast<struct sockaddr*>(&addr),
                          &addr_len),
              0);
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~FakeBackend() {
    stop_.store(true);
    accept_thread_.join();
    close(listen_fd_);
  }

  BackendAddress address() const { return {"127.0.0.1", port_}; }
  size_t connections() const { return connections_.load(); }

  /// Reads one LF-terminated line (stripped) from `fd`; empty on EOF.
  static std::string ReadLineRaw(int fd) {
    std::string line;
    char byte;
    while (recv(fd, &byte, 1, 0) == 1) {
      if (byte == '\n') return line;
      line.push_back(byte);
    }
    return line;
  }

  static void SendRaw(int fd, const std::string& text) {
    (void)!net::SendAll(fd, text);
  }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      struct pollfd pfd;
      pfd.fd = listen_fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      if (poll(&pfd, 1, 50) <= 0) continue;
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      const size_t index = connections_.fetch_add(1);
      handler_(index, fd);
      close(fd);
    }
  }

  Handler handler_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> connections_{0};
  std::thread accept_thread_;
};

/// Sends `request` to `port` and returns every byte the server answered
/// until it closed the connection — the raw-stream capture the
/// byte-identity assertions compare.
std::string RawExchange(uint16_t port, const std::string& request) {
  Result<int> fd = net::DialTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (!fd.ok()) return "";
  EXPECT_TRUE(net::SendAll(fd.value(), request));
  std::string received;
  char chunk[4096];
  ssize_t got;
  while ((got = recv(fd.value(), chunk, sizeof(chunk), 0)) > 0) {
    received.append(chunk, static_cast<size_t>(got));
  }
  close(fd.value());
  return received;
}

/// Asserts two captured query streams are the same result: every byte up
/// to the trailing END line identical (OK + the full PAIR stream — the
/// determinism contract), and the END summaries agreeing on pairs=. The
/// rest of the summary carries wall-clock timings and cache-state fault
/// splits that legitimately differ between two executions of the same
/// query, so byte-identity stops before them.
void ExpectSameStream(const std::string& proxied, const std::string& direct,
                      const char* label) {
  const size_t proxied_end = proxied.rfind("\nEND ");
  const size_t direct_end = direct.rfind("\nEND ");
  ASSERT_NE(proxied_end, std::string::npos) << label << ": " << proxied;
  ASSERT_NE(direct_end, std::string::npos) << label << ": " << direct;
  EXPECT_EQ(proxied.substr(0, proxied_end + 1),
            direct.substr(0, direct_end + 1))
      << label;
  std::string proxied_summary = proxied.substr(proxied_end + 1);
  std::string direct_summary = direct.substr(direct_end + 1);
  ASSERT_FALSE(proxied_summary.empty());
  ASSERT_FALSE(direct_summary.empty());
  proxied_summary.pop_back();  // trailing LF
  direct_summary.pop_back();
  net::WireSummary proxied_parsed;
  net::WireSummary direct_parsed;
  ASSERT_TRUE(net::ParseEndLine(proxied_summary, &proxied_parsed).ok())
      << label;
  ASSERT_TRUE(net::ParseEndLine(direct_summary, &direct_parsed).ok())
      << label;
  EXPECT_EQ(proxied_parsed.pairs, direct_parsed.pairs) << label;
}

/// A sleep_fn that records every backoff instead of sleeping: tests of
/// the retry path assert the exact jittered schedule and finish fast.
struct SleepRecorder {
  std::function<void(uint64_t)> fn() {
    return [this](uint64_t ms) {
      std::lock_guard<std::mutex> lock(mu);
      delays.push_back(ms);
    };
  }
  std::mutex mu;
  std::vector<uint64_t> delays;
};

TEST(FleetProxyTest, ReplicaSetIsTheStableHashWindow) {
  std::vector<BackendAddress> addresses(4);
  FleetProxyOptions options;
  options.replicas = 2;
  FleetProxy proxy(addresses, options);
  const size_t primary = static_cast<size_t>(StableHash("default") % 4);
  const std::vector<size_t> window = proxy.ReplicaSet("default");
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0], primary);
  EXPECT_EQ(window[1], (primary + 1) % 4);

  // Width clamps to the fleet: asking for more replicas than backends
  // yields every backend once; zero is normalized to one.
  FleetProxyOptions wide;
  wide.replicas = 9;
  EXPECT_EQ(FleetProxy(addresses, wide).ReplicaSet("x").size(), 4u);
  FleetProxyOptions none;
  none.replicas = 0;
  EXPECT_EQ(FleetProxy(addresses, none).ReplicaSet("x").size(), 1u);
}

TEST(FleetProxyTest, ProxiedStreamsAreByteIdenticalToDirectServe) {
  // The headline contract: for every request shape, the bytes a client
  // reads through the proxy are exactly the bytes a direct connection to
  // a backend reads. (All backends serve the same registrations, and the
  // engine streams deterministically, so any backend is ground truth.)
  std::unique_ptr<RcjEnvironment> env_a = BuildEnv(700, 701);
  std::unique_ptr<RcjEnvironment> env_b = BuildEnv(500, 711);
  const std::vector<std::pair<std::string, const RcjEnvironment*>> regs = {
      {"default", env_a.get()}, {"b", env_b.get()}};
  RealBackend backend0(regs);
  RealBackend backend1(regs);

  FleetProxy proxy({backend0.address(), backend1.address()});
  ASSERT_TRUE(proxy.Start().ok());

  const char* kRequests[] = {
      "QUERY algo=obj\n",
      "QUERY env=b algo=bij\n",
      "QUERY algo=brute limit=11\n",
      "QUERY env=b algo=inj\n",
  };
  for (const char* request : kRequests) {
    const std::string direct = RawExchange(backend0.server->port(), request);
    const std::string proxied = RawExchange(proxy.port(), request);
    ASSERT_GT(direct.size(), 0u) << request;
    ExpectSameStream(proxied, direct, request);
  }

  // Rejections are byte-identical too: both sides speak the same strict
  // parser and the same ERR formatter.
  const char* kBad[] = {"HELLO\n", "QUERY algo=quantum\n"};
  for (const char* request : kBad) {
    EXPECT_EQ(RawExchange(proxy.port(), request),
              RawExchange(backend0.server->port(), request))
        << request;
  }

  proxy.Stop();
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.ok, 4u);
  EXPECT_EQ(counters.rejected, 2u);
  EXPECT_EQ(counters.retries, 0u);
}

TEST(FleetProxyTest, RefusedPrimaryFailsOverInsideTheReplicaWindow) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(600, 721);
  const std::vector<std::pair<std::string, const RcjEnvironment*>> regs = {
      {"default", env.get()}};
  RealBackend live_backend(regs);

  // Place a dead address at the primary slot of "default" so the first
  // dial is refused and the request must fail over to the replica.
  const size_t primary = static_cast<size_t>(StableHash("default") % 2);
  std::vector<BackendAddress> addresses(2);
  addresses[primary] = DeadAddress();
  addresses[1 - primary] = live_backend.address();

  FleetProxyOptions options;
  options.replicas = 2;
  SleepRecorder recorder;
  options.sleep_fn = recorder.fn();
  FleetProxy proxy(addresses, options);
  ASSERT_TRUE(proxy.Start().ok());

  const std::string direct =
      RawExchange(live_backend.server->port(), "QUERY algo=obj\n");
  const std::string proxied = RawExchange(proxy.port(), "QUERY algo=obj\n");
  ExpectSameStream(proxied, direct, "failover stream");

  proxy.Stop();
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.ok, 1u);
  EXPECT_EQ(counters.retries, 1u) << "one failover dial, no more";
  EXPECT_EQ(counters.backoffs, 0u)
      << "failing over within a cycle must not sleep";
  EXPECT_GE(proxy.pool().counters().dial_failures, 1u);
}

TEST(FleetProxyTest, OverloadedBackendIsRetriedOnTheRecordedSchedule) {
  // The backend sheds twice, then serves. With one replica every retry
  // crosses a cycle boundary, so the recorded delays must be exactly the
  // zero-jitter exponential schedule.
  const std::string ok_stream = "OK\nPAIR fake 1\nEND fake 1\n";
  const std::string shed =
      net::FormatErrLine(Status::Overloaded("queue full")) + "\n";
  FakeBackend backend([&](size_t conn, int fd) {
    FakeBackend::ReadLineRaw(fd);  // consume the QUERY line
    FakeBackend::SendRaw(fd, conn < 2 ? shed : ok_stream);
  });

  FleetProxyOptions options;
  options.retry.max_attempts = 6;
  options.retry.base_backoff_ms = 10;
  options.retry.max_backoff_ms = 500;
  options.retry.jitter_fraction = 0.0;
  SleepRecorder recorder;
  options.sleep_fn = recorder.fn();
  FleetProxy proxy({backend.address()}, options);
  ASSERT_TRUE(proxy.Start().ok());

  const std::string proxied = RawExchange(proxy.port(), "QUERY algo=obj\n");
  EXPECT_EQ(proxied, ok_stream);
  EXPECT_EQ(backend.connections(), 3u);

  proxy.Stop();
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.ok, 1u);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.retries, 2u);
  EXPECT_EQ(counters.backoffs, 2u);
  const std::vector<uint64_t> expected = {10, 20};
  EXPECT_EQ(recorder.delays, expected);
}

TEST(FleetProxyTest, JitteredBackoffStaysInsideTheConfiguredWindow) {
  const std::string shed =
      net::FormatErrLine(Status::Overloaded("queue full")) + "\n";
  FakeBackend backend([&](size_t, int fd) {
    FakeBackend::ReadLineRaw(fd);
    FakeBackend::SendRaw(fd, shed);
  });

  FleetProxyOptions options;
  options.retry.max_attempts = 5;
  options.retry.base_backoff_ms = 100;
  options.retry.max_backoff_ms = 10000;
  options.retry.jitter_fraction = 0.5;
  SleepRecorder recorder;
  options.sleep_fn = recorder.fn();
  FleetProxy proxy({backend.address()}, options);
  ASSERT_TRUE(proxy.Start().ok());

  const std::string proxied = RawExchange(proxy.port(), "QUERY algo=obj\n");
  Status transported = Status::OK();
  ASSERT_TRUE(net::ParseErrLine(proxied.substr(0, proxied.size() - 1),
                                &transported)
                  .ok())
      << proxied;
  EXPECT_EQ(transported.code(), StatusCode::kOverloaded);

  proxy.Stop();
  ASSERT_EQ(recorder.delays.size(), 4u);
  for (size_t cycle = 0; cycle < recorder.delays.size(); ++cycle) {
    const uint64_t base = BackoffBaseMs(options.retry, cycle);
    EXPECT_LE(recorder.delays[cycle], base) << "cycle " << cycle;
    EXPECT_GE(recorder.delays[cycle], base - base / 2) << "cycle " << cycle;
  }
  EXPECT_EQ(proxy.counters().shed, 1u)
      << "an Overloaded that survives the budget maps to shed";
}

TEST(FleetProxyTest, MidStreamDropReplaysWithoutDuplicatingPairs) {
  // First conversation dies after two pairs; the replay delivers the
  // same prefix plus the rest. The client stream must splice cleanly:
  // one OK, three distinct pairs, one END — nothing duplicated.
  FakeBackend backend([&](size_t conn, int fd) {
    FakeBackend::ReadLineRaw(fd);
    if (conn == 0) {
      FakeBackend::SendRaw(fd, "OK\nPAIR a 1\nPAIR b 2\n");
      return;  // close mid-stream
    }
    FakeBackend::SendRaw(fd,
                         "OK\nPAIR a 1\nPAIR b 2\nPAIR c 3\nEND fake 3\n");
  });

  FleetProxyOptions options;
  options.retry.jitter_fraction = 0.0;
  SleepRecorder recorder;
  options.sleep_fn = recorder.fn();
  FleetProxy proxy({backend.address()}, options);
  ASSERT_TRUE(proxy.Start().ok());

  const std::string proxied = RawExchange(proxy.port(), "QUERY algo=obj\n");
  EXPECT_EQ(proxied, "OK\nPAIR a 1\nPAIR b 2\nPAIR c 3\nEND fake 3\n");

  proxy.Stop();
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.ok, 1u);
  EXPECT_EQ(counters.failovers, 1u)
      << "the replay happened after OK reached the client";
  EXPECT_EQ(counters.retries, 1u);
  EXPECT_EQ(counters.failed, 0u);
}

TEST(FleetProxyTest, DivergingReplicaSurfacesCorruptionNotASplicedStream) {
  // The replay disagrees with what was already relayed: the proxy must
  // refuse to splice and report Corruption after the honest prefix.
  FakeBackend backend([&](size_t conn, int fd) {
    FakeBackend::ReadLineRaw(fd);
    if (conn == 0) {
      FakeBackend::SendRaw(fd, "OK\nPAIR a 1\n");
      return;
    }
    FakeBackend::SendRaw(fd, "OK\nPAIR x 9\nEND fake 1\n");
  });

  FleetProxyOptions options;
  options.retry.jitter_fraction = 0.0;
  SleepRecorder recorder;
  options.sleep_fn = recorder.fn();
  FleetProxy proxy({backend.address()}, options);
  ASSERT_TRUE(proxy.Start().ok());

  const std::string proxied = RawExchange(proxy.port(), "QUERY algo=obj\n");
  // The acknowledged prefix arrives, then the ERR epilogue. The divergent
  // pair must never appear — an unflushed relay tail is dropped in favor
  // of the error, never spliced with the second replica's bytes.
  ASSERT_EQ(proxied.rfind("OK\n", 0), 0u) << proxied;
  EXPECT_EQ(proxied.find("PAIR x"), std::string::npos) << proxied;
  const size_t err_at = proxied.find("ERR ");
  ASSERT_NE(err_at, std::string::npos) << proxied;
  Status transported = Status::OK();
  std::string err_line = proxied.substr(err_at);
  err_line.pop_back();  // trailing LF
  ASSERT_TRUE(net::ParseErrLine(err_line, &transported).ok()) << proxied;
  EXPECT_EQ(transported.code(), StatusCode::kCorruption);

  proxy.Stop();
  EXPECT_EQ(proxy.counters().failed, 1u);
  EXPECT_EQ(proxy.counters().ok, 0u);
}

TEST(FleetProxyTest, LongReplayPrefixIsVerifiedByItsRunningHash) {
  // 10^5 pairs reach the client before the first conversation drops. The
  // replay is checked against that whole prefix through the ledger's count
  // and running hash alone: a replica that agrees splices byte-exactly,
  // and one whose prefix differs only in its last pair, or that ends one
  // pair short of it, is Corruption with none of its own lines on the wire.
  constexpr size_t kPrefix = 100000;
  const auto pairs = [](size_t begin, size_t end) {
    std::string lines;
    for (size_t i = begin; i < end; ++i) {
      lines += "PAIR " + std::to_string(i) + " " + std::to_string(7 * i) +
               "\n";
    }
    return lines;
  };
  const std::string prefix = pairs(0, kPrefix);
  const std::string all_but_last = pairs(0, kPrefix - 1);
  const std::string suffix = pairs(kPrefix, kPrefix + 10);
  const std::string end = "END fake " + std::to_string(kPrefix + 10) + "\n";

  // One failover: the first conversation streams `prefix` and drops, the
  // replay streams `replay`. Returns the bytes the client received.
  const auto failover = [&](const std::string& replay,
                            FleetProxy::Counters* counters) {
    FakeBackend backend([&](size_t conn, int fd) {
      FakeBackend::ReadLineRaw(fd);
      FakeBackend::SendRaw(fd, "OK\n" + (conn == 0 ? prefix : replay));
    });
    FleetProxyOptions options;
    options.retry.jitter_fraction = 0.0;
    SleepRecorder recorder;
    options.sleep_fn = recorder.fn();
    FleetProxy proxy({backend.address()}, options);
    EXPECT_TRUE(proxy.Start().ok());
    const std::string proxied =
        RawExchange(proxy.port(), "QUERY algo=obj\n");
    proxy.Stop();
    *counters = proxy.counters();
    return proxied;
  };
  // The honest prefix, then exactly one ERR Corruption line.
  const auto expect_corruption = [&](const std::string& proxied,
                                     const FleetProxy::Counters& counters,
                                     const char* label) {
    ASSERT_GT(proxied.size(), 3 + prefix.size()) << label;
    EXPECT_TRUE(proxied.compare(0, 3 + prefix.size(), "OK\n" + prefix) == 0)
        << label;
    std::string err_line = proxied.substr(3 + prefix.size());
    ASSERT_EQ(err_line.find('\n'), err_line.size() - 1) << label << err_line;
    err_line.pop_back();
    Status transported = Status::OK();
    ASSERT_TRUE(net::ParseErrLine(err_line, &transported).ok())
        << label << err_line;
    EXPECT_EQ(transported.code(), StatusCode::kCorruption) << label;
    EXPECT_EQ(counters.failed, 1u) << label;
    EXPECT_EQ(counters.ok, 0u) << label;
  };

  FleetProxy::Counters counters;
  EXPECT_TRUE(failover(prefix + suffix + end, &counters) ==
              "OK\n" + prefix + suffix + end)
      << "a matching replica splices byte-exactly";
  EXPECT_EQ(counters.ok, 1u);
  EXPECT_EQ(counters.failovers, 1u);

  // One byte off in the prefix's last pair.
  const std::string last_differs = all_but_last + "PAIR " +
                                   std::to_string(kPrefix - 1) + " " +
                                   std::to_string(7 * (kPrefix - 1) + 1) +
                                   "\n";
  ASSERT_EQ(last_differs.size(), prefix.size());
  expect_corruption(failover(last_differs + suffix + end, &counters),
                    counters, "last pair differs");

  expect_corruption(failover(all_but_last + end, &counters), counters,
                    "ends one pair short");
}

TEST(FleetProxyTest, StalledClientIsCancelledWithinTheDrainGrace) {
  // The backend streams far past every socket buffer on the way, and the
  // client sends its QUERY and never reads. The proxy writes through the
  // same bounded SocketSink as NetServer, so it must give the client up
  // within the drain grace instead of holding the connection for as long
  // as the client stays connected.
  std::string block;
  for (size_t i = 0; block.size() < 64 * 1024; ++i) {
    block += "PAIR " + std::to_string(i) + " 1 2 3 4 5 6\n";
  }
  FakeBackend backend([&](size_t, int fd) {
    FakeBackend::ReadLineRaw(fd);
    if (!net::SendAll(fd, "OK\n")) return;
    // Up to 256 MiB, until the proxy lets go of the conversation.
    for (size_t sent = 0; sent < (size_t{256} << 20); sent += block.size()) {
      if (!net::SendAll(fd, block)) return;
    }
  });
  FleetProxyOptions options;
  options.retry.max_attempts = 1;
  FleetProxy proxy({backend.address()}, options);
  ASSERT_TRUE(proxy.Start().ok());

  Result<int> client = net::DialTcp("127.0.0.1", proxy.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(net::SendAll(client.value(), "QUERY algo=obj\n"));
  const auto limit =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(SocketSinkOptions{}.drain_grace_ms + 3000);
  while (proxy.counters().cancelled == 0 &&
         std::chrono::steady_clock::now() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.cancelled, 1u)
      << "the relay still waits on a client that stopped reading";
  EXPECT_EQ(counters.ok, 0u);
  EXPECT_EQ(counters.failed, 0u);
  close(client.value());
  proxy.Stop();
}

/// Like RawExchange, but gives up `timeout_ms` after sending: returns
/// what arrived by then and sets `*closed` when the proxy ended the
/// conversation.
std::string ExchangeWithin(uint16_t port, const std::string& request,
                           int timeout_ms, bool* closed) {
  *closed = false;
  Result<int> fd = net::DialTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (!fd.ok()) return "";
  EXPECT_TRUE(net::SendAll(fd.value(), request));
  const auto limit = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(timeout_ms);
  std::string received;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          limit - std::chrono::steady_clock::now())
                          .count();
    struct pollfd pfd = {fd.value(), POLLIN, 0};
    if (left <= 0 || poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
    char chunk[4096];
    const ssize_t got = recv(fd.value(), chunk, sizeof(chunk), 0);
    if (got <= 0) {
      *closed = true;
      break;
    }
    received.append(chunk, static_cast<size_t>(got));
  }
  close(fd.value());
  return received;
}

/// A backend that reads the QUERY, sends `prefix`, and then stalls until
/// the proxy drops the conversation (or 5 s pass).
FakeBackend::Handler StallAfter(const std::string& prefix) {
  return [prefix](size_t, int fd) {
    FakeBackend::ReadLineRaw(fd);
    FakeBackend::SendRaw(fd, prefix);
    struct pollfd pfd = {fd, POLLIN, 0};
    poll(&pfd, 1, 5000);
  };
}

TEST(FleetProxyTest, SilentBackendIsAbandonedAtTheDeadline) {
  // The backend takes the QUERY and never answers. The proxy reads its
  // backends under the request's deadline, so the client hears
  // DeadlineExceeded when the budget runs out, not never.
  FakeBackend backend(StallAfter(""));
  FleetProxyOptions options;
  options.retry.max_attempts = 1;
  FleetProxy proxy({backend.address()}, options);
  ASSERT_TRUE(proxy.Start().ok());

  bool closed = false;
  const std::string proxied = ExchangeWithin(
      proxy.port(), "QUERY algo=obj deadline_ms=300\n", 1000, &closed);
  EXPECT_TRUE(closed) << "no answer within 1 s: " << proxied;
  EXPECT_EQ(proxied.rfind("ERR DeadlineExceeded ", 0), 0u) << proxied;

  proxy.Stop();
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.expired, 1u);
  EXPECT_EQ(counters.failovers, 0u) << "a spent budget is not a failover";
  EXPECT_EQ(counters.failed, 0u);
}

TEST(FleetProxyTest, BackendStalledMidStreamIsAbandonedAtTheDeadline) {
  // The backend streams three pairs and stalls: the client keeps them and
  // gets a DeadlineExceeded epilogue once the budget runs out.
  const std::string prefix = "OK\nPAIR a 1\nPAIR b 2\nPAIR c 3\n";
  FakeBackend backend(StallAfter(prefix));
  FleetProxyOptions options;
  options.retry.max_attempts = 1;
  FleetProxy proxy({backend.address()}, options);
  ASSERT_TRUE(proxy.Start().ok());

  bool closed = false;
  const std::string proxied = ExchangeWithin(
      proxy.port(), "QUERY algo=obj deadline_ms=300\n", 1000, &closed);
  EXPECT_TRUE(closed) << "no answer within 1 s: " << proxied;
  ASSERT_EQ(proxied.rfind(prefix, 0), 0u) << proxied;
  EXPECT_EQ(proxied.find("ERR DeadlineExceeded ", prefix.size()),
            prefix.size())
      << proxied;

  proxy.Stop();
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.expired, 1u);
  EXPECT_EQ(counters.failovers, 0u) << "a spent budget is not a failover";
  EXPECT_EQ(counters.failed, 0u);
}

TEST(FleetProxyTest, DeadFleetMapsToIoErrorAfterBoundedRetries) {
  FleetProxyOptions options;
  options.retry.max_attempts = 3;
  options.retry.jitter_fraction = 0.0;
  SleepRecorder recorder;
  options.sleep_fn = recorder.fn();
  FleetProxy proxy({DeadAddress()}, options);
  ASSERT_TRUE(proxy.Start().ok());

  const std::string proxied = RawExchange(proxy.port(), "QUERY algo=obj\n");
  Status transported = Status::OK();
  ASSERT_TRUE(net::ParseErrLine(proxied.substr(0, proxied.size() - 1),
                                &transported)
                  .ok())
      << proxied;
  EXPECT_EQ(transported.code(), StatusCode::kIoError);

  proxy.Stop();
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.failed, 1u);
  EXPECT_EQ(counters.retries, 2u) << "exactly max_attempts dials";
  EXPECT_EQ(recorder.delays.size(), 2u);
  EXPECT_EQ(proxy.pool().counters().dial_failures, 3u);
}

TEST(FleetProxyTest, DefinitiveBackendErrIsRelayedWithoutRetry) {
  // NotFound is not retryable: the backend's verdict goes to the client
  // verbatim, after exactly one backend conversation.
  const std::string verdict =
      net::FormatErrLine(
          Status::NotFound("environment 'nosuch' is not registered")) +
      "\n";
  FakeBackend backend([&](size_t, int fd) {
    FakeBackend::ReadLineRaw(fd);
    FakeBackend::SendRaw(fd, verdict);
  });
  FleetProxy proxy({backend.address()});
  ASSERT_TRUE(proxy.Start().ok());

  EXPECT_EQ(RawExchange(proxy.port(), "QUERY env=nosuch\n"), verdict);
  EXPECT_EQ(backend.connections(), 1u);

  proxy.Stop();
  EXPECT_EQ(proxy.counters().rejected, 1u);
  EXPECT_EQ(proxy.counters().retries, 0u);
}

TEST(FleetProxyTest, MalformedRequestsNeverReachABackend) {
  FakeBackend backend([](size_t, int fd) { FakeBackend::ReadLineRaw(fd); });
  FleetProxy proxy({backend.address()});
  ASSERT_TRUE(proxy.Start().ok());

  const std::string proxied = RawExchange(proxy.port(), "QUERY algo=bad\n");
  Status transported = Status::OK();
  ASSERT_TRUE(net::ParseErrLine(proxied.substr(0, proxied.size() - 1),
                                &transported)
                  .ok())
      << proxied;
  EXPECT_EQ(transported.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.connections(), 0u);

  proxy.Stop();
  EXPECT_EQ(proxy.counters().rejected, 1u);
}

TEST(FleetProxyTest, StatsAggregateRenumbersShardsAndReconciles) {
  std::unique_ptr<RcjEnvironment> env_a = BuildEnv(400, 731);
  std::unique_ptr<RcjEnvironment> env_b = BuildEnv(300, 741);
  const std::vector<std::pair<std::string, const RcjEnvironment*>> regs = {
      {"default", env_a.get()}, {"b", env_b.get()}};
  RealBackend backend0(regs);
  RealBackend backend1(regs);

  FleetProxy proxy({backend0.address(), backend1.address()});
  ASSERT_TRUE(proxy.Start().ok());

  // Give the ledgers something to count.
  ASSERT_GT(RawExchange(proxy.port(), "QUERY algo=obj\n").size(), 0u);
  ASSERT_GT(RawExchange(proxy.port(), "QUERY env=b algo=obj\n").size(), 0u);

  // The typed client validates the ENDSTATS totals against the rows.
  Result<net::ProtocolClient> dialed =
      net::ProtocolClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(dialed.ok());
  net::ProtocolClient client = std::move(dialed).value();
  std::vector<net::WireShardStats> shards;
  std::vector<net::WireEnvStats> envs;
  ASSERT_TRUE(client.Stats(&shards, &envs).ok());

  // Each backend runs one shard by default; the fleet view renumbers
  // them into one flat index space.
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].shard, 0u);
  EXPECT_EQ(shards[1].shard, 1u);
  // Every backend registers both environments, so the fleet view carries
  // one ENV row per (backend, environment), remapped onto fleet shards.
  ASSERT_EQ(envs.size(), 4u);
  for (const net::WireEnvStats& row : envs) {
    EXPECT_LT(row.shard, 2u) << row.name;
  }

  // The fleet ledger reconciles: the two proxied queries landed
  // somewhere, and every shard satisfies admitted + shed == submitted.
  uint64_t submitted = 0;
  for (const net::WireShardStats& shard : shards) {
    EXPECT_EQ(shard.admitted + shard.shed, shard.submitted)
        << "shard " << shard.shard;
    submitted += shard.submitted;
  }
  EXPECT_EQ(submitted, 2u);

  // A dead backend is skipped, not fatal: rows shrink, totals still
  // validate client-side, and the skip is counted.
  backend1.server->Stop();
  Result<net::ProtocolClient> redialed =
      net::ProtocolClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(redialed.ok());
  net::ProtocolClient survivor = std::move(redialed).value();
  shards.clear();
  envs.clear();
  ASSERT_TRUE(survivor.Stats(&shards, &envs).ok());
  EXPECT_EQ(shards.size(), 1u);
  EXPECT_EQ(envs.size(), 2u);

  proxy.Stop();
  EXPECT_EQ(proxy.counters().stats, 2u);
  EXPECT_EQ(proxy.counters().stats_backends_skipped, 1u);
}

TEST(FleetProxyTest, MutationsFanOutToTheWholeReplicaWindow) {
  // Two backends, each with its own live environment over the same base
  // data; replicas=2 means a mutation must land on both so either can
  // serve a consistent read.
  const std::vector<PointRecord> qset = GenerateUniform(300, 751);
  const std::vector<PointRecord> pset = GenerateUniform(400, 752);
  std::vector<std::unique_ptr<LiveEnvironment>> lives;
  std::vector<std::unique_ptr<ShardRouter>> routers;
  std::vector<std::unique_ptr<NetServer>> servers;
  std::vector<BackendAddress> addresses;
  for (int i = 0; i < 2; ++i) {
    Result<std::unique_ptr<LiveEnvironment>> live =
        LiveEnvironment::Create(qset, pset, LiveOptions{});
    ASSERT_TRUE(live.ok());
    lives.push_back(std::move(live).value());
    routers.push_back(std::make_unique<ShardRouter>());
    ASSERT_TRUE(
        routers.back()->RegisterLiveEnvironment("default", lives.back().get())
            .ok());
    servers.push_back(std::make_unique<NetServer>(routers.back().get()));
    ASSERT_TRUE(servers.back()->Start().ok());
    addresses.push_back({"127.0.0.1", servers.back()->port()});
  }

  FleetProxyOptions options;
  options.replicas = 2;
  FleetProxy proxy(addresses, options);
  ASSERT_TRUE(proxy.Start().ok());

  // A batch of two inserts on one proxy connection.
  Result<net::ProtocolClient> dialed =
      net::ProtocolClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(dialed.ok());
  net::ProtocolClient client = std::move(dialed).value();
  for (uint64_t i = 0; i < 2; ++i) {
    net::WireMutation mutation;
    mutation.op = net::WireMutationOp::kInsert;
    mutation.side = LiveSide::kQ;
    mutation.rec.id = static_cast<int64_t>(700000 + i);
    mutation.rec.pt.x = 0.4 + 0.001 * static_cast<double>(i);
    mutation.rec.pt.y = 0.6;
    net::WireMutationAck ack;
    const Status status = client.Mutate(mutation, &ack);
    ASSERT_TRUE(status.ok()) << "op " << i << ": " << status.ToString();
    EXPECT_EQ(ack.epoch, i + 1);
  }
  // A non-mutation on the mutation conversation is rejected, exactly as
  // a single backend would.
  ASSERT_TRUE(client.SendLine("QUERY algo=obj"));
  std::string reply;
  ASSERT_TRUE(client.ReadLine(&reply));
  Status transported = Status::OK();
  ASSERT_TRUE(net::ParseErrLine(reply, &transported).ok()) << reply;
  EXPECT_EQ(transported.code(), StatusCode::kInvalidArgument);
  client.Close();

  // Both replicas converged: each backend's own STATS shows both ops.
  for (int i = 0; i < 2; ++i) {
    Result<net::ProtocolClient> direct =
        net::ProtocolClient::Connect("127.0.0.1", servers[i]->port());
    ASSERT_TRUE(direct.ok());
    net::ProtocolClient backend_client = std::move(direct).value();
    std::vector<net::WireEnvStats> envs;
    ASSERT_TRUE(backend_client.Stats(nullptr, &envs).ok());
    ASSERT_EQ(envs.size(), 1u) << "backend " << i;
    EXPECT_EQ(envs[0].epoch, 2u) << "backend " << i;
    EXPECT_EQ(envs[0].delta, 2u) << "backend " << i;
  }

  // A second batch on a fresh client connection reuses the backend
  // conversations the first batch parked in the pool.
  Result<net::ProtocolClient> again =
      net::ProtocolClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(again.ok());
  net::ProtocolClient second = std::move(again).value();
  net::WireMutation compact;
  compact.op = net::WireMutationOp::kCompact;
  net::WireMutationAck compact_ack;
  ASSERT_TRUE(second.Mutate(compact, &compact_ack).ok());
  EXPECT_EQ(compact_ack.compactions, 1u);
  second.Close();

  proxy.Stop();
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.mutations, 3u);
  EXPECT_EQ(counters.rejected, 1u);
  EXPECT_EQ(proxy.pool().counters().reuses, 2u)
      << "the second batch must ride the parked conversations";
  for (int i = 0; i < 2; ++i) {
    servers[i]->Stop();
    ASSERT_TRUE(routers[i]->ReleaseEnvironment("default").ok());
  }
}

/// A replicated live fleet: every backend owns a LiveEnvironment over the
/// same base data, registered as "default" — the in-process twin of what
/// `rcj_tool fleet --live` spawns.
struct LiveFleet {
  explicit LiveFleet(size_t n) {
    const std::vector<PointRecord> qset = GenerateUniform(300, 771);
    const std::vector<PointRecord> pset = GenerateUniform(400, 772);
    for (size_t i = 0; i < n; ++i) {
      Result<std::unique_ptr<LiveEnvironment>> live =
          LiveEnvironment::Create(qset, pset, LiveOptions{});
      EXPECT_TRUE(live.ok());
      lives.push_back(std::move(live).value());
      routers.push_back(std::make_unique<ShardRouter>());
      EXPECT_TRUE(routers.back()
                      ->RegisterLiveEnvironment("default", lives.back().get())
                      .ok());
      servers.push_back(std::make_unique<NetServer>(routers.back().get()));
      EXPECT_TRUE(servers.back()->Start().ok());
      addresses.push_back({"127.0.0.1", servers.back()->port()});
    }
  }
  ~LiveFleet() {
    for (size_t i = 0; i < servers.size(); ++i) {
      servers[i]->Stop();
      EXPECT_TRUE(routers[i]->ReleaseEnvironment("default").ok());
    }
  }
  /// The backend's own view of the "default" epoch, probed directly.
  uint64_t Epoch(size_t i) {
    Result<net::ProtocolClient> direct =
        net::ProtocolClient::Connect("127.0.0.1", servers[i]->port());
    EXPECT_TRUE(direct.ok());
    net::ProtocolClient client = std::move(direct).value();
    std::vector<net::WireEnvStats> envs;
    EXPECT_TRUE(client.Stats(nullptr, &envs).ok());
    EXPECT_EQ(envs.size(), 1u);
    return envs.empty() ? 0 : envs[0].epoch;
  }
  std::vector<std::unique_ptr<LiveEnvironment>> lives;
  std::vector<std::unique_ptr<ShardRouter>> routers;
  std::vector<std::unique_ptr<NetServer>> servers;
  std::vector<BackendAddress> addresses;
};

/// One INSERT through an open proxy mutation conversation.
Status InsertViaProxy(net::ProtocolClient* client, int64_t id,
                      net::WireMutationAck* ack) {
  net::WireMutation mutation;
  mutation.op = net::WireMutationOp::kInsert;
  mutation.side = LiveSide::kQ;
  mutation.rec.id = id;
  mutation.rec.pt.x = 0.25 + 1e-6 * static_cast<double>(id % 1000);
  mutation.rec.pt.y = 0.5;
  return client->Mutate(mutation, ack);
}

TEST(FleetProxyTest, ExcludedReplicaIsFedTheMissingSuffixAndReadmitted) {
  LiveFleet fleet(2);
  FleetProxyOptions options;
  options.replicas = 2;
  FleetProxy proxy(fleet.addresses, options);
  ASSERT_TRUE(proxy.Start().ok());
  const std::vector<size_t> window = proxy.ReplicaSet("default");
  ASSERT_EQ(window.size(), 2u);
  const size_t survivor = window[0];
  const size_t lagger = window[1];

  Result<net::ProtocolClient> dialed =
      net::ProtocolClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(dialed.ok());
  net::ProtocolClient client = std::move(dialed).value();

  // Two ops while both replicas are in the window: both converge.
  net::WireMutationAck ack;
  for (int64_t id = 710000; id < 710002; ++id) {
    ASSERT_TRUE(InsertViaProxy(&client, id, &ack).ok());
  }
  EXPECT_EQ(fleet.Epoch(survivor), 2u);
  EXPECT_EQ(fleet.Epoch(lagger), 2u);

  // The supervisor notices a death: the replica is excluded, and three
  // more ops land only on the survivor (each skip is counted). The acks
  // keep flowing — one healthy replica is enough to make progress.
  proxy.SetExcluded(lagger, true);
  for (int64_t id = 710002; id < 710005; ++id) {
    ASSERT_TRUE(InsertViaProxy(&client, id, &ack).ok());
    EXPECT_EQ(ack.epoch, static_cast<uint64_t>(id - 710000 + 1));
  }
  EXPECT_EQ(fleet.Epoch(survivor), 5u);
  EXPECT_EQ(fleet.Epoch(lagger), 2u) << "an excluded replica must not see ops";

  // The respawn handshake: CatchUp feeds epochs 3..5 from the ring,
  // re-probes, and only then clears the exclusion.
  const Status caught_up = proxy.CatchUp(lagger);
  ASSERT_TRUE(caught_up.ok()) << caught_up.ToString();
  EXPECT_FALSE(proxy.excluded(lagger));
  EXPECT_EQ(fleet.Epoch(lagger), 5u) << "epochs must match the primary";

  client.Close();
  proxy.Stop();
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.mutations, 5u);
  EXPECT_EQ(counters.excluded_skips, 3u);
  EXPECT_EQ(counters.catchups, 1u);
  EXPECT_EQ(counters.catchup_failures, 0u);
  EXPECT_GE(counters.epoch_probes, 3u)
      << "primary probe, lagger probe, and the closing re-probe";
}

TEST(FleetProxyTest, MidBatchBackendDeathExcludesOnTheSpotAndStillAcks) {
  LiveFleet fleet(2);
  FleetProxyOptions options;
  options.replicas = 2;
  FleetProxy proxy(fleet.addresses, options);
  ASSERT_TRUE(proxy.Start().ok());
  const std::vector<size_t> window = proxy.ReplicaSet("default");
  const size_t victim = window[1];

  Result<net::ProtocolClient> dialed =
      net::ProtocolClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(dialed.ok());
  net::ProtocolClient client = std::move(dialed).value();

  net::WireMutationAck ack;
  ASSERT_TRUE(InsertViaProxy(&client, 720000, &ack).ok());
  EXPECT_EQ(ack.epoch, 1u);

  // The victim dies between two ops of the same batch. The next relay
  // hits a dead conversation, fails the redial, excludes the replica on
  // the spot — and still acknowledges via the survivor instead of
  // failing the op for everyone.
  fleet.servers[victim]->Stop();
  ASSERT_TRUE(InsertViaProxy(&client, 720001, &ack).ok());
  EXPECT_EQ(ack.epoch, 2u);
  EXPECT_TRUE(proxy.excluded(victim));

  // Catch-up cannot succeed while the replica is still down: the failure
  // is surfaced and the exclusion stays, keeping the dead replica out of
  // the read window.
  const Status caught_up = proxy.CatchUp(victim);
  EXPECT_FALSE(caught_up.ok());
  EXPECT_TRUE(proxy.excluded(victim));

  client.Close();
  proxy.Stop();
  const FleetProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.mutations, 2u);
  EXPECT_EQ(counters.relay_exclusions, 1u);
  EXPECT_EQ(counters.catchup_failures, 1u);
}

TEST(FleetProxyTest, CatchUpFailsWhenTheRingNoLongerReachesBack) {
  LiveFleet fleet(2);
  FleetProxyOptions options;
  options.replicas = 2;
  options.mutation_ring_capacity = 2;
  FleetProxy proxy(fleet.addresses, options);
  ASSERT_TRUE(proxy.Start().ok());
  const std::vector<size_t> window = proxy.ReplicaSet("default");
  const size_t lagger = window[1];

  Result<net::ProtocolClient> dialed =
      net::ProtocolClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(dialed.ok());
  net::ProtocolClient client = std::move(dialed).value();

  net::WireMutationAck ack;
  ASSERT_TRUE(InsertViaProxy(&client, 730000, &ack).ok());
  proxy.SetExcluded(lagger, true);
  // Four more ops against a ring of two: epochs 2..3 are evicted, so the
  // lagger's missing suffix (2..5) is no longer contiguous in memory.
  for (int64_t id = 730001; id < 730005; ++id) {
    ASSERT_TRUE(InsertViaProxy(&client, id, &ack).ok());
  }

  const Status caught_up = proxy.CatchUp(lagger);
  ASSERT_FALSE(caught_up.ok());
  EXPECT_EQ(caught_up.code(), StatusCode::kIoError);
  EXPECT_NE(caught_up.ToString().find("full restore"), std::string::npos)
      << caught_up.ToString();
  EXPECT_TRUE(proxy.excluded(lagger))
      << "a replica the ring cannot repair must stay out of the window";
  EXPECT_EQ(fleet.Epoch(lagger), 1u);

  client.Close();
  proxy.Stop();
  EXPECT_EQ(proxy.counters().catchup_failures, 1u);
}

TEST(FleetProxyTest, CatchUpProbesEnvironmentsEvictedFromTheRing) {
  // Two live environments per backend. The ring only remembers the last
  // two mutations, both on "other": the lagger's missing "default" epoch
  // has no ring entry left, yet CatchUp must still probe "default", find
  // the gap, and keep the replica out of the read window.
  const std::vector<PointRecord> qset = GenerateUniform(300, 781);
  const std::vector<PointRecord> pset = GenerateUniform(400, 782);
  std::vector<std::unique_ptr<LiveEnvironment>> lives;
  std::vector<std::unique_ptr<ShardRouter>> routers;
  std::vector<std::unique_ptr<NetServer>> servers;
  std::vector<BackendAddress> addresses;
  for (size_t i = 0; i < 2; ++i) {
    routers.push_back(std::make_unique<ShardRouter>());
    for (const char* name : {"default", "other"}) {
      Result<std::unique_ptr<LiveEnvironment>> live =
          LiveEnvironment::Create(qset, pset, LiveOptions{});
      ASSERT_TRUE(live.ok());
      lives.push_back(std::move(live).value());
      ASSERT_TRUE(
          routers.back()->RegisterLiveEnvironment(name, lives.back().get())
              .ok());
    }
    servers.push_back(std::make_unique<NetServer>(routers.back().get()));
    ASSERT_TRUE(servers.back()->Start().ok());
    addresses.push_back({"127.0.0.1", servers.back()->port()});
  }
  const auto epoch_of = [&](size_t backend, const std::string& env) {
    Result<net::ProtocolClient> direct = net::ProtocolClient::Connect(
        "127.0.0.1", servers[backend]->port());
    EXPECT_TRUE(direct.ok());
    uint64_t epoch = 0;
    EXPECT_TRUE(direct.value().Epoch(env, &epoch).ok());
    return epoch;
  };

  FleetProxyOptions options;
  options.replicas = 2;
  options.mutation_ring_capacity = 2;
  FleetProxy proxy(addresses, options);
  ASSERT_TRUE(proxy.Start().ok());
  const size_t lagger = proxy.ReplicaSet("default")[1];
  const size_t primary = proxy.ReplicaSet("default")[0];
  proxy.SetExcluded(lagger, true);

  Result<net::ProtocolClient> dialed =
      net::ProtocolClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(dialed.ok());
  net::ProtocolClient client = std::move(dialed).value();
  int64_t id = 740000;
  for (const char* env : {"default", "other", "other"}) {
    net::WireMutation mutation;
    mutation.op = net::WireMutationOp::kInsert;
    mutation.env_name = env;
    mutation.side = LiveSide::kQ;
    mutation.rec.id = id++;
    mutation.rec.pt.x = 0.25;
    mutation.rec.pt.y = 0.5;
    net::WireMutationAck ack;
    ASSERT_TRUE(client.Mutate(mutation, &ack).ok()) << env;
  }
  EXPECT_EQ(epoch_of(primary, "default"), 1u);
  EXPECT_EQ(epoch_of(lagger, "default"), 0u);

  const Status caught_up = proxy.CatchUp(lagger);
  ASSERT_FALSE(caught_up.ok());
  EXPECT_EQ(caught_up.code(), StatusCode::kIoError);
  EXPECT_NE(caught_up.ToString().find("full restore"), std::string::npos)
      << caught_up.ToString();
  EXPECT_TRUE(proxy.excluded(lagger))
      << "a replica stale on an evicted environment must stay excluded";
  EXPECT_EQ(epoch_of(lagger, "default"), 0u);

  client.Close();
  proxy.Stop();
  EXPECT_EQ(proxy.counters().catchup_failures, 1u);
  for (size_t i = 0; i < 2; ++i) {
    servers[i]->Stop();
    for (const char* name : {"default", "other"}) {
      EXPECT_TRUE(routers[i]->ReleaseEnvironment(name).ok());
    }
  }
}

}  // namespace
}  // namespace fleet
}  // namespace rcj
