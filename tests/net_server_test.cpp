// In-process loopback end-to-end tests for rcj::NetServer: the wire must
// carry exactly the engine's serial result stream to every concurrent
// connection — byte-identical whether one shard serves everything or the
// router spreads environments over several — malformed requests must be
// rejected without taking the server down, a client that disappears
// mid-stream must cancel its query instead of stalling the service for
// everyone else, and admission control must shed with `ERR Overloaded`
// while the STATS ledger reconciles.
#include "net/net_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/rcj.h"
#include "live/live_environment.h"
#include "net/protocol.h"
#include "shard/shard_router.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

/// Router + registered environments, the fixture every server test wants.
struct RouterFixture {
  explicit RouterFixture(
      const std::map<std::string, const RcjEnvironment*>& environments,
      ShardRouterOptions options = {})
      : router(std::move(options)) {
    for (const auto& named : environments) {
      EXPECT_TRUE(
          router.RegisterEnvironment(named.first, named.second).ok());
    }
  }
  ShardRouter router;
};

std::unique_ptr<RcjEnvironment> BuildEnv(size_t n, uint64_t seed) {
  const std::vector<PointRecord> qset = GenerateUniform(n, seed);
  const std::vector<PointRecord> pset = GenerateUniform(n + 100, seed + 1);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

void SendAll(int fd, const std::string& data) {
  size_t sent_total = 0;
  while (sent_total < data.size()) {
    const ssize_t sent = send(fd, data.data() + sent_total,
                              data.size() - sent_total, MSG_NOSIGNAL);
    ASSERT_GT(sent, 0) << std::strerror(errno);
    sent_total += static_cast<size_t>(sent);
  }
}

/// Everything one connection received, parsed frame by frame.
struct Response {
  bool saw_ok = false;
  bool saw_end = false;
  std::vector<RcjPair> pairs;
  net::WireSummary summary;
  Status error;       // the ERR frame, when one arrived
  bool saw_err = false;
  bool clean = true;  // no unparseable frames
};

/// Blocking-reads the full response until END/ERR/EOF. `stop_after_pairs`
/// simulates a client that walks away mid-stream: after that many PAIR
/// lines the function returns early (the caller then closes the socket).
Response ReadResponse(int fd, size_t stop_after_pairs = 0) {
  Response response;
  std::string buffer;
  char chunk[4096];
  for (;;) {
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      RcjPair pair;
      if (!response.saw_ok) {
        if (line == "OK") {
          response.saw_ok = true;
        } else if (net::ParseErrLine(line, &response.error).ok()) {
          response.saw_err = true;
          return response;
        } else {
          response.clean = false;
          return response;
        }
      } else if (net::ParsePairLine(line, &pair).ok()) {
        response.pairs.push_back(pair);
        if (stop_after_pairs != 0 &&
            response.pairs.size() >= stop_after_pairs) {
          return response;
        }
      } else if (net::ParseEndLine(line, &response.summary).ok()) {
        response.saw_end = true;
        return response;
      } else if (net::ParseErrLine(line, &response.error).ok()) {
        response.saw_err = true;
        return response;
      } else {
        response.clean = false;
        return response;
      }
    }
    const ssize_t got = recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return response;  // EOF before END
    buffer.append(chunk, static_cast<size_t>(got));
  }
}

Response RunQuery(uint16_t port, const std::string& request_line) {
  const int fd = ConnectLoopback(port);
  SendAll(fd, request_line + "\n");
  Response response = ReadResponse(fd);
  close(fd);
  return response;
}

void ExpectSamePairs(const std::vector<RcjPair>& got,
                     const std::vector<RcjPair>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].p.id, want[i].p.id) << label << " at " << i;
    ASSERT_EQ(got[i].q.id, want[i].q.id) << label << " at " << i;
    // The wire carries raw coordinates; the reconstructed middleman circle
    // must be bit-identical to the engine's.
    ASSERT_EQ(got[i].circle.center, want[i].circle.center)
        << label << " at " << i;
    ASSERT_EQ(got[i].circle.radius2, want[i].circle.radius2)
        << label << " at " << i;
  }
}

TEST(NetServerTest, EightConcurrentConnectionsMatchSingleServicePath) {
  // The routing-correctness contract over the wire: eight concurrent
  // connections against a two-shard server must stream, for every
  // registered environment, exactly the pairs (bit-identical ids and
  // coordinates, so the re-serialized PAIR lines are byte-identical) that
  // the pre-sharding single-Service path delivers.
  std::unique_ptr<RcjEnvironment> env_a = BuildEnv(1200, 401);
  std::unique_ptr<RcjEnvironment> env_b = BuildEnv(900, 411);

  const RcjAlgorithm algorithms[] = {RcjAlgorithm::kObj, RcjAlgorithm::kInj,
                                     RcjAlgorithm::kBij,
                                     RcjAlgorithm::kBrute};
  std::vector<std::string> requests(8);
  std::vector<QuerySpec> specs(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    net::WireRequest request;
    request.env_name = i % 2 == 0 ? "default" : "b";
    request.spec.algorithm = algorithms[i % 4];
    if (i == 5) request.spec.limit = 17;  // one top-k caller in the mix
    requests[i] = net::FormatRequestLine(request);
    specs[i] = request.spec;
    specs[i].env = i % 2 == 0 ? env_a.get() : env_b.get();
  }

  // Ground truth: the same eight specs through one plain Service.
  std::vector<std::vector<RcjPair>> expected(requests.size());
  {
    ServiceOptions service_options;
    service_options.engine.num_threads = 4;
    Service service(service_options);
    std::vector<std::unique_ptr<VectorSink>> sinks;
    std::vector<QueryTicket> tickets;
    for (size_t i = 0; i < specs.size(); ++i) {
      sinks.push_back(std::make_unique<VectorSink>(&expected[i]));
      tickets.push_back(service.Submit(specs[i], sinks.back().get()));
    }
    for (QueryTicket& ticket : tickets) ASSERT_TRUE(ticket.Wait().ok());
  }

  ShardRouterOptions router_options;
  router_options.num_shards = 2;
  router_options.service.engine.num_threads = 2;
  RouterFixture fixture({{"default", env_a.get()}, {"b", env_b.get()}},
                        router_options);
  NetServer server(&fixture.router);
  ASSERT_TRUE(server.Start().ok());

  std::vector<Response> responses(requests.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back([&, i] {
      responses[i] = RunQuery(server.port(), requests[i]);
    });
  }
  for (std::thread& client : clients) client.join();

  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].saw_ok) << "connection " << i;
    ASSERT_TRUE(responses[i].saw_end) << "connection " << i;
    ASSERT_TRUE(responses[i].clean) << "connection " << i;
    ExpectSamePairs(responses[i].pairs, expected[i],
                    ("connection " + std::to_string(i)).c_str());
    // Bit-identical pairs re-serialize to byte-identical PAIR lines (the
    // formatter is deterministic %.17g) — assert it directly.
    for (size_t p = 0; p < responses[i].pairs.size(); ++p) {
      ASSERT_EQ(net::FormatPairLine(responses[i].pairs[p]),
                net::FormatPairLine(expected[i][p]))
          << "connection " << i << " pair " << p;
    }
    EXPECT_EQ(responses[i].summary.pairs, expected[i].size());
  }

  server.Stop();
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.connections, requests.size());
  EXPECT_EQ(counters.ok, requests.size());
  EXPECT_EQ(counters.cancelled, 0u);
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.shed, 0u);
}

TEST(NetServerTest, MalformedRequestsGetErrAndServerSurvives) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(500, 421);
  RouterFixture fixture({{"default", env.get()}});
  NetServer server(&fixture.router);
  ASSERT_TRUE(server.Start().ok());

  const struct {
    const char* request;
    StatusCode want_code;
  } kBadRequests[] = {
      {"HELLO", StatusCode::kInvalidArgument},
      {"QUERY algo=quantum", StatusCode::kInvalidArgument},
      {"QUERY algo=obj algo=obj", StatusCode::kInvalidArgument},
      {"QUERY =1", StatusCode::kInvalidArgument},
      {"QUERY limit=18446744073709551616", StatusCode::kOutOfRange},
      {"QUERY env=nosuch", StatusCode::kNotFound},
  };
  for (const auto& bad : kBadRequests) {
    const Response response = RunQuery(server.port(), bad.request);
    EXPECT_FALSE(response.saw_ok) << bad.request;
    ASSERT_TRUE(response.saw_err) << bad.request;
    EXPECT_EQ(response.error.code(), bad.want_code) << bad.request;
  }

  // The server is unharmed: a valid query still streams a full result.
  const Response good = RunQuery(server.port(), "QUERY algo=obj");
  ASSERT_TRUE(good.saw_ok);
  ASSERT_TRUE(good.saw_end);
  EXPECT_GT(good.pairs.size(), 0u);

  server.Stop();
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.rejected,
            sizeof(kBadRequests) / sizeof(kBadRequests[0]));
  EXPECT_EQ(counters.ok, 1u);
}

TEST(NetServerTest, HalfClosedClientStillReceivesFullStream) {
  // netcat-style clients send FIN right after the request line while they
  // keep reading. EOF on the server's read side must mean "done sending",
  // not "gone": the full stream and the END summary still arrive.
  std::unique_ptr<RcjEnvironment> env = BuildEnv(800, 471);
  RouterFixture fixture({{"default", env.get()}});
  NetServer server(&fixture.router);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectLoopback(server.port());
  SendAll(fd, "QUERY algo=obj\n");
  shutdown(fd, SHUT_WR);
  const Response response = ReadResponse(fd);
  close(fd);

  ASSERT_TRUE(response.saw_ok);
  ASSERT_TRUE(response.saw_end);
  EXPECT_GT(response.pairs.size(), 0u);
  EXPECT_EQ(response.summary.pairs, response.pairs.size());

  server.Stop();
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.ok, 1u);
  EXPECT_EQ(counters.cancelled, 0u);
}

TEST(NetServerTest, MidStreamDisconnectCancelsWithoutStallingOthers) {
  // Big enough that the full join streams for a while.
  std::unique_ptr<RcjEnvironment> env = BuildEnv(4000, 431);

  ShardRouterOptions router_options;
  router_options.service.engine.num_threads = 4;
  RouterFixture fixture({{"default", env.get()}}, router_options);
  NetServerOptions server_options;
  // Tiny socket + pending budgets so an unread stream backs up after a
  // handful of pairs instead of after megabytes.
  server_options.send_buffer_bytes = 4096;
  server_options.sink.max_pending_bytes = 16 * 1024;
  server_options.sink.drain_grace_ms = 300;
  NetServer server(&fixture.router, server_options);
  ASSERT_TRUE(server.Start().ok());

  // A well-behaved reader runs concurrently and must come out whole.
  Response survivor;
  std::thread survivor_thread([&] {
    survivor = RunQuery(server.port(), "QUERY algo=obj");
  });

  // The deserter reads three pairs, then slams the connection shut.
  const int fd = ConnectLoopback(server.port());
  SendAll(fd, "QUERY algo=obj\n");
  const Response partial = ReadResponse(fd, 3);
  ASSERT_TRUE(partial.saw_ok);
  ASSERT_EQ(partial.pairs.size(), 3u);
  ASSERT_FALSE(partial.saw_end);
  close(fd);

  survivor_thread.join();
  ASSERT_TRUE(survivor.saw_ok);
  ASSERT_TRUE(survivor.saw_end);
  EXPECT_GT(survivor.pairs.size(), 0u);

  // The deserted query must resolve as a cancellation (not hang, not count
  // as success). Stop() below would deadlock the test if the connection
  // thread were stalled on the dead socket.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.counters().cancelled == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.Stop();
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.cancelled, 1u);
  EXPECT_EQ(counters.ok, 1u);
  EXPECT_EQ(counters.failed, 0u);
}

TEST(NetServerTest, SlowConsumerIsCancelledByBackpressure) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(4000, 441);
  RouterFixture fixture({{"default", env.get()}});
  NetServerOptions server_options;
  server_options.send_buffer_bytes = 4096;
  server_options.sink.max_pending_bytes = 8 * 1024;
  server_options.sink.drain_grace_ms = 100;
  NetServer server(&fixture.router, server_options);
  ASSERT_TRUE(server.Start().ok());

  // Connect, ask for the full join, then never read: the bounded queue
  // must overflow and cancel the query rather than buffer it all.
  const int fd = ConnectLoopback(server.port());
  SendAll(fd, "QUERY algo=obj\n");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.counters().cancelled == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.counters().cancelled, 1u);
  close(fd);
  server.Stop();
}

TEST(NetServerTest, LimitQueryStreamsExactPrefixOverTheWire) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(1500, 451);
  const Result<RcjRunResult> full = env->Run(QuerySpec::For(env.get()));
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().pairs.size(), 9u);

  RouterFixture fixture({{"default", env.get()}});
  NetServer server(&fixture.router);
  ASSERT_TRUE(server.Start().ok());

  const Response response = RunQuery(server.port(), "QUERY limit=9");
  ASSERT_TRUE(response.saw_end);
  ExpectSamePairs(response.pairs,
                  {full.value().pairs.begin(), full.value().pairs.begin() + 9},
                  "top-9 prefix");
  EXPECT_EQ(response.summary.pairs, 9u);
  EXPECT_LT(response.summary.stats.candidates,
            full.value().stats.candidates)
      << "the wire limit must cancel remaining work server-side";
  server.Stop();
}

/// Stops a server whose one connection has sent `partial` (no newline)
/// and returns how long Stop() took. The request timeout is 60 s, so only
/// the shutdown of the waiting reader's socket can end the wait early.
std::chrono::milliseconds StopWithPendingRequest(const std::string& partial) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(400, 461);
  RouterFixture fixture({{"default", env.get()}});
  NetServerOptions server_options;
  server_options.request_timeout_ms = 60 * 1000;  // Stop must not wait this
  NetServer server(&fixture.router, server_options);
  EXPECT_TRUE(server.Start().ok());

  const int fd = ConnectLoopback(server.port());
  if (!partial.empty()) SendAll(fd, partial);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  server.Stop();  // must unblock the reader and return promptly
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  close(fd);
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.connections, 1u);
  EXPECT_EQ(counters.ok, 0u);
  return took;
}

TEST(NetServerTest, StopWithIdleConnectionDoesNotHang) {
  // A connection that never sends its request line.
  EXPECT_LT(StopWithPendingRequest("").count(), 1000);
}

TEST(NetServerTest, StopWithHalfARequestLineDoesNotHang) {
  EXPECT_LT(StopWithPendingRequest("QUERY env=def").count(), 1000);
}

/// The rcj_server_active_connections gauge as one METRICS scrape reports
/// it. The scrape reads on to EOF, so its own connection has left the
/// gauge before this returns.
int64_t ScrapeActiveConnections(uint16_t port) {
  const int fd = ConnectLoopback(port);
  SendAll(fd, "METRICS\n");
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t got = recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    response.append(chunk, static_cast<size_t>(got));
  }
  close(fd);
  const std::string key = "\nrcj_server_active_connections ";
  const size_t at = response.find(key);
  EXPECT_NE(at, std::string::npos) << response;
  if (at == std::string::npos) return -1;
  return std::strtoll(response.c_str() + at + key.size(), nullptr, 10);
}

TEST(NetServerTest, ActiveConnectionsGaugeMovesWithEachConnection) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(100, 471);
  RouterFixture fixture({{"default", env.get()}});
  NetServer server(&fixture.router);
  ASSERT_TRUE(server.Start().ok());

  const int64_t before = ScrapeActiveConnections(server.port());
  // The extra connection is accepted before the scrape that follows it
  // (the listener's backlog is FIFO), so the gauge already counts it.
  const int extra = ConnectLoopback(server.port());
  EXPECT_EQ(ScrapeActiveConnections(server.port()), before + 1);
  close(extra);
  server.Stop();
}

/// One STATS probe, fully parsed: the per-shard rows, the per-environment
/// rows, and the ENDSTATS terminator.
struct StatsResponse {
  bool ok = false;
  std::vector<net::WireShardStats> shards;
  std::vector<net::WireEnvStats> envs;

  /// The ENV row for `name`, or nullptr when the server reported none.
  const net::WireEnvStats* Env(const std::string& name) const {
    for (const net::WireEnvStats& env : envs) {
      if (env.name == name) return &env;
    }
    return nullptr;
  }
};

StatsResponse RunStatsProbe(uint16_t port) {
  StatsResponse result;
  const int fd = ConnectLoopback(port);
  SendAll(fd, "STATS\n");
  std::string buffer;
  char chunk[4096];
  bool saw_ok = false;
  for (;;) {
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      net::WireShardStats shard;
      net::WireEnvStats env;
      uint64_t shard_count = 0;
      uint64_t env_count = 0;
      if (!saw_ok) {
        if (line != "OK") {
          close(fd);
          return result;
        }
        saw_ok = true;
      } else if (net::ParseShardStatsLine(line, &shard).ok()) {
        result.shards.push_back(shard);
      } else if (net::ParseEnvStatsLine(line, &env).ok()) {
        result.envs.push_back(env);
      } else if (net::ParseStatsEndLine(line, &shard_count, &env_count)
                     .ok()) {
        result.ok = shard_count == result.shards.size() &&
                    env_count == result.envs.size();
        close(fd);
        return result;
      } else {
        close(fd);
        return result;
      }
    }
    const ssize_t got = recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF before ENDSTATS
    buffer.append(chunk, static_cast<size_t>(got));
  }
  close(fd);
  return result;
}

/// One mutation request over its own connection: OK + MUT on success, the
/// ERR status otherwise.
struct MutationResponse {
  bool ok = false;
  net::WireMutationAck ack;
  Status error = Status::OK();
};

MutationResponse RunMutation(uint16_t port, const std::string& line) {
  MutationResponse result;
  const int fd = ConnectLoopback(port);
  SendAll(fd, line + "\n");
  std::string buffer;
  char chunk[4096];
  bool saw_ok = false;
  for (;;) {
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string frame = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!saw_ok) {
        if (frame == "OK") {
          saw_ok = true;
          continue;
        }
        result.error = Status::IoError("malformed response '" + frame + "'");
        net::ParseErrLine(frame, &result.error);
        close(fd);
        return result;
      }
      result.ok = net::ParseMutationAckLine(frame, &result.ack).ok();
      close(fd);
      return result;
    }
    const ssize_t got = recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF before MUT
    buffer.append(chunk, static_cast<size_t>(got));
  }
  close(fd);
  return result;
}

TEST(NetServerTest, StatsProbeReportsPerShardLedger) {
  std::unique_ptr<RcjEnvironment> env_a = BuildEnv(600, 481);
  std::unique_ptr<RcjEnvironment> env_b = BuildEnv(500, 483);

  ShardRouterOptions router_options;
  router_options.num_shards = 2;
  RouterFixture fixture({{"default", env_a.get()}}, router_options);
  // "default" hashes onto shard 0; the second environment takes shard 1.
  const std::string b = testing_util::NameOnShard(fixture.router, 1);
  ASSERT_TRUE(fixture.router.RegisterEnvironment(b, env_b.get()).ok());
  NetServer server(&fixture.router);
  ASSERT_TRUE(server.Start().ok());

  // A cold server reports two idle shards and one static ENV row each.
  StatsResponse cold = RunStatsProbe(server.port());
  ASSERT_TRUE(cold.ok);
  ASSERT_EQ(cold.shards.size(), 2u);
  for (const net::WireShardStats& shard : cold.shards) {
    EXPECT_EQ(shard.environments, 1u);
    EXPECT_EQ(shard.submitted, 0u);
    EXPECT_EQ(shard.inflight, 0u);
  }
  ASSERT_EQ(cold.envs.size(), 2u);
  const net::WireEnvStats* default_env = cold.Env("default");
  ASSERT_NE(default_env, nullptr);
  EXPECT_EQ(default_env->shard, 0u);
  EXPECT_FALSE(default_env->live);
  EXPECT_EQ(default_env->delta, 0u);
  EXPECT_EQ(default_env->base_q, 600u);
  EXPECT_EQ(default_env->base_p, 700u);
  const net::WireEnvStats* b_env = cold.Env(b);
  ASSERT_NE(b_env, nullptr);
  EXPECT_EQ(b_env->shard, 1u);
  EXPECT_FALSE(b_env->live);

  // One query per environment, then the ledger must show exactly one
  // completed query on each shard.
  ASSERT_TRUE(RunQuery(server.port(), "QUERY algo=obj").saw_end);
  ASSERT_TRUE(RunQuery(server.port(), "QUERY env=" + b + " algo=obj").saw_end);
  StatsResponse warm = RunStatsProbe(server.port());
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.shards.size(), 2u);
  for (const net::WireShardStats& shard : warm.shards) {
    EXPECT_EQ(shard.submitted, 1u) << "shard " << shard.shard;
    EXPECT_EQ(shard.admitted, 1u) << "shard " << shard.shard;
    EXPECT_EQ(shard.completed, 1u) << "shard " << shard.shard;
    EXPECT_EQ(shard.shed, 0u) << "shard " << shard.shard;
    EXPECT_EQ(shard.inflight, 0u) << "shard " << shard.shard;
  }

  // A STATS probe with trailing junk is a malformed request.
  const Response bad = RunQuery(server.port(), "STATS now");
  EXPECT_TRUE(bad.saw_err);

  server.Stop();
  EXPECT_EQ(server.counters().stats, 2u);
}

TEST(NetServerTest, FloodAgainstTightAdmissionShedsWithErrOverloaded) {
  // The admission acceptance shape over the wire: with --max-queue 1
  // --max-inflight 1 semantics, a concurrent flood must come back as a
  // mix of END and ERR Overloaded — no crashes, no hangs — and the STATS
  // ledger must reconcile: admitted + shed == submitted.
  std::unique_ptr<RcjEnvironment> env = BuildEnv(2000, 491);

  ShardRouterOptions router_options;
  router_options.num_shards = 2;
  router_options.admission.max_queue_per_shard = 1;
  router_options.admission.max_inflight_total = 1;
  RouterFixture fixture({{"default", env.get()}}, router_options);
  NetServer server(&fixture.router);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 12;
  std::vector<Response> responses(kClients);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = RunQuery(server.port(), "QUERY algo=obj");
    });
  }
  for (std::thread& client : clients) client.join();

  size_t ended = 0;
  size_t overloaded = 0;
  for (size_t i = 0; i < kClients; ++i) {
    if (responses[i].saw_end) {
      ++ended;
      EXPECT_GT(responses[i].pairs.size(), 0u) << "connection " << i;
    } else {
      ASSERT_TRUE(responses[i].saw_err) << "connection " << i;
      EXPECT_EQ(responses[i].error.code(), StatusCode::kOverloaded)
          << "connection " << i;
      EXPECT_FALSE(responses[i].saw_ok)
          << "a shed request must never be acknowledged with OK";
      ++overloaded;
    }
  }
  EXPECT_EQ(ended + overloaded, kClients);
  EXPECT_GT(ended, 0u) << "the flood must not shed everything";
  EXPECT_GT(overloaded, 0u) << "an in-flight cap of 1 must shed something";

  const StatsResponse stats = RunStatsProbe(server.port());
  ASSERT_TRUE(stats.ok);
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  for (const net::WireShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.admitted + shard.shed, shard.submitted)
        << "shard " << shard.shard;
    submitted += shard.submitted;
    admitted += shard.admitted;
    shed += shard.shed;
  }
  EXPECT_EQ(submitted, kClients);
  EXPECT_EQ(admitted, ended);
  EXPECT_EQ(shed, overloaded);

  server.Stop();
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.ok, ended);
  EXPECT_EQ(counters.shed, overloaded);
  EXPECT_EQ(counters.failed, 0u);
}

TEST(NetServerTest, LiveMutationsApplyOverTheWire) {
  const std::vector<PointRecord> qset = GenerateUniform(400, 901);
  const std::vector<PointRecord> pset = GenerateUniform(500, 902);
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());

  ShardRouter router;
  ASSERT_TRUE(
      router.RegisterLiveEnvironment("default", live.value().get()).ok());
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  // One insert per side; the MUT acks carry the advancing epoch and the
  // growing delta.
  const MutationResponse first =
      RunMutation(server.port(), "INSERT side=q id=100000 x=0.5 y=0.5");
  ASSERT_TRUE(first.ok) << first.error.ToString();
  EXPECT_EQ(first.ack.op, net::WireMutationOp::kInsert);
  EXPECT_EQ(first.ack.epoch, 1u);
  EXPECT_EQ(first.ack.delta, 1u);
  const MutationResponse second = RunMutation(
      server.port(), "INSERT side=p id=100001 x=0.5001 y=0.5001");
  ASSERT_TRUE(second.ok) << second.error.ToString();
  EXPECT_EQ(second.ack.epoch, 2u);
  EXPECT_EQ(second.ack.delta, 2u);

  // Deleting a base point tombstones it.
  const MutationResponse third = RunMutation(
      server.port(), "DELETE side=p id=" + std::to_string(pset[0].id));
  ASSERT_TRUE(third.ok) << third.error.ToString();
  EXPECT_EQ(third.ack.tombstones, 1u);

  // Rejections are a single ERR frame with the router's status code, and
  // they do not advance the epoch.
  const MutationResponse unknown_id =
      RunMutation(server.port(), "DELETE side=p id=999999999");
  EXPECT_FALSE(unknown_id.ok);
  EXPECT_EQ(unknown_id.error.code(), StatusCode::kNotFound);
  const MutationResponse duplicate =
      RunMutation(server.port(), "INSERT side=q id=100000 x=1 y=1");
  EXPECT_FALSE(duplicate.ok);
  EXPECT_EQ(duplicate.error.code(), StatusCode::kInvalidArgument);
  const MutationResponse unknown_env = RunMutation(
      server.port(), "INSERT env=nosuch side=q id=7 x=0 y=0");
  EXPECT_FALSE(unknown_env.ok);
  EXPECT_EQ(unknown_env.error.code(), StatusCode::kNotFound);

  // The wire's merged stream must be exactly the in-process snapshot
  // stream — the engine path and the serial path deliver one order. The
  // snapshot is scoped: holding its base pin across the COMPACT below
  // would deadlock the compaction's pin-drain wait on ourselves.
  std::vector<RcjPair> expected;
  {
    const LiveSnapshot snapshot = live.value()->TakeSnapshot();
    const Result<RcjRunResult> run = snapshot.Run(snapshot.Spec());
    ASSERT_TRUE(run.ok());
    expected = run.value().pairs;
  }
  const Response merged = RunQuery(server.port(), "QUERY algo=obj");
  ASSERT_TRUE(merged.saw_end);
  ExpectSamePairs(merged.pairs, expected, "merged stream");

  // STATS carries the live row's counters.
  const StatsResponse stats = RunStatsProbe(server.port());
  ASSERT_TRUE(stats.ok);
  const net::WireEnvStats* row = stats.Env("default");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->live);
  EXPECT_EQ(row->epoch, 3u);
  EXPECT_EQ(row->delta, 2u);
  EXPECT_EQ(row->tombstones, 1u);
  EXPECT_EQ(row->compactions, 0u);

  // COMPACT folds the delta into a fresh base; the same membership keeps
  // answering queries afterwards.
  const MutationResponse compacted = RunMutation(server.port(), "COMPACT");
  ASSERT_TRUE(compacted.ok) << compacted.error.ToString();
  EXPECT_EQ(compacted.ack.op, net::WireMutationOp::kCompact);
  EXPECT_EQ(compacted.ack.delta, 0u);
  EXPECT_EQ(compacted.ack.tombstones, 0u);
  EXPECT_EQ(compacted.ack.compactions, 1u);
  const Response after = RunQuery(server.port(), "QUERY algo=obj");
  ASSERT_TRUE(after.saw_end);
  EXPECT_EQ(after.summary.pairs, expected.size());

  server.Stop();
  EXPECT_EQ(server.counters().mutations, 4u);
  EXPECT_EQ(server.counters().rejected, 3u);
  ASSERT_TRUE(router.ReleaseEnvironment("default").ok());
}

/// Reads `count` OK+MUT acknowledgement pairs from `fd`, or stops at the
/// first ERR/EOF. Returns the parsed acks.
std::vector<net::WireMutationAck> ReadMutationAcks(int fd, size_t count) {
  std::vector<net::WireMutationAck> acks;
  std::string buffer;
  char chunk[4096];
  bool saw_ok = false;
  while (acks.size() < count) {
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos &&
           acks.size() < count) {
      const std::string frame = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!saw_ok) {
        if (frame != "OK") return acks;  // ERR or junk: stop here
        saw_ok = true;
        continue;
      }
      net::WireMutationAck ack;
      if (!net::ParseMutationAckLine(frame, &ack).ok()) return acks;
      acks.push_back(ack);
      saw_ok = false;
    }
    if (acks.size() == count) break;
    const ssize_t got = recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    buffer.append(chunk, static_cast<size_t>(got));
  }
  return acks;
}

TEST(NetServerTest, BatchedMutationsShareOneConnection) {
  // The batched-wire-mutations contract: a client may keep sending
  // mutation lines on the connection after each OK + MUT, and the whole
  // batch counts as one connection. The batch here is pipelined — all
  // four lines in one write — so the bytes the server's LineReader keeps
  // past the first newline are what feed ops 2..4.
  const std::vector<PointRecord> qset = GenerateUniform(300, 911);
  const std::vector<PointRecord> pset = GenerateUniform(400, 912);
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());
  ShardRouter router;
  ASSERT_TRUE(
      router.RegisterLiveEnvironment("default", live.value().get()).ok());
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectLoopback(server.port());
  SendAll(fd,
          "INSERT side=q id=800000 x=0.2 y=0.2\n"
          "INSERT side=p id=800001 x=0.2001 y=0.2001\n"
          "DELETE side=p id=800001\n"
          "COMPACT\n");
  const std::vector<net::WireMutationAck> acks = ReadMutationAcks(fd, 4);
  ASSERT_EQ(acks.size(), 4u);
  EXPECT_EQ(acks[0].op, net::WireMutationOp::kInsert);
  EXPECT_EQ(acks[0].epoch, 1u);
  EXPECT_EQ(acks[1].epoch, 2u);
  EXPECT_EQ(acks[2].op, net::WireMutationOp::kDelete);
  EXPECT_EQ(acks[2].epoch, 3u);
  EXPECT_EQ(acks[3].op, net::WireMutationOp::kCompact);
  EXPECT_EQ(acks[3].compactions, 1u);

  // A clean shutdown of the sending side ends the batch without an ERR:
  // the server must read EOF, not a timeout, and close quietly.
  shutdown(fd, SHUT_WR);
  char trailing;
  EXPECT_EQ(recv(fd, &trailing, 1, 0), 0) << "no frame may follow the acks";
  close(fd);

  server.Stop();
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.connections, 1u)
      << "the whole batch must ride one connection";
  EXPECT_EQ(counters.mutations, 4u);
  EXPECT_EQ(counters.rejected, 0u);
  ASSERT_TRUE(router.ReleaseEnvironment("default").ok());
}

TEST(NetServerTest, NonMutationAfterMutationIsRejected) {
  // The conversation upgrade is one-way: once a connection carried a
  // mutation, a QUERY/STATS on it is a protocol error — the server must
  // answer ERR and close, and the earlier ops must have applied.
  const std::vector<PointRecord> qset = GenerateUniform(200, 921);
  const std::vector<PointRecord> pset = GenerateUniform(300, 922);
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());
  ShardRouter router;
  ASSERT_TRUE(
      router.RegisterLiveEnvironment("default", live.value().get()).ok());
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectLoopback(server.port());
  SendAll(fd, "INSERT side=q id=810000 x=0.3 y=0.3\n");
  ASSERT_EQ(ReadMutationAcks(fd, 1).size(), 1u);
  SendAll(fd, "QUERY algo=obj\n");
  const Response response = ReadResponse(fd);
  close(fd);
  ASSERT_TRUE(response.saw_err);
  EXPECT_EQ(response.error.code(), StatusCode::kInvalidArgument);

  // The rejection ended only that conversation; the insert stuck and the
  // server keeps serving.
  const StatsResponse stats = RunStatsProbe(server.port());
  ASSERT_TRUE(stats.ok);
  const net::WireEnvStats* row = stats.Env("default");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->delta, 1u);

  server.Stop();
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.mutations, 1u);
  EXPECT_EQ(counters.rejected, 1u);
  ASSERT_TRUE(router.ReleaseEnvironment("default").ok());
}

/// Sends one request line and collects every response line until the
/// server closes the conversation.
std::vector<std::string> OneShot(uint16_t port, const std::string& line) {
  const int fd = ConnectLoopback(port);
  SendAll(fd, line + "\n");
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t got = recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    buffer.append(chunk, static_cast<size_t>(got));
  }
  close(fd);
  std::vector<std::string> lines;
  size_t start = 0, newline;
  while ((newline = buffer.find('\n', start)) != std::string::npos) {
    lines.push_back(buffer.substr(start, newline - start));
    start = newline + 1;
  }
  return lines;
}

TEST(NetServerTest, EpochProbeReportsTheLiveEpoch) {
  Result<std::unique_ptr<LiveEnvironment>> live = LiveEnvironment::Create(
      GenerateUniform(200, 951), GenerateUniform(200, 952), LiveOptions{});
  ASSERT_TRUE(live.ok());
  ShardRouter router;
  ASSERT_TRUE(
      router.RegisterLiveEnvironment("default", live.value().get()).ok());
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::string> reply = OneShot(server.port(), "EPOCH");
  ASSERT_EQ(reply.size(), 2u);
  EXPECT_EQ(reply[0], "OK");
  std::string env;
  uint64_t epoch = 99;
  ASSERT_TRUE(net::ParseEpochResponseLine(reply[1], &env, &epoch).ok())
      << reply[1];
  EXPECT_EQ(env, "default");
  EXPECT_EQ(epoch, 0u);

  // A mutation advances what the probe reports — the signal the fleet
  // catch-up handshake compares across replicas.
  ASSERT_TRUE(
      RunMutation(server.port(), "INSERT side=q id=880000 x=0.1 y=0.2").ok);
  reply = OneShot(server.port(), "EPOCH env=default");
  ASSERT_EQ(reply.size(), 2u);
  ASSERT_TRUE(net::ParseEpochResponseLine(reply[1], &env, &epoch).ok());
  EXPECT_EQ(epoch, 1u);

  // Unknown environments are NotFound, not epoch 0 — a respawned replica
  // that has not registered yet must not look caught up.
  reply = OneShot(server.port(), "EPOCH env=nosuch");
  ASSERT_EQ(reply.size(), 1u);
  Status error;
  ASSERT_TRUE(net::ParseErrLine(reply[0], &error).ok()) << reply[0];
  EXPECT_EQ(error.code(), StatusCode::kNotFound);

  server.Stop();
  EXPECT_EQ(server.counters().epochs, 2u);
  ASSERT_TRUE(router.ReleaseEnvironment("default").ok());
}

TEST(NetServerTest, FailpointWireCommandFollowsTheBuildFlag) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(150, 961);
  RouterFixture fixture({{"default", env.get()}});
  NetServer server(&fixture.router);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> reply =
      OneShot(server.port(), "FAILPOINT test_wire_site err");
  ASSERT_EQ(reply.size(), 1u);
  if (failpoint::kCompiledIn) {
    EXPECT_EQ(reply[0], "OK");
    const std::vector<std::string> armed = failpoint::ArmedSites();
    EXPECT_NE(std::find(armed.begin(), armed.end(), "test_wire_site"),
              armed.end());
    // Disarm over the wire too.
    EXPECT_EQ(OneShot(server.port(), "FAILPOINT test_wire_site off")[0],
              "OK");
    EXPECT_TRUE(failpoint::ArmedSites().empty());
    // A spec that fails the grammar is an ERR, not a silent no-op.
    Status error;
    ASSERT_TRUE(net::ParseErrLine(
                    OneShot(server.port(), "FAILPOINT site bogus")[0], &error)
                    .ok());
    EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  } else {
    Status error;
    ASSERT_TRUE(net::ParseErrLine(reply[0], &error).ok()) << reply[0];
    EXPECT_EQ(error.code(), StatusCode::kNotSupported);
  }
  server.Stop();
  failpoint::Reset();
}

TEST(NetServerTest, IdleConnectionsAreReapedQuietly) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(200, 971);
  RouterFixture fixture({{"default", env.get()}});
  NetServerOptions options;
  options.idle_timeout_ms = 150;
  NetServer server(&fixture.router, options);
  ASSERT_TRUE(server.Start().ok());

  // A connection that never sends a request line: the reaper closes it
  // quietly — EOF, no ERR bytes — instead of holding the slot forever.
  const int idle_fd = ConnectLoopback(server.port());
  char chunk[64];
  const ssize_t got = recv(idle_fd, chunk, sizeof(chunk), 0);
  EXPECT_EQ(got, 0) << "idle close must be quiet, got bytes or an error";
  close(idle_fd);

  // The reaped connection did not poison the server: a real query on a
  // fresh connection still streams in full.
  const Response response = RunQuery(server.port(), "QUERY algo=obj");
  EXPECT_TRUE(response.saw_end);
  EXPECT_GT(response.pairs.size(), 0u);

  server.Stop();
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.idle_closed, 1u);
  EXPECT_EQ(counters.rejected, 0u)
      << "an idle reap is not a malformed-request rejection";
}

}  // namespace
}  // namespace rcj
