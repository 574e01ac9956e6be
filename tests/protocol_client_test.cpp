// End-to-end tests for net::ProtocolClient against an in-process
// NetServer: the typed conversations (RunQuery / Mutate / Stats / Metrics)
// must deliver exactly what the raw wire carries, server errors must come
// back as their transported Status, and a mutation batch must ride one
// connection — the client half of the batched-wire-mutations contract. A
// fake LineServer tier, and a relay that drops a line of the core's METRICS
// answer, check that a trace block or METRICS exposition whose closing
// count disagrees with the lines received is refused.
#include "net/protocol_client.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rcj.h"
#include "live/live_environment.h"
#include "net/line_reader.h"
#include "net/line_server.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "shard/shard_router.h"
#include "workload/generator.h"

namespace rcj {
namespace net {
namespace {

std::unique_ptr<RcjEnvironment> BuildEnv(size_t n, uint64_t seed) {
  const std::vector<PointRecord> qset = GenerateUniform(n, seed);
  const std::vector<PointRecord> pset = GenerateUniform(n + 100, seed + 1);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

/// A router serving one static environment behind a running NetServer.
struct ServerFixture {
  explicit ServerFixture(const RcjEnvironment* env) {
    EXPECT_TRUE(router.RegisterEnvironment("default", env).ok());
    server = std::make_unique<NetServer>(&router);
    EXPECT_TRUE(server->Start().ok());
  }
  ~ServerFixture() { server->Stop(); }
  ShardRouter router;
  std::unique_ptr<NetServer> server;
};

TEST(ProtocolClientTest, DialFailuresAreIoErrorsWithContext) {
  // A listener that is bound and immediately closed leaves a port with
  // nothing behind it: dialing it must refuse, not hang.
  NetServerOptions options;
  ShardRouter router;
  std::unique_ptr<RcjEnvironment> env = BuildEnv(100, 601);
  ASSERT_TRUE(router.RegisterEnvironment("default", env.get()).ok());
  NetServer server(&router, options);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t dead_port = server.port();
  server.Stop();

  Result<ProtocolClient> refused =
      ProtocolClient::Connect("127.0.0.1", dead_port);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIoError);

  Result<int> bad_host = DialTcp("not-an-address", 1);
  ASSERT_FALSE(bad_host.ok());
  EXPECT_EQ(bad_host.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolClientTest, RunQueryStreamsTheEngineResultVerbatim) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(900, 611);
  const Result<RcjRunResult> expected = env->Run(QuerySpec::For(env.get()));
  ASSERT_TRUE(expected.ok());
  ServerFixture fixture(env.get());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  ProtocolClient client = std::move(dialed).value();
  ASSERT_TRUE(client.connected());

  WireRequest request;
  std::vector<std::string> pair_lines;
  WireSummary summary;
  const Status status = client.RunQuery(
      request,
      [&](const std::string& line) {
        pair_lines.push_back(line);
        return true;
      },
      &summary);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(client.connected()) << "a query consumes the connection";

  // The raw lines the client surfaced are the engine's pairs,
  // re-serialized deterministically.
  ASSERT_EQ(pair_lines.size(), expected.value().pairs.size());
  for (size_t i = 0; i < pair_lines.size(); ++i) {
    EXPECT_EQ(pair_lines[i], FormatPairLine(expected.value().pairs[i]))
        << "pair " << i;
  }
  EXPECT_EQ(summary.pairs, expected.value().pairs.size());
}

TEST(ProtocolClientTest, ServerErrArrivesAsTransportedStatus) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(200, 621);
  ServerFixture fixture(env.get());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(dialed.ok());
  ProtocolClient client = std::move(dialed).value();
  WireRequest request;
  request.env_name = "nosuch";
  const Status status = client.RunQuery(request, nullptr, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
  EXPECT_FALSE(client.connected());
}

TEST(ProtocolClientTest, OnPairReturningFalseCancelsTheQuery) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(1500, 631);
  ServerFixture fixture(env.get());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(dialed.ok());
  ProtocolClient client = std::move(dialed).value();
  size_t delivered = 0;
  const Status status = client.RunQuery(
      WireRequest{}, [&](const std::string&) { return ++delivered < 3; },
      nullptr);
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_EQ(delivered, 3u);
  EXPECT_FALSE(client.connected());
}

TEST(ProtocolClientTest, MutationBatchRidesOneConnection) {
  const std::vector<PointRecord> qset = GenerateUniform(300, 641);
  const std::vector<PointRecord> pset = GenerateUniform(400, 642);
  Result<std::unique_ptr<LiveEnvironment>> live =
      LiveEnvironment::Create(qset, pset, LiveOptions{});
  ASSERT_TRUE(live.ok());
  ShardRouter router;
  ASSERT_TRUE(
      router.RegisterLiveEnvironment("default", live.value().get()).ok());
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(dialed.ok());
  ProtocolClient client = std::move(dialed).value();

  // Three inserts through one client: each Mutate() leaves the
  // connection open, and the acks carry the advancing epoch.
  for (uint64_t i = 0; i < 3; ++i) {
    WireMutation mutation;
    mutation.op = WireMutationOp::kInsert;
    mutation.side = LiveSide::kQ;
    mutation.rec.id = static_cast<int64_t>(500000 + i);
    mutation.rec.pt.x = 0.25 + 0.001 * static_cast<double>(i);
    mutation.rec.pt.y = 0.75;
    WireMutationAck ack;
    const Status status = client.Mutate(mutation, &ack);
    ASSERT_TRUE(status.ok()) << "op " << i << ": " << status.ToString();
    EXPECT_TRUE(client.connected()) << "op " << i;
    EXPECT_EQ(ack.op, WireMutationOp::kInsert) << "op " << i;
    EXPECT_EQ(ack.epoch, i + 1) << "op " << i;
    EXPECT_EQ(ack.delta, i + 1) << "op " << i;
  }

  // A rejected op comes back as its transported status, and the server
  // ends the conversation — the client observes the closed connection.
  WireMutation duplicate;
  duplicate.op = WireMutationOp::kInsert;
  duplicate.side = LiveSide::kQ;
  duplicate.rec.id = 500000;
  duplicate.rec.pt.x = 0.1;
  duplicate.rec.pt.y = 0.1;
  const Status rejected = client.Mutate(duplicate, nullptr);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
      << rejected.ToString();
  EXPECT_FALSE(client.connected());

  server.Stop();
  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.connections, 1u)
      << "the whole batch must ride one connection";
  EXPECT_EQ(counters.mutations, 3u);
  EXPECT_EQ(counters.rejected, 1u);
  ASSERT_TRUE(router.ReleaseEnvironment("default").ok());
}

TEST(ProtocolClientTest, StatsParsesRowsAndValidatesTotals) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(400, 651);
  ShardRouterOptions router_options;
  router_options.num_shards = 2;
  ShardRouter router(router_options);
  ASSERT_TRUE(router.RegisterEnvironment("default", env.get()).ok());
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(dialed.ok());
  ProtocolClient client = std::move(dialed).value();
  std::vector<WireShardStats> shards;
  std::vector<WireEnvStats> envs;
  const Status status = client.Stats(&shards, &envs);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(client.connected()) << "STATS consumes the connection";
  ASSERT_EQ(shards.size(), 2u);
  ASSERT_EQ(envs.size(), 1u);
  EXPECT_EQ(envs[0].name, "default");
  EXPECT_EQ(envs[0].base_q, 400u);
  EXPECT_EQ(envs[0].base_p, 500u);
  server.Stop();
}

TEST(ProtocolClientTest, TracedRunQueryReturnsTheSpanTree) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(600, 661);
  ServerFixture fixture(env.get());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(dialed.ok());
  WireRequest request;
  request.spec.limit = 20;
  request.trace = true;
  request.trace_id = "client.t1";
  WireSummary summary;
  std::vector<WireTraceSpan> spans;
  const Status status =
      dialed.value().RunQuery(request, nullptr, &summary, &spans);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(summary.pairs, 20u);
  ASSERT_FALSE(spans.empty());
  bool saw_server = false;
  for (const WireTraceSpan& span : spans) {
    EXPECT_EQ(span.id, "client.t1") << span.span;
    saw_server = saw_server || (span.span == "server" && span.depth == 0);
  }
  EXPECT_TRUE(saw_server) << "the server span closes every traced query";
  // OK also means the rows matched ENDTRACE's count: a miscount is
  // refused (TraceBlockIsCheckedAgainstEndTrace).
}

TEST(ProtocolClientTest, MetricsScrapesTheServerRegistry) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(100, 671);
  ServerFixture fixture(env.get());

  Result<ProtocolClient> dialed =
      ProtocolClient::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(dialed.ok());
  std::string exposition;
  const Status status = dialed.value().Metrics(&exposition);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(dialed.value().connected())
      << "METRICS consumes the connection";
  EXPECT_NE(exposition.find("\nrcj_server_connections_total "),
            std::string::npos)
      << exposition;
  ASSERT_FALSE(exposition.empty());
  EXPECT_EQ(exposition.back(), '\n');
}

/// A fake server: a LineServer tier that answers every query with the
/// canned `answer` bytes and then closes the connection. METRICS is the
/// core's own answer; LineDroppingRelay miscounts it on the way.
struct CannedTier {
  std::string answer;
  /// Also keeps the exposition non-empty, so there is a line to drop.
  obs::OutcomeCounter scrapes{"rcj_protocol_client_test_metrics_total"};

  LineServer::Tier Make() {
    LineServer::Tier tier;
    tier.adopt = [](int fd) {
      return std::make_shared<LineServer::Connection>(fd,
                                                      SocketSinkOptions{});
    };
    tier.fallback = [this](LineServer::Connection* connection,
                           const std::string&) {
      connection->sink.SendFrames(answer);
    };
    tier.metrics = &scrapes;
    return tier;
  }
};

/// A raw relay for one conversation with a server on `upstream_port`: it
/// forwards the client's request line, reads the server's whole answer
/// and hands it on without its second line, so a METRICS answer arrives
/// with one exposition line fewer than its ENDMETRICS count.
class LineDroppingRelay {
 public:
  explicit LineDroppingRelay(uint16_t upstream_port) {
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
    EXPECT_EQ(listen(listen_fd_, 1), 0);
    socklen_t addr_len = sizeof(addr);
    EXPECT_EQ(getsockname(listen_fd_,
                          reinterpret_cast<struct sockaddr*>(&addr),
                          &addr_len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, upstream_port] { RelayOne(upstream_port); });
  }

  ~LineDroppingRelay() {
    thread_.join();
    close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  void RelayOne(uint16_t upstream_port) {
    // Bounded, so a test that fails before dialing does not hang here.
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (poll(&pfd, 1, 10000) <= 0) return;
    const int client = accept(listen_fd_, nullptr, nullptr);
    if (client < 0) return;
    Result<int> upstream = DialTcp("127.0.0.1", upstream_port);
    LineReader request(client);
    std::string line;
    if (upstream.ok() && request.ReadLine(&line) &&
        SendAll(upstream.value(), line + "\n")) {
      std::string answer;
      char chunk[4096];
      ssize_t got;
      while ((got = recv(upstream.value(), chunk, sizeof(chunk), 0)) > 0) {
        answer.append(chunk, static_cast<size_t>(got));
      }
      const size_t first = answer.find('\n') + 1;  // past "OK"
      answer.erase(first, answer.find('\n', first) + 1 - first);
      EXPECT_TRUE(SendAll(client, answer));
    }
    if (upstream.ok()) close(upstream.value());
    close(client);
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// OK, one PAIR and its END, then `trace` verbatim.
std::string OnePairThen(const std::string& trace) {
  RcjPair pair;
  pair.p.id = 1;
  pair.q.id = 2;
  WireSummary summary;
  summary.pairs = 1;
  return "OK\n" + FormatPairLine(pair) + "\n" + FormatEndLine(summary) +
         "\n" + trace;
}

Status RunTracedAgainst(const std::string& answer,
                        std::vector<WireTraceSpan>* spans) {
  CannedTier canned;
  canned.answer = answer;
  LineServer server(LineServerOptions{}, canned.Make());
  EXPECT_TRUE(server.Start().ok());
  Result<ProtocolClient> client =
      ProtocolClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok());
  if (!client.ok()) return client.status();
  WireRequest request;
  request.trace = true;
  request.trace_id = "fake";
  uint64_t pairs = 0;
  WireSummary summary;
  const Status status = client.value().RunQuery(
      request,
      [&pairs](const std::string&) {
        ++pairs;
        return true;
      },
      &summary, spans);
  EXPECT_EQ(pairs, 1u);
  server.Stop();
  return status;
}

TEST(ProtocolClientTest, TraceBlockIsCheckedAgainstEndTrace) {
  WireTraceSpan row;
  row.id = "fake";
  row.span = "server";
  const std::string trace_row = FormatTraceLine(row) + "\n";

  std::vector<WireTraceSpan> spans;
  EXPECT_TRUE(RunTracedAgainst(OnePairThen(trace_row +
                                           FormatTraceEndLine("fake", 1) +
                                           "\n"),
                               &spans)
                  .ok());
  EXPECT_EQ(spans.size(), 1u);

  // ENDTRACE claims two rows, one arrived.
  const Status miscounted = RunTracedAgainst(
      OnePairThen(trace_row + FormatTraceEndLine("fake", 2) + "\n"),
      nullptr);
  EXPECT_EQ(miscounted.code(), StatusCode::kCorruption)
      << miscounted.ToString();

  // The server closes after the rows without ENDTRACE.
  const Status truncated = RunTracedAgainst(OnePairThen(trace_row), nullptr);
  EXPECT_EQ(truncated.code(), StatusCode::kIoError) << truncated.ToString();
}

TEST(ProtocolClientTest, MetricsCountIsCheckedAgainstEndMetrics) {
  CannedTier canned;
  LineServer server(LineServerOptions{}, canned.Make());
  ASSERT_TRUE(server.Start().ok());
  LineDroppingRelay relay(server.port());
  Result<ProtocolClient> client =
      ProtocolClient::Connect("127.0.0.1", relay.port());
  ASSERT_TRUE(client.ok());
  std::string exposition = "untouched";
  const Status status = client.value().Metrics(&exposition);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_EQ(exposition, "untouched") << "a failed scrape returns nothing";
  server.Stop();
  EXPECT_EQ(canned.scrapes.value(), 1u);
}

}  // namespace
}  // namespace net
}  // namespace rcj
