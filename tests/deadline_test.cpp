// End-to-end deadline enforcement at its three layers: admission sheds
// already-expired work with kDeadlineExceeded before taking a slot (and
// the ledger stays exact), the engine's stop check aborts an in-flight
// query mid-traversal, and a fleet proxy's retry loop spends its
// backoffs from the same budget and relays ERR DeadlineExceeded once it
// is gone.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rcj.h"
#include "engine/engine.h"
#include "fleet/fleet_proxy.h"
#include "net/net_server.h"
#include "net/protocol_client.h"
#include "shard/shard_router.h"
#include "workload/generator.h"

namespace rcj {
namespace {

using std::chrono::steady_clock;

std::unique_ptr<RcjEnvironment> BuildEnv(size_t n, uint64_t seed) {
  const std::vector<PointRecord> qset = GenerateUniform(n, seed);
  const std::vector<PointRecord> pset = GenerateUniform(n + 50, seed + 1);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

TEST(DeadlineTest, AdmissionShedExpiredKeepsTheLedgerExact) {
  AdmissionLimits limits;
  limits.max_queue_per_shard = 1;
  AdmissionController admission(1, limits);

  const Status shed = admission.ShedExpired(0);
  EXPECT_EQ(shed.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(admission.total_inflight(), 0u) << "no slot may be taken";

  // The queue bound is untouched by expired submissions: a real query
  // still fits.
  EXPECT_TRUE(admission.TryAdmit(0).ok());
  admission.Release(0, Status::OK());

  const AdmissionController::ShardCounters counters =
      admission.shard_counters(0);
  EXPECT_EQ(counters.submitted, 2u);
  EXPECT_EQ(counters.admitted, 1u);
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.admitted + counters.shed, counters.submitted);
}

TEST(DeadlineTest, RouterShedsExpiredSubmissionBeforeAdmission) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(300, 601);
  ShardRouter router(ShardRouterOptions{});
  ASSERT_TRUE(router.RegisterEnvironment("default", env.get()).ok());

  QuerySpec spec;
  spec.deadline = steady_clock::now() - std::chrono::seconds(1);
  CountingSink sink;
  QueryTicket ticket;
  const Status status = router.Submit("default", spec, &sink, &ticket);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_FALSE(ticket.valid());
  EXPECT_EQ(sink.count(), 0u);

  // A deadline-free query on the same router still runs, and the ledger
  // reconciles across both outcomes.
  QueryTicket live;
  ASSERT_TRUE(router.Submit("default", QuerySpec{}, &sink, &live).ok());
  ASSERT_TRUE(live.Wait().ok());
  EXPECT_GT(sink.count(), 0u);

  uint64_t submitted = 0, admitted = 0, shed = 0;
  for (const ShardStatus& shard : router.Stats()) {
    submitted += shard.counters.submitted;
    admitted += shard.counters.admitted;
    shed += shard.counters.shed;
  }
  EXPECT_EQ(submitted, 2u);
  EXPECT_EQ(admitted, 1u);
  EXPECT_EQ(shed, 1u);
  EXPECT_EQ(admitted + shed, submitted);
}

TEST(DeadlineTest, EngineAbortsExpiredQueryAtTheFirstChunkBoundary) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(1500, 611);
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);

  QuerySpec expired = QuerySpec::For(env.get());
  expired.deadline = steady_clock::now() - std::chrono::milliseconds(5);
  const Result<RcjRunResult> aborted = engine.Run(expired);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded)
      << aborted.status().ToString();

  // The same spec without the deadline runs in full on the same engine.
  const Result<RcjRunResult> full = engine.Run(QuerySpec::For(env.get()));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_GT(full.value().pairs.size(), 0u);
}

TEST(DeadlineTest, EngineAbortsMidStreamWhenTheDeadlineExpires) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(2500, 621);
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);

  // A sink slow enough that the budget expires long before the stream
  // ends; the engine must resolve the query as DeadlineExceeded mid-stream
  // rather than finish it.
  uint64_t delivered = 0;
  CallbackSink slow_sink([&](const RcjPair&) {
    ++delivered;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return true;
  });
  QuerySpec spec = QuerySpec::For(env.get());
  spec.deadline = steady_clock::now() + std::chrono::milliseconds(30);
  JoinStats stats;
  const Status status = engine.Run(spec, &slow_sink, &stats);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();

  const Result<RcjRunResult> full = engine.Run(QuerySpec::For(env.get()));
  ASSERT_TRUE(full.ok());
  EXPECT_LT(delivered, full.value().pairs.size())
      << "the aborted stream must be a strict prefix of the full join";
}

TEST(DeadlineTest, ServerRelaysDeadlineExceededOnTheWire) {
  std::unique_ptr<RcjEnvironment> env = BuildEnv(4000, 631);
  ShardRouter router(ShardRouterOptions{});
  ASSERT_TRUE(router.RegisterEnvironment("default", env.get()).ok());
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ProtocolClient> dialed =
      net::ProtocolClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  net::ProtocolClient client = std::move(dialed).value();
  // 1ms against a 4000x4050 join: expires at admission or early in the
  // join; either way the client must see ERR DeadlineExceeded.
  ASSERT_TRUE(client.SendLine("QUERY algo=obj deadline_ms=1"));
  std::string line;
  bool saw_err = false;
  while (client.ReadLine(&line)) {
    if (line.rfind("ERR ", 0) == 0) {
      saw_err = true;
      EXPECT_NE(line.find("DeadlineExceeded"), std::string::npos) << line;
      break;
    }
    ASSERT_TRUE(line == "OK" || line.rfind("PAIR ", 0) == 0)
        << "unexpected frame: " << line;
  }
  EXPECT_TRUE(saw_err);
  server.Stop();

  // The expired query still reconciles in the admission ledger.
  uint64_t submitted = 0, admitted = 0, shed = 0;
  for (const ShardStatus& shard : router.Stats()) {
    submitted += shard.counters.submitted;
    admitted += shard.counters.admitted;
    shed += shard.counters.shed;
  }
  EXPECT_EQ(admitted + shed, submitted);
  EXPECT_EQ(server.counters().expired, 1u);
}

TEST(DeadlineTest, ProxyRelaysDeadlineExceededWhenTheBudgetOutlastsRetries) {
  // One dead backend and a backoff larger than the budget: the first
  // dial fails instantly, the backoff is clamped to the remaining
  // budget, and the retry loop wakes up to find the deadline gone.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                 sizeof(addr)),
            0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        &addr_len),
            0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  close(fd);

  fleet::FleetProxyOptions options;
  options.retry.max_attempts = 50;
  options.retry.base_backoff_ms = 5000;
  options.retry.jitter_fraction = 0.0;
  fleet::FleetProxy proxy({{"127.0.0.1", dead_port}}, options);
  ASSERT_TRUE(proxy.Start().ok());

  Result<net::ProtocolClient> dialed =
      net::ProtocolClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  net::ProtocolClient client = std::move(dialed).value();
  const auto started = steady_clock::now();
  ASSERT_TRUE(client.SendLine("QUERY algo=obj deadline_ms=100"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("ERR DeadlineExceeded", 0), 0u) << line;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      steady_clock::now() - started);
  EXPECT_LT(elapsed.count(), 4000)
      << "the backoff must be clamped to the deadline, not slept in full";

  EXPECT_EQ(proxy.counters().expired, 1u);
  EXPECT_EQ(proxy.counters().ok, 0u);
  proxy.Stop();
}

}  // namespace
}  // namespace rcj
