// Tests of the connection core NetServer and FleetProxy share: the
// max_connections deferral (a peer past the cap waits in the kernel backlog
// and is served once a slot is reaped), a prompt Stop() of an idle server,
// first-token verb dispatch, and the mutation-batch loop.
#include "net/line_server.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "net/line_reader.h"
#include "net/protocol_client.h"

namespace rcj {
namespace net {
namespace {

/// A minimal tier: STATS answers "OK", every other verb is echoed back as
/// an ERR, and a mutation is acknowledged with "OK" unless it is a COMPACT.
struct EchoTier {
  obs::OutcomeCounter rejected{"rcj_line_server_test_rejected_total"};
  std::string last_fallback;

  LineServer::Tier Make() {
    LineServer::Tier tier;
    tier.adopt = [](int fd) {
      return std::make_shared<LineServer::Connection>(fd);
    };
    tier.verbs["STATS"] = [](LineServer::Connection* connection,
                             const std::string&) {
      SendAll(connection->fd, "OK\n");
    };
    tier.fallback = [this](LineServer::Connection* connection,
                           const std::string& line) {
      last_fallback = line;
      SendAll(connection->fd, "ERR InvalidArgument fallback\n");
    };
    tier.mutate = [](LineServer::Connection* connection,
                     const std::string& line) {
      if (RequestVerb(line) == "COMPACT") {
        SendAll(connection->fd, "ERR NotSupported compact\n");
        return false;
      }
      return SendAll(connection->fd, "OK\n");
    };
    tier.send = [](LineServer::Connection* connection,
                   const std::string& frames) {
      return SendAll(connection->fd, frames);
    };
    tier.rejected = &rejected;
    return tier;
  }
};

/// True when `fd` becomes readable within `timeout_ms`.
bool ReadableWithin(int fd, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  return poll(&pfd, 1, timeout_ms) > 0;
}

TEST(LineServerTest, PeerPastTheConnectionCapWaitsUntilASlotIsReaped) {
  EchoTier echo;
  LineServerOptions options;
  options.max_connections = 1;
  LineServer server(options, echo.Make());
  ASSERT_TRUE(server.Start().ok());

  // Client A takes the only slot and holds it without sending a line.
  Result<int> a = DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(a.ok());
  const auto accepted_by = std::chrono::steady_clock::now() +
                           std::chrono::seconds(5);
  while (server.active_connections() < 1 &&
         std::chrono::steady_clock::now() < accepted_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.active_connections(), 1u);

  // Client B connects (the kernel completes the handshake from the
  // backlog) and asks, but the server does not accept it at the cap.
  Result<int> b = DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(SendAll(b.value(), "STATS\n"));
  EXPECT_FALSE(ReadableWithin(b.value(), 300)) << "B was served at the cap";
  EXPECT_EQ(server.active_connections(), 1u);

  // A leaves; its handler finishes, the accept loop reaps it and serves B.
  close(a.value());
  ASSERT_TRUE(ReadableWithin(b.value(), 5000));
  LineReader reader(b.value());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "OK");
  close(b.value());
  server.Stop();
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(LineServerTest, StopWakesTheIdleAcceptLoopAtOnce) {
  // The accept loop sleeps in poll with no timeout; Stop() wakes it through
  // the wake fd, so stopping an idle server costs no polling slice. The
  // short pause lets each loop reach its poll before Stop() runs.
  EchoTier echo;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    LineServer server(LineServerOptions{}, echo.Make());
    ASSERT_TRUE(server.Start().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.Stop();
  }
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_LT(elapsed_ms, 250);
}

TEST(LineServerTest, DispatchesOnTheFirstTokenAndFallsBackOtherwise) {
  EchoTier echo;
  LineServer server(LineServerOptions{}, echo.Make());
  ASSERT_TRUE(server.Start().ok());
  const auto ask = [&server](const std::string& request) {
    Result<int> fd = DialTcp("127.0.0.1", server.port());
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(SendAll(fd.value(), request));
    LineReader reader(fd.value());
    std::string line;
    EXPECT_TRUE(reader.ReadLine(&line));
    close(fd.value());
    return line;
  };
  EXPECT_EQ(ask("  STATS\r\n"), "OK");
  EXPECT_EQ(ask("QUERY algo=obj\n"), "ERR InvalidArgument fallback");
  EXPECT_EQ(echo.last_fallback, "QUERY algo=obj");
  // A CR inside the line hides no verb: the line goes to the fallback,
  // whose parser rejects it.
  EXPECT_EQ(ask("COMPACT\r env=other\n"), "ERR InvalidArgument fallback");
  // METRICS is the core's own answer.
  EXPECT_EQ(ask("METRICS\n"), "OK");
  EXPECT_EQ(ask("METRICS now\n").rfind("ERR InvalidArgument", 0), 0u);
  EXPECT_EQ(echo.rejected.value(), 1u);
}

TEST(LineServerTest, MutationBatchRunsUntilAFailureOrANonMutation) {
  EchoTier echo;
  LineServer server(LineServerOptions{}, echo.Make());
  ASSERT_TRUE(server.Start().ok());
  const auto batch = [&server](const std::string& requests) {
    Result<int> fd = DialTcp("127.0.0.1", server.port());
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(SendAll(fd.value(), requests));
    shutdown(fd.value(), SHUT_WR);
    LineReader reader(fd.value());
    std::string all;
    std::string line;
    while (reader.ReadLine(&line)) all += line + "\n";
    close(fd.value());
    return all;
  };
  // A clean close ends the batch without an ERR.
  EXPECT_EQ(batch("INSERT a\nDELETE b\nINSERT c\n"), "OK\nOK\nOK\n");
  // A failed op ends it: the lines after it are not applied.
  EXPECT_EQ(batch("INSERT a\nCOMPACT\nINSERT c\n"),
            "OK\nERR NotSupported compact\n");
  // Only mutations may follow a mutation.
  const std::string mixed = batch("DELETE a\nSTATS\n");
  EXPECT_EQ(mixed.rfind("OK\nERR InvalidArgument only mutation requests", 0),
            0u)
      << mixed;
}

}  // namespace
}  // namespace net
}  // namespace rcj
