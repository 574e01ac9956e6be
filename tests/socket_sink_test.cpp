// SocketSink over a socketpair: the bytes it sends must be exactly the
// PAIR lines the protocol formats, a delivered batch (EndBatch) must reach
// the socket without waiting for a Flush, and a peer that stops reading or
// goes away must turn into a dead sink and a kPeerGone stop, while one
// that reads slowly (over TCP loopback) keeps its stream.
#include "net/socket_sink.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "core/stop_token.h"
#include "net/protocol.h"

namespace rcj {
namespace {

class SocketSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    for (int fd : fds_) {
      if (fd >= 0) close(fd);
    }
  }

  static RcjPair PairAt(int i) {
    const PointRecord p{Point{i * 0.1, 1.0 / (i + 3)}, i};
    const PointRecord q{Point{-i * 1e-7, i * 12345.6789}, -i - 1};
    return RcjPair::Make(p, q);
  }

  /// Everything the peer can read right now, without blocking.
  std::string ReadAvailable() {
    std::string out;
    char buffer[65536];
    for (;;) {
      const ssize_t got = recv(fds_[1], buffer, sizeof(buffer), MSG_DONTWAIT);
      if (got > 0) {
        out.append(buffer, static_cast<size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      return out;
    }
  }

  int fds_[2] = {-1, -1};
};

TEST_F(SocketSinkTest, ByteStreamIsTheFormattedPairLines) {
  // Enough pairs to cross the drain threshold many times and to overflow
  // the socket buffer, so threshold drains, partial sends and a
  // concurrently reading peer are all exercised.
  constexpr int kPairs = 20000;
  std::string received;
  std::thread reader([&] {
    char buffer[65536];
    for (;;) {
      const ssize_t got = recv(fds_[1], buffer, sizeof(buffer), 0);
      if (got > 0) {
        received.append(buffer, static_cast<size_t>(got));
      } else if (!(got < 0 && errno == EINTR)) {
        return;
      }
    }
  });

  StopToken stop;
  SocketSink sink(fds_[0], SocketSinkOptions{}, &stop);
  std::string expected;
  bool accepted = true;
  for (int i = 0; i < kPairs && accepted; ++i) {
    const RcjPair pair = PairAt(i);
    accepted = sink.Emit(pair);
    expected += net::FormatPairLine(pair) + "\n";
    if (i % 1000 == 999) sink.EndBatch();
  }
  accepted = accepted && sink.SendLine("END");
  expected += "END\n";
  const bool flushed = sink.Flush(5000);
  shutdown(fds_[0], SHUT_WR);  // the reader sees EOF
  reader.join();

  ASSERT_TRUE(accepted);
  ASSERT_TRUE(flushed);
  EXPECT_EQ(received, expected);
  EXPECT_EQ(sink.emitted(), static_cast<uint64_t>(kPairs));
  EXPECT_EQ(sink.bytes_sent(), expected.size());
  EXPECT_FALSE(sink.dead());
  EXPECT_FALSE(stop.stopped());
}

TEST_F(SocketSinkTest, EndBatchSendsEveryAppendedByteWithoutFlush) {
  // A handful of pairs stays below the drain threshold: Emit only
  // appends, and the chunk-end EndBatch is what puts them on the socket —
  // the hook a client's first-pair latency depends on.
  SocketSink sink(fds_[0]);
  std::string expected;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sink.Emit(PairAt(i)));
    expected += net::FormatPairLine(PairAt(i)) + "\n";
  }
  EXPECT_EQ(ReadAvailable(), "");
  EXPECT_EQ(sink.bytes_sent(), 0u);

  sink.EndBatch();
  EXPECT_EQ(ReadAvailable(), expected);
  EXPECT_EQ(sink.bytes_sent(), expected.size());
}

TEST_F(SocketSinkTest, StalledPeerKillsTheSinkWithinTheDrainGrace) {
  SocketSinkOptions options;
  options.max_pending_bytes = 8 * 1024;
  options.drain_grace_ms = 200;
  StopToken stop;
  SocketSink sink(fds_[0], options, &stop);

  // The peer never reads: the socket buffer fills, then the pending
  // bound, then one Emit sits out the grace and gives up.
  bool refused = false;
  double refused_call_ms = 0.0;
  for (int i = 0; i < 1000000 && !refused; ++i) {
    const auto start = std::chrono::steady_clock::now();
    refused = !sink.Emit(PairAt(i));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    refused_call_ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
  }
  ASSERT_TRUE(refused);
  EXPECT_GE(refused_call_ms, options.drain_grace_ms * 0.9);
  EXPECT_LT(refused_call_ms, options.drain_grace_ms + 2000.0);
  EXPECT_TRUE(sink.dead());
  EXPECT_GE(sink.stalls(), 1u);
  EXPECT_EQ(stop.reason(), StopReason::kPeerGone);
  EXPECT_FALSE(sink.SendLine("END"));
}

/// A connected loopback TCP pair: fds[0] the accepted (server) end,
/// fds[1] the dialing client.
void LoopbackTcpPair(int fds[2]) {
  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                 addr_len),
            0);
  ASSERT_EQ(listen(listen_fd, 1), 0);
  ASSERT_EQ(getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                        &addr_len),
            0);
  fds[1] = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_EQ(connect(fds[1], reinterpret_cast<struct sockaddr*>(&addr),
                    addr_len),
            0);
  fds[0] = accept(listen_fd, nullptr, nullptr);
  close(listen_fd);
  ASSERT_GE(fds[0], 0);
}

TEST_F(SocketSinkTest, SlowReaderKeepsItsStreamAtTheDefaultBounds) {
  // Over TCP loopback, as a client is served, with the default bounds.
  // The peer reads 4 KiB every 10 ms (at most 400 KB/s): a live reader,
  // yet too slow to free the third of the kernel's autotuned send buffer
  // after which poll() reports the socket writable. The bytes it does
  // take within a grace must count, however often the pending bound
  // fills.
  int tcp[2] = {-1, -1};
  LoopbackTcpPair(tcp);
  ASSERT_GE(tcp[1], 0);
  std::atomic<bool> throttled{true};
  uint64_t received = 0;
  std::thread reader([&] {
    char buffer[4096];
    for (;;) {
      if (throttled.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      const ssize_t got = recv(tcp[1], buffer, sizeof(buffer), 0);
      if (got <= 0) return;
      received += static_cast<uint64_t>(got);
    }
  });

  StopToken stop;
  SocketSink sink(tcp[0], SocketSinkOptions{}, &stop);
  bool accepted = true;
  for (int i = 0; i < 10000000 && accepted && sink.stalls() < 3; ++i) {
    accepted = sink.Emit(PairAt(i));
  }
  EXPECT_TRUE(accepted) << "the slow reader lost its stream after "
                        << sink.stalls() << " stall(s)";
  EXPECT_GE(sink.stalls(), 3u);
  throttled.store(false);
  EXPECT_TRUE(sink.Flush(SocketSinkOptions{}.drain_grace_ms));
  shutdown(tcp[0], SHUT_WR);
  reader.join();
  EXPECT_FALSE(sink.dead());
  EXPECT_EQ(stop.reason(), StopReason::kNone);
  EXPECT_EQ(received, sink.bytes_sent());
  close(tcp[0]);
  close(tcp[1]);
}

TEST_F(SocketSinkTest, ClosedPeerMakesEmitReturnFalse) {
  close(fds_[1]);
  fds_[1] = -1;
  StopToken stop;
  SocketSink sink(fds_[0], SocketSinkOptions{}, &stop);

  // Emit buffers below the drain threshold, so the refusal comes with the
  // first send — at the latest once the threshold's worth is pending.
  bool refused = false;
  for (int i = 0; i < 100000 && !refused; ++i) {
    refused = !sink.Emit(PairAt(i));
  }
  EXPECT_TRUE(refused);
  EXPECT_TRUE(sink.dead());
  EXPECT_EQ(stop.reason(), StopReason::kPeerGone);
  EXPECT_FALSE(sink.Emit(PairAt(0)));
  EXPECT_FALSE(sink.SendLine("END"));
}

TEST_F(SocketSinkTest, ClosedPeerIsNoticedAtTheBatchEnd) {
  close(fds_[1]);
  fds_[1] = -1;
  StopToken stop;
  SocketSink sink(fds_[0], SocketSinkOptions{}, &stop);
  ASSERT_TRUE(sink.Emit(PairAt(0)));  // only appended
  sink.EndBatch();
  EXPECT_TRUE(sink.dead());
  EXPECT_EQ(stop.reason(), StopReason::kPeerGone);
  EXPECT_FALSE(sink.Emit(PairAt(1)));
}

}  // namespace
}  // namespace rcj
