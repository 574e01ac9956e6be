// SocketSink over a socketpair: the bytes it sends must be exactly the
// PAIR lines the protocol formats, a delivered batch (EndBatch) must reach
// the socket without waiting for a Flush, and a peer that stops reading or
// goes away must turn into a dead sink and a kPeerGone stop.
#include "net/socket_sink.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
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
