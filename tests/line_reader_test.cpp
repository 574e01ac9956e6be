// net::LineReader over a socketpair: lines longer than its buffer, EOF
// before and inside a line, several lines from one recv, and the three
// limits of a bounded read (deadline, idle window, length cap), including
// that a read which ends early keeps the bytes it buffered.
#include "net/line_reader.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

namespace rcj {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

class LineReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    for (int fd : fds_) {
      if (fd >= 0) close(fd);
    }
  }

  /// Ends the writing side: the reader sees EOF after what was sent.
  void CloseWriter() {
    close(fds_[1]);
    fds_[1] = -1;
  }

  static ReadLimits DueIn(int ms) {
    ReadLimits limits;
    limits.deadline = Clock::now() + std::chrono::milliseconds(ms);
    return limits;
  }

  int reader_fd() const { return fds_[0]; }
  int writer_fd() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST_F(LineReaderTest, LineLongerThanTheBufferArrivesWhole) {
  const std::string huge(200 * 1024, 'x');
  std::thread writer([&] { SendAll(writer_fd(), huge + "\ntail\n"); });
  LineReader reader(reader_fd());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, huge);
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "tail");
  writer.join();
}

TEST_F(LineReaderTest, EofEndsTheStreamAndEofMidLineIsNoLine) {
  ASSERT_TRUE(SendAll(writer_fd(), "whole\r\npart"));
  CloseWriter();
  LineReader reader(reader_fd());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "whole\r") << "the framer consumes the LF and keeps a CR";
  EXPECT_FALSE(reader.ReadLine(&line));
  EXPECT_EQ(reader.Read(&line, {}), ReadOutcome::kError);
}

TEST_F(LineReaderTest, CleanEofIsItsOwnOutcome) {
  ASSERT_TRUE(SendAll(writer_fd(), "last\n"));
  CloseWriter();
  LineReader reader(reader_fd());
  std::string line;
  EXPECT_EQ(reader.Read(&line, {}), ReadOutcome::kLine);
  EXPECT_EQ(reader.Read(&line, {}), ReadOutcome::kEof);
  EXPECT_FALSE(reader.HasBytes());
}

TEST_F(LineReaderTest, OneRecvOfSeveralLinesIsServedFromTheBuffer) {
  ASSERT_TRUE(SendAll(writer_fd(), "a\nbb\nccc\n"));
  LineReader reader(reader_fd());
  EXPECT_FALSE(reader.HasLine()) << "nothing was received yet";
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "a");
  EXPECT_TRUE(reader.HasLine());
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "bb");
  EXPECT_TRUE(reader.HasLine());
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "ccc");
  EXPECT_FALSE(reader.HasLine());
  EXPECT_FALSE(reader.HasBytes());
}

TEST_F(LineReaderTest, TimedOutReadKeepsItsBytesForTheNextRead) {
  ASSERT_TRUE(SendAll(writer_fd(), "par"));
  LineReader reader(reader_fd());
  std::string line = "untouched";
  const auto start = Clock::now();
  EXPECT_EQ(reader.Read(&line, DueIn(50)), ReadOutcome::kTimedOut);
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(50));
  EXPECT_EQ(line, "untouched") << "a failed read leaves *line alone";
  EXPECT_TRUE(reader.HasBytes());
  ASSERT_TRUE(SendAll(writer_fd(), "tial\n"));
  EXPECT_EQ(reader.Read(&line, DueIn(5000)), ReadOutcome::kLine);
  EXPECT_EQ(line, "partial");
}

TEST_F(LineReaderTest, TooLongFiresAtTheCapPlusOne) {
  ReadLimits limits = DueIn(5000);
  limits.max_bytes = 4;
  ASSERT_TRUE(SendAll(writer_fd(), "abcd\n"));
  LineReader reader(reader_fd());
  std::string line;
  EXPECT_EQ(reader.Read(&line, limits), ReadOutcome::kLine);
  EXPECT_EQ(line, "abcd");
  // The fifth byte is refused at once, without waiting for a newline.
  ASSERT_TRUE(SendAll(writer_fd(), "abcde"));
  const auto start = Clock::now();
  EXPECT_EQ(reader.Read(&line, limits), ReadOutcome::kTooLong);
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
}

TEST_F(LineReaderTest, IdleWindowWaitsOnlyForTheFirstByte) {
  LineReader reader(reader_fd());
  std::string line;
  ReadLimits limits = DueIn(5000);
  limits.idle_ms = 50;
  EXPECT_EQ(reader.Read(&line, limits), ReadOutcome::kIdle);

  // With a partial line buffered the idle window no longer applies: the
  // read runs until its deadline.
  ASSERT_TRUE(SendAll(writer_fd(), "ab"));
  limits = DueIn(300);
  limits.idle_ms = 50;
  const auto start = Clock::now();
  EXPECT_EQ(reader.Read(&line, limits), ReadOutcome::kTimedOut);
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(300));
}

}  // namespace
}  // namespace net
}  // namespace rcj
