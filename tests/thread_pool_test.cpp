// Tests for the engine's thread pool: completion guarantees and
// destruction draining.
#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

namespace rcj {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    // The destructor must run every queued task before joining.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsPromotedToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

}  // namespace
}  // namespace rcj
