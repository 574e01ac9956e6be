// Tests for the engine's thread pool: completion guarantees, destruction
// draining, and the order of fresh versus yielded tasks.
#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

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

TEST(ThreadPoolTest, FreshTasksFirstThenGroupsTakeTurnsInRankOrder) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::string> order;
  const auto record = [&](const char* name) {
    return [&, name] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(name);
    };
  };
  {
    ThreadPool pool(1);
    // Hold the only worker while the queues fill up.
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
    pool.Yield(record("g1.r2"), 1, 2);
    pool.Yield(record("g1.r1"), 1, 1);
    pool.Submit(record("fresh.a"));
    pool.Yield(record("g2.r5"), 2, 5);
    pool.Yield(record("g2.r9"), 2, 9);
    pool.Yield(record("g1.r3"), 1, 3);
    pool.Yield(record("g1.r1.b"), 1, 1);
    pool.Submit(record("fresh.b"));
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  }
  const std::vector<std::string> want = {"fresh.a", "fresh.b", "g1.r1",
                                         "g2.r5",   "g1.r1.b", "g2.r9",
                                         "g1.r2",   "g1.r3"};
  EXPECT_EQ(order, want);
}

}  // namespace
}  // namespace rcj
