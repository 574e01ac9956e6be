// The query's one stop signal: a first-wins StopToken whose reason maps to
// the query's status in one place. Covers the token itself, unsplit
// queries (one engine thread, or BRUTE) stopping mid-traversal instead of
// at the end of their only chunk, and a seeded limit/deadline/cancel race
// that must settle every query on exactly one reason.
#include "core/stop_token.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/rcj.h"
#include "obs/metrics.h"
#include "service/service.h"
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

uint64_t StopsTotal(StopReason reason) {
  return obs::MetricsRegistry::Default()
      .counter(std::string("rcj_engine_stops_total{reason=\"") +
               StopReasonName(reason) + "\"}")
      ->Value();
}

TEST(StopTokenTest, FirstStopWinsAndSettleFreezesTheReason) {
  StopToken token;
  EXPECT_FALSE(token.stopped());
  EXPECT_TRUE(token.Stop(StopReason::kDeadline));
  EXPECT_FALSE(token.Stop(StopReason::kCancelled)) << "first stop wins";
  EXPECT_EQ(token.reason(), StopReason::kDeadline);
  EXPECT_EQ(token.Settle(), StopReason::kDeadline);

  StopToken finished;
  EXPECT_EQ(finished.Settle(), StopReason::kNone);
  EXPECT_FALSE(finished.Stop(StopReason::kCancelled))
      << "a stop after the query resolved must not rewrite its reason";
  EXPECT_FALSE(finished.stopped());

  EXPECT_TRUE(StopStatus(StopReason::kLimit).ok());
  EXPECT_EQ(StopStatus(StopReason::kPeerGone).code(), StatusCode::kCancelled);
  EXPECT_EQ(StopStatus(StopReason::kDeadline).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_STREQ(StopReasonName(StopReason::kPeerGone), "peer_gone");
}

TEST(StopTokenTest, UnsplitQueriesStopMidTraversal) {
  // A query runs as one task at one engine thread, and always for BRUTE;
  // its stop must land inside that task's traversal, not after it.
  std::unique_ptr<RcjEnvironment> env = BuildEnv(20000, 1);
  const Result<RcjRunResult> full = env->Run(QuerySpec::For(env.get()));
  ASSERT_TRUE(full.ok());
  const uint64_t full_pairs = full.value().stats.results;
  const uint64_t full_candidates = full.value().stats.candidates;

  struct Case {
    RcjAlgorithm algorithm;
    size_t threads;
  };
  for (const Case& c : {Case{RcjAlgorithm::kObj, 1},
                        Case{RcjAlgorithm::kBrute, 4}}) {
    SCOPED_TRACE(std::string(AlgorithmName(c.algorithm)) + " at " +
                 std::to_string(c.threads) + " threads");
    ServiceOptions options;
    options.engine.num_threads = c.threads;
    Service service(options);

    // (a) A cancel 20 ms in. BRUTE counts its |P| x |Q| candidates up
    // front, so its stop shows as the time to resolve instead: its full
    // join runs for tens of seconds.
    StopToken stop;
    QuerySpec spec = QuerySpec::For(env.get());
    spec.algorithm = c.algorithm;
    spec.stop = &stop;
    CountingSink cancelled_sink;
    QueryTicket ticket = service.Submit(spec, &cancelled_sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto stopped_at = steady_clock::now();
    stop.Stop(StopReason::kCancelled);
    EXPECT_EQ(ticket.Wait().code(), StatusCode::kCancelled);
    const double resolve_s =
        std::chrono::duration<double>(steady_clock::now() - stopped_at)
            .count();
    EXPECT_EQ(stop.reason(), StopReason::kCancelled);
    if (c.algorithm == RcjAlgorithm::kBrute) {
      EXPECT_LT(resolve_s, 5.0);
    } else {
      EXPECT_LT(ticket.stats().candidates, full_candidates / 2)
          << "resolved " << resolve_s << " s after the stop";
    }

    // (b) A 20 ms deadline: DeadlineExceeded, not the full stream.
    StopToken deadline_stop;
    spec.stop = &deadline_stop;
    spec.deadline = steady_clock::now() + std::chrono::milliseconds(20);
    CountingSink deadline_sink;
    ticket = service.Submit(spec, &deadline_sink);
    EXPECT_EQ(ticket.Wait().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(deadline_stop.reason(), StopReason::kDeadline);
    EXPECT_LT(deadline_sink.count(), full_pairs);
  }
}

TEST(StopTokenTest, SeededRaceRecordsExactlyOneReasonPerQuery) {
  // Change kSeed to replay another interleaving; every failure names it.
  constexpr uint64_t kSeed = 20261017;
  SCOPED_TRACE("seed " + std::to_string(kSeed));
  constexpr size_t kQueries = 200;
  constexpr size_t kWave = 8;  // queries in flight at once

  std::unique_ptr<RcjEnvironment> env = BuildEnv(2000, 1801);
  const Result<RcjRunResult> serial = env->Run(QuerySpec::For(env.get()));
  ASSERT_TRUE(serial.ok());
  const std::vector<RcjPair>& full = serial.value().pairs;
  ASSERT_GT(full.size(), 500u) << "every limit must cut the stream";

  constexpr size_t kReasons = static_cast<size_t>(StopReason::kFailed) + 1;
  std::array<uint64_t, kReasons> before{};
  for (size_t r = 1; r < kReasons; ++r) {
    before[r] = StopsTotal(static_cast<StopReason>(r));
  }
  std::array<uint64_t, kReasons> seen{};

  ServiceOptions options;
  options.engine.num_threads = 4;
  Service service(options);
  std::mt19937_64 rng(kSeed);
  for (size_t first = 0; first < kQueries; first += kWave) {
    struct Query {
      StopToken stop;
      std::vector<RcjPair> pairs;
      VectorSink sink{&pairs};
      uint64_t limit = 0;
      QueryTicket ticket;
    };
    std::deque<Query> wave(kWave);
    std::vector<std::thread> cancellers;
    for (size_t i = 0; i < kWave; ++i) {
      Query& query = wave[i];
      const bool limited = rng() % 2 == 0;
      const uint64_t limit = 1 + rng() % 500;
      const bool has_deadline = rng() % 2 == 0;
      const auto deadline_in = std::chrono::microseconds(rng() % 5001);
      const bool cancel = rng() % 2 == 0;
      const auto cancel_in = std::chrono::microseconds(rng() % 5001);

      query.limit = limited ? limit : 0;
      QuerySpec spec = QuerySpec::For(env.get());
      spec.limit = query.limit;
      spec.stop = &query.stop;
      if (has_deadline) spec.deadline = steady_clock::now() + deadline_in;
      query.ticket = service.Submit(spec, &query.sink);
      if (cancel) {
        cancellers.emplace_back([&query, cancel_in] {
          std::this_thread::sleep_for(cancel_in);
          query.stop.Stop(StopReason::kCancelled);
        });
      }
    }
    for (std::thread& canceller : cancellers) canceller.join();

    for (size_t i = 0; i < kWave; ++i) {
      Query& query = wave[i];
      SCOPED_TRACE("query " + std::to_string(first + i) + " limit " +
                   std::to_string(query.limit));
      const Status status = query.ticket.Wait();
      const StopReason reason = query.stop.reason();
      ++seen[static_cast<size_t>(reason)];
      switch (reason) {
        case StopReason::kNone:
        case StopReason::kLimit:
          EXPECT_TRUE(status.ok()) << status.ToString();
          EXPECT_EQ(reason == StopReason::kLimit, query.limit != 0);
          EXPECT_EQ(query.pairs.size(),
                    query.limit == 0 ? full.size() : query.limit);
          break;
        case StopReason::kCancelled:
          EXPECT_EQ(status.code(), StatusCode::kCancelled);
          break;
        case StopReason::kDeadline:
          EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
          break;
        default:
          ADD_FAILURE() << "unexpected reason " << StopReasonName(reason);
      }
      EXPECT_EQ(query.ticket.stats().results, query.pairs.size());
      ASSERT_LE(query.pairs.size(), full.size());
      for (size_t k = 0; k < query.pairs.size(); ++k) {
        ASSERT_EQ(query.pairs[k].p.id, full[k].p.id) << "pair " << k;
        ASSERT_EQ(query.pairs[k].q.id, full[k].q.id) << "pair " << k;
      }
    }
  }

  // One stops_total increment per stopped query, under its own reason.
  uint64_t stopped = 0;
  for (size_t r = 1; r < kReasons; ++r) {
    const StopReason reason = static_cast<StopReason>(r);
    EXPECT_EQ(StopsTotal(reason) - before[r], seen[r])
        << StopReasonName(reason);
    stopped += seen[r];
  }
  EXPECT_EQ(stopped + seen[0], kQueries);
  EXPECT_GT(stopped, 0u);
}

}  // namespace
}  // namespace rcj
