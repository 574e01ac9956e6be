// Shared helpers for the ringjoin test suite.
#ifndef RINGJOIN_TESTS_TEST_UTIL_H_
#define RINGJOIN_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/rcj_types.h"
#include "geometry/point.h"

namespace rcj {
namespace testing_util {

/// (p.id, q.id) identity of a pair set, for order-insensitive comparison.
inline std::set<std::pair<PointId, PointId>> PairIds(
    const std::vector<RcjPair>& pairs) {
  std::set<std::pair<PointId, PointId>> out;
  for (const RcjPair& pair : pairs) out.emplace(pair.p.id, pair.q.id);
  return out;
}

/// Asserts two RCJ result sets contain exactly the same pairs.
inline void ExpectSamePairs(const std::vector<RcjPair>& actual,
                            const std::vector<RcjPair>& expected,
                            const char* label = "") {
  const auto actual_ids = PairIds(actual);
  const auto expected_ids = PairIds(expected);
  EXPECT_EQ(actual.size(), actual_ids.size())
      << label << ": duplicate pairs in actual result";
  EXPECT_EQ(actual_ids, expected_ids) << label;
}

/// Deterministic pseudo-random points without <random> (tests that need
/// particular distributions use workload/generator.h instead).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  double NextDouble(double lo, double hi) {
    const double u = static_cast<double>(Next() >> 11) /
                     static_cast<double>(1ull << 53);
    return lo + u * (hi - lo);
  }

  Point NextPoint(double lo, double hi) {
    return Point{NextDouble(lo, hi), NextDouble(lo, hi)};
  }

 private:
  uint64_t state_;
};

inline std::vector<PointRecord> RandomRecords(size_t n, uint64_t seed,
                                              double lo = 0.0,
                                              double hi = 10000.0) {
  SplitMix rng(seed);
  std::vector<PointRecord> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(PointRecord{rng.NextPoint(lo, hi),
                              static_cast<PointId>(i)});
  }
  return out;
}

/// The first of "env0", "env1", ... that `router` (a ShardRouter; a
/// template so this header stays free of the shard layer) places on
/// `shard`. Placement is a stable hash, so the name is the same every run.
template <typename Router>
std::string NameOnShard(const Router& router, size_t shard) {
  for (size_t i = 0; i < 1000; ++i) {
    std::string name = "env" + std::to_string(i);
    if (router.ShardOf(name) == shard) return name;
  }
  ADD_FAILURE() << "no name hashes onto shard " << shard;
  return "";
}

}  // namespace testing_util
}  // namespace rcj

#endif  // RINGJOIN_TESTS_TEST_UTIL_H_
