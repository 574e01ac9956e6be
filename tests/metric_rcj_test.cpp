// Tests for the generalized (L1 / L∞) ring-constrained join — the paper's
// future-work extension.
#include "extensions/metric_rcj.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/rcj.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rcj {
namespace {

using testing_util::SplitMix;

std::set<std::pair<PointId, PointId>> MetricPairIds(
    const std::vector<MetricRcjPair>& pairs) {
  std::set<std::pair<PointId, PointId>> out;
  for (const MetricRcjPair& pair : pairs) out.emplace(pair.p.id, pair.q.id);
  return out;
}

struct Env {
  std::unique_ptr<MemPageStore> q_store;
  std::unique_ptr<MemPageStore> p_store;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RTree> tq;
  std::unique_ptr<RTree> tp;
};

Env MakeEnv(const std::vector<PointRecord>& qset,
            const std::vector<PointRecord>& pset) {
  Env env;
  env.buffer = std::make_unique<BufferManager>(1u << 16);
  env.q_store = std::make_unique<MemPageStore>(512);
  env.p_store = std::make_unique<MemPageStore>(512);
  auto tq = RTree::Create(env.q_store.get(), env.buffer.get());
  auto tp = RTree::Create(env.p_store.get(), env.buffer.get());
  EXPECT_TRUE(tq.ok());
  EXPECT_TRUE(tp.ok());
  env.tq = std::move(tq.value());
  env.tp = std::move(tp.value());
  for (const PointRecord& r : qset) EXPECT_TRUE(env.tq->Insert(r).ok());
  for (const PointRecord& r : pset) EXPECT_TRUE(env.tp->Insert(r).ok());
  return env;
}

TEST(MetricDistToRectTest, MinAndMaxAgainstSampling) {
  SplitMix rng(90);
  for (const Metric metric : {Metric::kL1, Metric::kL2, Metric::kLInf}) {
    for (int trial = 0; trial < 100; ++trial) {
      Rect r = Rect::Empty();
      r.Expand(rng.NextPoint(-50, 50));
      r.Expand(rng.NextPoint(-50, 50));
      const Point p = rng.NextPoint(-80, 80);
      const double min_d = MetricMinDistToRect(metric, p, r);
      const double max_d = MetricMaxDistToRect(metric, p, r);
      EXPECT_LE(min_d, max_d);
      for (int i = 0; i <= 8; ++i) {
        for (int j = 0; j <= 8; ++j) {
          const Point s{r.lo.x + (r.hi.x - r.lo.x) * i / 8.0,
                        r.lo.y + (r.hi.y - r.lo.y) * j / 8.0};
          const double d = MetricDist(metric, p, s);
          EXPECT_GE(d, min_d - 1e-9);
          EXPECT_LE(d, max_d + 1e-9);
        }
      }
    }
  }
}

TEST(MetricRcjTest, L2BruteMatchesClassicBrute) {
  const std::vector<PointRecord> pset = GenerateUniform(80, 91);
  const std::vector<PointRecord> qset = GenerateUniform(70, 92);
  const auto classic = testing_util::PairIds(BruteForceRcj(pset, qset));
  const auto metric =
      MetricPairIds(BruteForceMetricRcj(pset, qset, Metric::kL2));
  EXPECT_EQ(metric, classic);
}

class MetricJoinSweep
    : public ::testing::TestWithParam<std::tuple<Metric, size_t, uint64_t>> {
};

TEST_P(MetricJoinSweep, IndexedMatchesBruteForce) {
  const auto [metric, n, seed] = GetParam();
  const std::vector<PointRecord> qset = GenerateUniform(n, seed);
  const std::vector<PointRecord> pset = GenerateUniform(n + 20, seed + 50);
  Env env = MakeEnv(qset, pset);

  std::vector<MetricRcjPair> got;
  MetricJoinStats stats;
  ASSERT_TRUE(
      MetricRcjJoin(*env.tq, *env.tp, metric, &got, &stats).ok());
  const auto expected =
      MetricPairIds(BruteForceMetricRcj(pset, qset, metric));
  EXPECT_EQ(MetricPairIds(got), expected);
  EXPECT_EQ(stats.results, got.size());
  EXPECT_GE(stats.candidates, stats.results);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetricJoinSweep,
    ::testing::Combine(::testing::Values(Metric::kL1, Metric::kL2,
                                         Metric::kLInf),
                       ::testing::Values<size_t>(40, 120),
                       ::testing::Values<uint64_t>(93, 94)),
    [](const auto& info) {
      const char* m = std::get<0>(info.param) == Metric::kL1
                          ? "L1"
                          : (std::get<0>(info.param) == Metric::kL2 ? "L2"
                                                                    : "LInf");
      return std::string(m) + "_n" + std::to_string(std::get<1>(info.param)) +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

TEST(MetricRcjTest, BallGeometryPerMetric) {
  // The m-ball of a fixed pair contains different witnesses per metric:
  // p=(0,0), q=(4,4); midpoint (2,2); L2 radius = sqrt(32)/2 ~ 2.83,
  // L1 radius = 4, L∞ radius = 2.
  const PointRecord p{{0.0, 0.0}, 0};
  const PointRecord q{{4.0, 4.0}, 0};
  // Witness at (4.4, 2): L∞ dist to center = 2.4 > 2 (outside L∞ ball) but
  // L2 dist = sqrt(5.76+0) = 2.4 < 2.83 (inside L2 disk) and L1 dist = 2.4
  // < 4 (inside L1 diamond).
  const PointRecord witness{{4.4, 2.0}, 1};
  const std::vector<PointRecord> pset{p, witness};
  const std::vector<PointRecord> qset{q};

  const auto l2 = MetricPairIds(BruteForceMetricRcj(pset, qset, Metric::kL2));
  const auto l1 = MetricPairIds(BruteForceMetricRcj(pset, qset, Metric::kL1));
  const auto linf =
      MetricPairIds(BruteForceMetricRcj(pset, qset, Metric::kLInf));

  EXPECT_TRUE(l2.count({0, 0}) == 0) << "witness inside L2 disk";
  EXPECT_TRUE(l1.count({0, 0}) == 0) << "witness inside L1 diamond";
  EXPECT_TRUE(linf.count({0, 0}) != 0) << "witness outside L-inf square";
}

TEST(MetricRcjTest, RadiusIsHalfTheMetricDistance) {
  const std::vector<PointRecord> pset = GenerateUniform(30, 95);
  const std::vector<PointRecord> qset = GenerateUniform(30, 96);
  for (const Metric metric : {Metric::kL1, Metric::kLInf}) {
    for (const MetricRcjPair& pair :
         BruteForceMetricRcj(pset, qset, metric)) {
      EXPECT_DOUBLE_EQ(pair.radius,
                       0.5 * MetricDist(metric, pair.p.pt, pair.q.pt));
      EXPECT_EQ(pair.center, Midpoint(pair.p.pt, pair.q.pt));
      // Fairness holds in every Minkowski metric: the midpoint is
      // equidistant from both endpoints.
      EXPECT_NEAR(MetricDist(metric, pair.center, pair.p.pt),
                  MetricDist(metric, pair.center, pair.q.pt), 1e-9);
    }
  }
}

TEST(MetricRcjTest, MetricsProduceDifferentResultSetsAtScale) {
  const std::vector<PointRecord> pset = GenerateUniform(200, 97);
  const std::vector<PointRecord> qset = GenerateUniform(200, 98);
  const auto l1 = MetricPairIds(BruteForceMetricRcj(pset, qset, Metric::kL1));
  const auto l2 = MetricPairIds(BruteForceMetricRcj(pset, qset, Metric::kL2));
  const auto linf =
      MetricPairIds(BruteForceMetricRcj(pset, qset, Metric::kLInf));
  EXPECT_NE(l1, l2);
  EXPECT_NE(linf, l2);
  // But they overlap heavily: all three are "local empty-ball" graphs.
  std::set<std::pair<PointId, PointId>> l1_and_l2;
  for (const auto& e : l1) {
    if (l2.count(e) != 0) l1_and_l2.insert(e);
  }
  EXPECT_GT(l1_and_l2.size(), l2.size() / 2);
}

}  // namespace
}  // namespace rcj
