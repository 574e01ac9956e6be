// Microbenchmarks for the R*-tree substrate: build throughput, query
// latency, and the RCJ filter primitive.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/filter.h"
#include "rtree/inn_cursor.h"
#include "rtree/rtree.h"
#include "workload/generator.h"

namespace rcj {
namespace {

struct Env {
  std::unique_ptr<MemPageStore> store;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RTree> tree;
};

Env BuildTree(size_t n, bool bulk) {
  Env env;
  env.store = std::make_unique<MemPageStore>(kDefaultPageSize);
  env.buffer = std::make_unique<BufferManager>(1u << 18);
  env.tree =
      std::move(RTree::Create(env.store.get(), env.buffer.get()).value());
  const auto recs = GenerateUniform(n, 1);
  if (bulk) {
    (void)env.tree->BulkLoadStr(recs);
  } else {
    for (const PointRecord& r : recs) (void)env.tree->Insert(r);
  }
  return env;
}

void BM_RStarInsert(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Env env = BuildTree(n, /*bulk=*/false);
    benchmark::DoNotOptimize(env.tree->num_points());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RStarInsert)->Arg(1000)->Arg(10000);

void BM_StrBulkLoad(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Env env = BuildTree(n, /*bulk=*/true);
    benchmark::DoNotOptimize(env.tree->num_points());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_StrBulkLoad)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RangeQuery(benchmark::State& state) {
  Env env = BuildTree(100000, /*bulk=*/true);
  uint64_t i = 0;
  std::vector<PointRecord> out;
  for (auto _ : state) {
    const double x = static_cast<double>((i * 2654435761u) % 9000u);
    const double y = static_cast<double>((i * 40503u) % 9000u);
    const Rect box{{x, y}, {x + 500.0, y + 500.0}};
    out.clear();
    (void)env.tree->RangeSearch(box, &out);
    benchmark::DoNotOptimize(out.size());
    ++i;
  }
}
BENCHMARK(BM_RangeQuery);

void BM_KnnQuery(benchmark::State& state) {
  Env env = BuildTree(100000, /*bulk=*/true);
  const auto k = static_cast<size_t>(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    const Point q{static_cast<double>((i * 2654435761u) % 10000u),
                  static_cast<double>((i * 40503u) % 10000u)};
    benchmark::DoNotOptimize(env.tree->Knn(q, k).value().size());
    ++i;
  }
}
BENCHMARK(BM_KnnQuery)->Arg(1)->Arg(10)->Arg(100);

void BM_RcjFilter(benchmark::State& state) {
  Env env = BuildTree(100000, /*bulk=*/true);
  uint64_t i = 0;
  // Algorithm 2 as INJ runs it: Bulk_Filter over a group of one point,
  // with the scratch reused across queries.
  std::vector<PointRecord> group(1);
  std::vector<std::vector<PointRecord>> candidates;
  BulkFilterScratch scratch;
  for (auto _ : state) {
    group[0].pt = Point{static_cast<double>((i * 2654435761u) % 10000u),
                        static_cast<double>((i * 40503u) % 10000u)};
    (void)BulkFilterCandidates(*env.tree, group, BulkFilterOptions{},
                               &candidates, nullptr, &scratch);
    benchmark::DoNotOptimize(candidates[0].size());
    ++i;
  }
}
BENCHMARK(BM_RcjFilter);

void BM_BulkFilterLeafGroup(benchmark::State& state) {
  Env env = BuildTree(100000, /*bulk=*/true);
  const auto group = GenerateUniform(29, 77, Domain{4000.0, 4400.0});
  BulkFilterOptions options;
  options.symmetric_pruning = state.range(0) != 0;
  // One leaf's group as BIJ (0) and OBJ (1) run it, with the scratch
  // reused across calls as a join reuses it across groups.
  std::vector<std::vector<PointRecord>> per_q;
  BulkFilterScratch scratch;
  for (auto _ : state) {
    (void)BulkFilterCandidates(*env.tree, group, options, &per_q, nullptr,
                               &scratch);
    benchmark::DoNotOptimize(per_q.size());
  }
}
BENCHMARK(BM_BulkFilterLeafGroup)->Arg(0)->Arg(1);

}  // namespace
}  // namespace rcj
