// Ablation for the paper's Section-3 generality claim: the RCJ methodology
// on a bucket quadtree vs the R*-tree INJ, same data, same shared-buffer
// cost model. Results must be identical; costs differ with the index's
// space partitioning (quadrant regions vs MBRs).
#include <chrono>
#include <memory>

#include "bench_util.h"
#include "quadtree/quad_rcj.h"
#include "storage/cost_model.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Ablation (Section 3) - quadtree vs R*-tree as the index",
              "same RCJ result from a different hierarchical index; cost "
              "shifts with the partitioning",
              scale);

  const size_t n = scale.N(100000);
  const auto qset = GenerateUniform(n, 61);
  const auto pset = GenerateUniform(n, 62);

  // R-tree pipeline (INJ: the per-point algorithm, closest in structure to
  // the quadtree join).
  auto env = MustBuild(qset, pset);
  QuerySpec spec;
  spec.algorithm = RcjAlgorithm::kInj;
  const RcjRunResult rtree_run = MustRun(env.get(), spec);

  // Quadtree pipeline over the same data with the same buffer budget.
  constexpr Rect kDomain{{0.0, 0.0}, {10000.0, 10000.0}};
  MemPageStore q_store(kDefaultPageSize);
  MemPageStore p_store(kDefaultPageSize);
  BufferManager buffer(1u << 20);
  auto tq = std::move(QuadTree::Create(&q_store, &buffer, kDomain).value());
  auto tp = std::move(QuadTree::Create(&p_store, &buffer, kDomain).value());
  for (const PointRecord& r : qset) (void)tq->Insert(r);
  for (const PointRecord& r : pset) (void)tp->Insert(r);
  const uint64_t total_pages = tq->num_pages() + tp->num_pages();
  (void)buffer.Clear();
  (void)buffer.SetCapacity(
      std::max<size_t>(32, static_cast<size_t>(0.01 *
                                               static_cast<double>(
                                                   total_pages))));
  buffer.ResetStats();

  std::vector<RcjPair> quad_pairs;
  JoinStats quad_stats;
  VectorSink quad_sink(&quad_pairs);
  const auto start = std::chrono::steady_clock::now();
  const Status status = RunQuadRcj(*tq, *tp, &quad_sink, &quad_stats);
  if (!status.ok()) {
    std::fprintf(stderr, "quadtree join failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  quad_stats.cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  quad_stats.node_accesses = buffer.stats().logical_accesses;
  quad_stats.page_faults = buffer.stats().page_faults;
  quad_stats.io_seconds = IoCostModel{}.SecondsFor(buffer.stats());

  std::printf("|P| = |Q| = %zu; R-tree pages %llu, quadtree pages %llu\n\n",
              n, static_cast<unsigned long long>(env->total_tree_pages()),
              static_cast<unsigned long long>(total_pages));
  JsonReporter reporter("ablation_quadtree");
  reporter.AddMetric("workload", "n", static_cast<double>(n));
  reporter.AddMetric("workload", "rtree_pages",
                     static_cast<double>(env->total_tree_pages()));
  reporter.AddMetric("workload", "quadtree_pages",
                     static_cast<double>(total_pages));
  PrintStatsHeader();
  ReportStatsRow(&reporter, "R*-tree / INJ", rtree_run.stats);
  ReportStatsRow(&reporter, "quadtree / INJ", quad_stats);
  std::printf("\nresult sets identical: %s (%llu pairs)\n",
              quad_stats.results == rtree_run.stats.results ? "yes"
                                                            : "NO (BUG)",
              static_cast<unsigned long long>(quad_stats.results));
  reporter.Write();
  return 0;
}
