// Figure 18: effect of the number of Gaussian clusters w (|P| = |Q| =
// 200K in the paper, sigma = 1000, w in {2, 5, 10, 15, 20}). Part (a)
// time, part (b) result cardinality.
//
// Paper's shape: OBJ outperforms and is least sensitive to skew; the
// result size grows with w and then stabilizes as the data approaches
// uniformity.
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 18 - effect of number of clusters w, Gaussian data",
              "OBJ least sensitive to skew; |RCJ| rises then stabilizes",
              scale);

  const size_t n = scale.N(200000);
  JsonReporter reporter("fig18_clusters");
  PrintStatsHeader();
  std::vector<std::pair<size_t, double>> cardinalities;
  for (const size_t w : {2u, 5u, 10u, 15u, 20u}) {
    // Time rows: one seed pair, all three algorithms.
    {
      const auto qset = GenerateGaussianClusters(n, w, 1000.0, 7 + w);
      const auto pset = GenerateGaussianClusters(n, w, 1000.0, 107 + w);
      auto env = MustBuild(qset, pset);
      for (const RcjAlgorithm algorithm :
           {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
        QuerySpec spec;
        spec.algorithm = algorithm;
        const RcjRunResult run = MustRun(env.get(), spec);
        char label[64];
        std::snprintf(label, sizeof(label), "w=%-3zu / %s", w,
                      AlgorithmName(algorithm));
        ReportStatsRow(&reporter, label, run.stats);
      }
    }
    // Cardinality: cluster placement is random, so average over seeds
    // (small w has few clusters and correspondingly high variance).
    double mean_results = 0.0;
    const int kSeeds = 3;
    for (int s = 0; s < kSeeds; ++s) {
      const auto qset =
          GenerateGaussianClusters(n, w, 1000.0, 7 + w + 1000u * s);
      const auto pset =
          GenerateGaussianClusters(n, w, 1000.0, 107 + w + 1000u * s);
      auto env = MustBuild(qset, pset);
      QuerySpec spec;
      spec.algorithm = RcjAlgorithm::kObj;
      const RcjRunResult run = MustRun(env.get(), spec);
      mean_results += static_cast<double>(run.stats.results);
    }
    cardinalities.emplace_back(w, mean_results / kSeeds);
  }

  std::printf("\nFig. 18b - result cardinality (|P| = |Q| = %zu, mean of 3 "
              "seeds):\n", n);
  std::printf("%8s %12s\n", "w", "|RCJ|");
  for (const auto& [w, results] : cardinalities) {
    std::printf("%8zu %12.0f\n", w, results);
    char label[64];
    std::snprintf(label, sizeof(label), "cardinality w=%zu", w);
    reporter.AddMetric(label, "rcj_size_mean", results);
  }
  reporter.Write();
  return 0;
}
