// Figure 16: scalability with the data size n (|P| = |Q| = n, uniform
// data, n in {50, 100, 200, 400, 800}K in the paper). Part (a) reports
// time, part (b) the RCJ result cardinality.
//
// Paper's shape: all three algorithms scale near-linearly; OBJ's lead
// widens with n; the result cardinality grows linearly in n.
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 16 - effect of data size n, uniform data",
              "cost scales ~linearly, OBJ lead widens; |RCJ| linear in n",
              scale);

  JsonReporter reporter("fig16_datasize");
  PrintStatsHeader();
  std::printf("\n");
  std::printf("%10s %12s %14s\n", "n", "|RCJ|", "|RCJ| / n");
  std::vector<std::pair<size_t, uint64_t>> cardinalities;

  for (const size_t paper_n :
       {50000u, 100000u, 200000u, 400000u, 800000u}) {
    const size_t n = scale.N(paper_n);
    const auto qset = GenerateUniform(n, paper_n);
    const auto pset = GenerateUniform(n, paper_n + 1);
    auto env = MustBuild(qset, pset);

    uint64_t results = 0;
    for (const RcjAlgorithm algorithm :
         {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
      QuerySpec spec;
      spec.algorithm = algorithm;
      const RcjRunResult run = MustRun(env.get(), spec);
      char label[64];
      std::snprintf(label, sizeof(label), "n=%zu / %s", n,
                    AlgorithmName(algorithm));
      ReportStatsRow(&reporter, label, run.stats);
      results = run.stats.results;
    }
    cardinalities.emplace_back(n, results);
  }

  std::printf("\nFig. 16b - result cardinality:\n");
  std::printf("%10s %12s %14s\n", "n", "|RCJ|", "|RCJ| / n");
  for (const auto& [n, results] : cardinalities) {
    std::printf("%10zu %12llu %14.3f\n", n,
                static_cast<unsigned long long>(results),
                static_cast<double>(results) / static_cast<double>(n));
    char label[64];
    std::snprintf(label, sizeof(label), "cardinality n=%zu", n);
    reporter.AddMetric(label, "rcj_size", static_cast<double>(results));
    reporter.AddMetric(label, "rcj_per_n",
                       static_cast<double>(results) /
                           static_cast<double>(n));
  }
  reporter.Write();
  return 0;
}
