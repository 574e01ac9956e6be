// Figure 17: effect of the cardinality ratio |P| : |Q| with |P| + |Q| =
// 400K fixed (uniform data; ratios 1:4, 1:2, 1:1, 2:1, 4:1). Part (a)
// time, part (b) result cardinality.
//
// Paper's shape: cost falls as the ratio grows (smaller Q means fewer
// filter/verification invocations); OBJ stays stable; the result size is
// maximized at 1:1.
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 17 - effect of cardinality ratio |P|:|Q|",
              "cost falls with |P|:|Q| (smaller Q); |RCJ| peaks at 1:1",
              scale);

  const size_t total = scale.N(400000);
  struct Ratio {
    const char* name;
    double p_share;
  };
  const Ratio ratios[] = {{"1:4", 0.2}, {"1:2", 1.0 / 3.0}, {"1:1", 0.5},
                          {"2:1", 2.0 / 3.0}, {"4:1", 0.8}};

  JsonReporter reporter("fig17_ratio");
  PrintStatsHeader();
  std::vector<std::pair<const char*, uint64_t>> cardinalities;
  for (const Ratio& ratio : ratios) {
    const size_t p_n = static_cast<size_t>(ratio.p_share *
                                           static_cast<double>(total));
    const size_t q_n = total - p_n;
    const auto pset = GenerateUniform(p_n, 5);
    const auto qset = GenerateUniform(q_n, 6);
    auto env = MustBuild(qset, pset);

    uint64_t results = 0;
    for (const RcjAlgorithm algorithm :
         {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
      QuerySpec spec;
      spec.algorithm = algorithm;
      const RcjRunResult run = MustRun(env.get(), spec);
      char label[64];
      std::snprintf(label, sizeof(label), "%s / %s", ratio.name,
                    AlgorithmName(algorithm));
      ReportStatsRow(&reporter, label, run.stats);
      results = run.stats.results;
    }
    cardinalities.emplace_back(ratio.name, results);
  }

  std::printf("\nFig. 17b - result cardinality (|P|+|Q| = %zu):\n", total);
  std::printf("%8s %12s\n", "ratio", "|RCJ|");
  for (const auto& [name, results] : cardinalities) {
    std::printf("%8s %12llu\n", name,
                static_cast<unsigned long long>(results));
    reporter.AddMetric(std::string("cardinality ") + name, "rcj_size",
                       static_cast<double>(results));
  }
  reporter.Write();
  return 0;
}
