// Figure 14: cost of the RCJ algorithms with and without the verification
// step (uniform data, |P| = |Q| = 200K in the paper).
//
// Paper's shape: the difference between the two columns is small — the
// filter step discards almost everything, so verification is < 25% of the
// total cost.
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 14 - verification cost, uniform data",
              "verification accounts for under ~25% of total cost", scale);

  const size_t n = scale.N(200000);
  const auto qset = GenerateUniform(n, 1);
  const auto pset = GenerateUniform(n, 2);
  auto env = MustBuild(qset, pset);
  std::printf("|P| = |Q| = %zu\n\n", n);

  JsonReporter reporter("fig14_verification");
  PrintStatsHeader();
  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    double with_total = 0.0;
    double without_total = 0.0;
    for (const bool verify : {true, false}) {
      QuerySpec spec;
      spec.algorithm = algorithm;
      spec.verify = verify;
      const RcjRunResult run = MustRun(env.get(), spec);
      ReportStatsRow(&reporter,
                     std::string(AlgorithmName(algorithm)) +
                         (verify ? " (with verif.)" : " (no verif.)"),
                     run.stats);
      (verify ? with_total : without_total) = run.stats.total_seconds();
    }
    const double share = 100.0 * (with_total - without_total) / with_total;
    std::printf("  -> verification share of %s total: %.1f%%\n",
                AlgorithmName(algorithm), share);
    reporter.AddMetric(std::string(AlgorithmName(algorithm)) +
                           " (with verif.)",
                       "verification_share_pct", share);
  }
  reporter.Write();
  return 0;
}
