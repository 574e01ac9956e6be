// Table 4: number of candidate pairs on real data (SP, LP combinations).
//
// Paper's numbers (SP / LP): BRUTE 3.06E+10 / 2.28E+10, INJ 767570 /
// 571289, BIJ 1161214 / 1243187, OBJ 175189 / 227352, RCJ results 111763 /
// 171139. Shape to reproduce: INJ four orders of magnitude below BRUTE;
// BIJ above INJ; OBJ ~30% of INJ and close to the actual result count.
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Table 4 - candidate pairs, real-data surrogates",
              "BRUTE >> BIJ > INJ >> OBJ ~ |RCJ result|", scale);

  JsonReporter reporter("table4_candidates");
  for (const JoinCombo& combo : PaperCombos()) {
    if (std::string(combo.name) != "SP" && std::string(combo.name) != "LP") {
      continue;  // Table 4 uses SP and LP only
    }
    const auto qset = Surrogate(combo.q_kind, scale);
    const auto pset = Surrogate(combo.p_kind, scale);
    auto env = MustBuild(qset, pset);

    std::printf("\ncombination %s: |Q|=%s %zu, |P|=%s %zu\n", combo.name,
                RealDatasetName(combo.q_kind), qset.size(),
                RealDatasetName(combo.p_kind), pset.size());
    std::printf("%-10s %16s %14s\n", "algorithm", "candidates",
                "vs |P|x|Q|");

    const double cartesian = static_cast<double>(pset.size()) *
                             static_cast<double>(qset.size());
    std::printf("%-10s %16.3E %14s\n", "BRUTE", cartesian, "1");
    reporter.AddMetric(std::string(combo.name) + " / BRUTE", "candidates",
                       cartesian);

    uint64_t results = 0;
    for (const RcjAlgorithm algorithm :
         {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
      QuerySpec spec;
      spec.algorithm = algorithm;
      const RcjRunResult run = MustRun(env.get(), spec);
      std::printf("%-10s %16llu %13.2E\n", AlgorithmName(algorithm),
                  static_cast<unsigned long long>(run.stats.candidates),
                  static_cast<double>(run.stats.candidates) / cartesian);
      const std::string label =
          std::string(combo.name) + " / " + AlgorithmName(algorithm);
      reporter.AddMetric(label, "candidates",
                         static_cast<double>(run.stats.candidates));
      reporter.AddMetric(label, "vs_cartesian",
                         static_cast<double>(run.stats.candidates) /
                             cartesian);
      results = run.stats.results;
    }
    std::printf("%-10s %16llu\n", "RCJ result",
                static_cast<unsigned long long>(results));
    reporter.AddMetric(std::string(combo.name) + " / result", "rcj_size",
                       static_cast<double>(results));
  }
  reporter.Write();
  return 0;
}
