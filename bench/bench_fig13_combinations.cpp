// Figure 13: execution time (decomposed into charged I/O and CPU) of INJ,
// BIJ and OBJ for the four real-data join combinations of Table 3.
//
// Paper's shape: BIJ beats INJ (bulk computation cuts node accesses), OBJ
// beats both everywhere; LP (smaller T_Q) cheaper than LP'; OBJ robust
// across combinations.
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 13 - join combinations, real-data surrogates",
              "OBJ < BIJ < INJ in every combination; LP < LP'", scale);

  JsonReporter reporter("fig13_combinations");
  PrintStatsHeader();
  for (const JoinCombo& combo : PaperCombos()) {
    const auto qset = Surrogate(combo.q_kind, scale);
    const auto pset = Surrogate(combo.p_kind, scale);
    auto env = MustBuild(qset, pset);
    for (const RcjAlgorithm algorithm :
         {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
      QuerySpec spec;
      spec.algorithm = algorithm;
      const RcjRunResult run = MustRun(env.get(), spec);
      ReportStatsRow(&reporter,
                     std::string(combo.name) + " / " +
                         AlgorithmName(algorithm),
                     run.stats);
    }
  }
  reporter.Write();
  return 0;
}
