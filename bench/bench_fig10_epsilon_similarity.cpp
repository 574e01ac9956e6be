// Figure 10: precision/recall of the ε-range join result set with respect
// to the RCJ result set, as a function of ε (SP and LP combinations).
//
// Paper's shape: precision falls and recall rises with ε; no single ε
// achieves both. The paper sweeps ε in [0, 10] on datasets of ~170K points
// in a [0, 10000]^2 domain; at reduced scale the same geometric regime is
// preserved by stretching ε with the square root of the density ratio.
#include <cmath>

#include "baselines/epsilon_join.h"
#include "baselines/similarity.h"
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 10 - resemblance of eps-range join vs eps",
              "precision falls / recall rises with eps; no eps wins both",
              scale);

  JsonReporter reporter("fig10_epsilon_similarity");
  for (const JoinCombo& combo : PaperCombos()) {
    if (std::string(combo.name) != "SP" && std::string(combo.name) != "LP") {
      continue;
    }
    const auto qset = Surrogate(combo.q_kind, scale);
    const auto pset = Surrogate(combo.p_kind, scale);
    auto env = MustBuild(qset, pset);

    QuerySpec spec;
    spec.algorithm = RcjAlgorithm::kObj;
    const RcjRunResult reference = MustRun(env.get(), spec);

    // Density-matched sweep: at the paper's ~172K cardinality the grid is
    // eps in {1..10}; with n points the same neighborhood scale needs
    // eps * sqrt(172188 / n).
    const double density_stretch =
        std::sqrt(172188.0 / static_cast<double>(qset.size()));

    std::printf("\ncombination %s: |RCJ| = %zu, eps stretched %.2fx\n",
                combo.name, reference.pairs.size(), density_stretch);
    std::printf("%12s %12s %12s %12s\n", "eps(paper)", "pairs", "precision%",
                "recall%");
    for (const double paper_eps :
         {0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0}) {
      const double eps = paper_eps * density_stretch;
      std::vector<JoinPair> pairs;
      const Status status = EpsilonJoin(env->tp(), env->tq(), eps, &pairs);
      if (!status.ok()) {
        std::fprintf(stderr, "epsilon join failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      const PrecisionRecall pr = ComparePairSets(pairs, reference.pairs);
      std::printf("%12.1f %12zu %12.1f %12.1f\n", paper_eps, pairs.size(),
                  pr.precision, pr.recall);
      char label[64];
      std::snprintf(label, sizeof(label), "%s / eps=%.2f", combo.name,
                    paper_eps);
      reporter.AddMetric(label, "pairs", static_cast<double>(pairs.size()));
      reporter.AddMetric(label, "precision_pct", pr.precision);
      reporter.AddMetric(label, "recall_pct", pr.recall);
    }
  }
  reporter.Write();
  return 0;
}
