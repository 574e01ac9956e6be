// Figure 12: precision/recall of the k-NN join with respect to the RCJ
// result, as a function of k in [1, 10] (SP and LP combinations).
//
// Paper's shape: same trend as Figs. 10-11 — k is dimensionless here so
// the sweep matches the paper's axis exactly.
#include "baselines/knn_join.h"
#include "baselines/similarity.h"
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 12 - resemblance of k-NN join vs k",
              "precision falls / recall rises with k in [1, 10]", scale);

  JsonReporter reporter("fig12_knn_similarity");
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

    std::printf("\ncombination %s: |RCJ| = %zu\n", combo.name,
                reference.pairs.size());
    std::printf("%6s %12s %12s %12s\n", "k", "pairs", "precision%",
                "recall%");
    for (const size_t k : {1u, 2u, 3u, 4u, 6u, 8u, 10u}) {
      std::vector<JoinPair> pairs;
      const Status status = KnnJoin(env->tp(), env->tq(), k, &pairs);
      if (!status.ok()) {
        std::fprintf(stderr, "knn join failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      const PrecisionRecall pr = ComparePairSets(pairs, reference.pairs);
      std::printf("%6zu %12zu %12.1f %12.1f\n", k, pairs.size(),
                  pr.precision, pr.recall);
      char label[64];
      std::snprintf(label, sizeof(label), "%s / k=%zu", combo.name, k);
      reporter.AddMetric(label, "pairs", static_cast<double>(pairs.size()));
      reporter.AddMetric(label, "precision_pct", pr.precision);
      reporter.AddMetric(label, "recall_pct", pr.recall);
    }
  }
  reporter.Write();
  return 0;
}
