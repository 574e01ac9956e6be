// Figure 11: precision/recall of the k-closest-pairs join with respect to
// the RCJ result, as a function of k (SP and LP combinations).
//
// Paper's shape: same as Fig. 10 — small k gives high precision / low
// recall, large k the reverse; even k tuned to |RCJ| resembles RCJ poorly.
// The paper sweeps k up to ~1.2E5 (SP) / 2E5 (LP), i.e. around |RCJ|;
// here k is expressed as a fraction of the measured |RCJ| so the sweep is
// scale-independent.
#include "baselines/k_closest_pairs.h"
#include "baselines/similarity.h"
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 11 - resemblance of k-closest-pairs vs k",
              "precision falls / recall rises with k; poor resemblance "
              "even at k ~ |RCJ|",
              scale);

  JsonReporter reporter("fig11_kcp_similarity");
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
    const size_t rcj_size = reference.pairs.size();

    std::printf("\ncombination %s: |RCJ| = %zu\n", combo.name, rcj_size);
    std::printf("%14s %10s %12s %12s\n", "k (x |RCJ|)", "k", "precision%",
                "recall%");
    for (const double fraction : {0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.6}) {
      const size_t k = static_cast<size_t>(
          fraction * static_cast<double>(rcj_size));
      if (k == 0) continue;
      std::vector<JoinPair> pairs;
      const Status status = KClosestPairs(env->tp(), env->tq(), k, &pairs);
      if (!status.ok()) {
        std::fprintf(stderr, "k-closest-pairs failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      const PrecisionRecall pr = ComparePairSets(pairs, reference.pairs);
      std::printf("%14.2f %10zu %12.1f %12.1f\n", fraction, k, pr.precision,
                  pr.recall);
      char label[64];
      std::snprintf(label, sizeof(label), "%s / k=%.2fx|RCJ|", combo.name,
                    fraction);
      reporter.AddMetric(label, "k", static_cast<double>(k));
      reporter.AddMetric(label, "precision_pct", pr.precision);
      reporter.AddMetric(label, "recall_pct", pr.recall);
    }
  }
  reporter.Write();
  return 0;
}
