// Ablation for Section 4.2 (symmetric Lemma-5 pruning, BIJ -> OBJ) across
// data distributions. The paper claims OBJ's candidate set is ~30% of
// INJ's and that its performance is robust across distributions.
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Ablation (Section 4.2) - symmetric pruning rule (BIJ vs OBJ)",
              "Lemma 5 shrinks BIJ's candidate set below INJ's; robust "
              "across distributions",
              scale);

  const size_t n = scale.N(200000);
  struct Workload {
    const char* name;
    std::vector<PointRecord> qset;
    std::vector<PointRecord> pset;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"uniform", GenerateUniform(n, 21),
                       GenerateUniform(n, 22)});
  workloads.push_back({"gauss w=5", GenerateGaussianClusters(n, 5, 1000, 23),
                       GenerateGaussianClusters(n, 5, 1000, 24)});
  workloads.push_back({"real SPsur",
                       MakeRealSurrogate(RealDataset::kSchools, 25, n),
                       MakeRealSurrogate(RealDataset::kPopulatedPlaces, 25,
                                         n)});

  JsonReporter reporter("ablation_pruning");
  PrintStatsHeader();
  for (const Workload& workload : workloads) {
    auto env = MustBuild(workload.qset, workload.pset);
    uint64_t bij_candidates = 0;
    for (const RcjAlgorithm algorithm :
         {RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
      QuerySpec spec;
      spec.algorithm = algorithm;
      const RcjRunResult run = MustRun(env.get(), spec);
      const std::string label =
          std::string(workload.name) + " / " + AlgorithmName(algorithm);
      ReportStatsRow(&reporter, label, run.stats);
      if (algorithm == RcjAlgorithm::kBij) {
        bij_candidates = run.stats.candidates;
      } else {
        const double pct = 100.0 *
                           static_cast<double>(run.stats.candidates) /
                           static_cast<double>(bij_candidates);
        std::printf("  -> OBJ candidates are %.1f%% of BIJ's\n", pct);
        reporter.AddMetric(label, "candidates_vs_bij_pct", pct);
      }
    }
  }
  reporter.Write();
  return 0;
}
