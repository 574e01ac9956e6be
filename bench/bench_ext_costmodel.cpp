// Extension (paper Section 6, future work #1): an I/O cost model for the
// RCJ algorithms, calibrated on two small runs and validated against
// measured node accesses at larger sizes. The model is
//   accesses = |Q| * (a + b * height(T_P))
// — see extensions/cost_estimator.h for the derivation.
#include "bench_util.h"
#include "extensions/cost_estimator.h"

using namespace rcj;
using namespace rcj::bench;

namespace {

CostSample Measure(RcjAlgorithm algorithm, size_t n, uint64_t seed) {
  const auto qset = GenerateUniform(n, seed);
  const auto pset = GenerateUniform(n, seed + 1);
  RcjRunOptions options;
  options.buffer_fraction = 1.0;  // cost model targets logical accesses
  auto env = MustBuild(qset, pset, options);
  QuerySpec spec;
  spec.algorithm = algorithm;
  const RcjRunResult run = MustRun(env.get(), spec);
  CostSample sample;
  sample.q_size = qset.size();
  sample.tp_height = env->tp().height();
  sample.node_accesses = run.stats.node_accesses;
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Extension (Section 6) - calibrated I/O cost model",
              "accesses = |Q| * (a + b*height); calibrate small, predict "
              "large within ~15%",
              scale);

  JsonReporter reporter("ext_costmodel");
  for (const RcjAlgorithm algorithm :
       {RcjAlgorithm::kInj, RcjAlgorithm::kObj}) {
    // Calibrate on two cheap runs whose trees have different heights.
    const CostSample s1 = Measure(algorithm, 2000, 91);
    const CostSample s2 = Measure(algorithm, 20000, 92);
    const CostModelFit fit = FitCostModel(s1, s2);
    std::printf("\n%s: calibrated on n=%llu (h=%u) and n=%llu (h=%u) -> "
                "accesses/query = %.2f + %.2f*height\n",
                AlgorithmName(algorithm),
                static_cast<unsigned long long>(s1.q_size), s1.tp_height,
                static_cast<unsigned long long>(s2.q_size), s2.tp_height,
                fit.a, fit.b);

    std::printf("%10s %8s %16s %16s %9s\n", "n", "height", "predicted",
                "measured", "error%");
    for (const size_t paper_n : {300000u, 500000u, 800000u}) {
      const size_t n = scale.N(paper_n);
      const CostSample actual = Measure(algorithm, n, 93 + n);
      const double predicted =
          PredictNodeAccesses(fit, actual.q_size, actual.tp_height);
      const double error =
          100.0 * (predicted - static_cast<double>(actual.node_accesses)) /
          static_cast<double>(actual.node_accesses);
      std::printf("%10zu %8u %16.0f %16llu %8.1f%%\n", n, actual.tp_height,
                  predicted,
                  static_cast<unsigned long long>(actual.node_accesses),
                  error);
      char label[64];
      std::snprintf(label, sizeof(label), "%s / n=%zu",
                    AlgorithmName(algorithm), n);
      reporter.AddMetric(label, "predicted_accesses", predicted);
      reporter.AddMetric(label, "measured_accesses",
                         static_cast<double>(actual.node_accesses));
      reporter.AddMetric(label, "error_pct", error);
    }
  }
  reporter.Write();
  std::printf("\nnote: the model predicts logical node accesses (the "
              "paper's CPU proxy); fault counts additionally depend on the "
              "buffer size and access locality.\n");
  return 0;
}
