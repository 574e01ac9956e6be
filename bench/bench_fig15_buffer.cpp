// Figure 15: effect of the shared buffer size (as a fraction of the total
// tree sizes) on the cost of INJ / BIJ / OBJ (uniform data, 200K each in
// the paper; buffer in {0.2, 0.5, 1, 2, 5}%).
//
// Paper's shape: I/O time falls as the buffer grows; OBJ wins everywhere,
// and its lead widens at small buffers.
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 15 - effect of buffer size, uniform data",
              "I/O falls with buffer; OBJ leads, most at small buffers",
              scale);

  // Larger base so sub-1% buffers stay above the floor.
  const size_t n = scale.N(800000);
  const auto qset = GenerateUniform(n, 3);
  const auto pset = GenerateUniform(n, 4);
  auto env = MustBuild(qset, pset);
  std::printf("|P| = |Q| = %zu, total tree pages = %llu\n\n", n,
              static_cast<unsigned long long>(env->total_tree_pages()));

  JsonReporter reporter("fig15_buffer");
  PrintStatsHeader();
  for (const double percent : {0.2, 0.5, 1.0, 2.0, 5.0}) {
    const Status status =
        env->SetBufferFraction(percent / 100.0, /*min_pages=*/8);
    if (!status.ok()) {
      std::fprintf(stderr, "buffer resize failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    for (const RcjAlgorithm algorithm :
         {RcjAlgorithm::kInj, RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
      QuerySpec spec;
      spec.algorithm = algorithm;
      const RcjRunResult run = MustRun(env.get(), spec);
      char label[64];
      std::snprintf(label, sizeof(label), "buffer %.1f%% / %s", percent,
                    AlgorithmName(algorithm));
      ReportStatsRow(&reporter, label, run.stats);
    }
  }
  reporter.Write();
  return 0;
}
