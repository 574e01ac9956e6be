// Ablation for Section 3.4 (search order): depth-first traversal of T_Q's
// leaves exploits buffer locality; a random leaf order destroys it. The
// paper argues for DF qualitatively; this bench quantifies it across
// buffer sizes.
//
// Expected shape: random order pays substantially more page faults at
// small buffers; the gap closes as the buffer approaches the tree size.
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Ablation (Section 3.4) - leaf search order",
              "depth-first order cuts page faults vs random order, most at "
              "small buffers",
              scale);

  const size_t n = scale.N(100000);
  const auto qset = GenerateUniform(n, 11);
  const auto pset = GenerateUniform(n, 12);
  auto env = MustBuild(qset, pset);
  std::printf("|P| = |Q| = %zu, INJ algorithm\n\n", n);

  JsonReporter reporter("ablation_search_order");
  PrintStatsHeader();
  for (const double percent : {0.5, 1.0, 5.0}) {
    const Status status = env->SetBufferFraction(percent / 100.0);
    if (!status.ok()) {
      std::fprintf(stderr, "buffer resize failed\n");
      return 1;
    }
    uint64_t faults[2] = {0, 0};
    int i = 0;
    std::string random_label;
    for (const SearchOrder order :
         {SearchOrder::kDepthFirst, SearchOrder::kRandom}) {
      QuerySpec spec;
      spec.algorithm = RcjAlgorithm::kInj;
      spec.order = order;
      const RcjRunResult run = MustRun(env.get(), spec);
      char label[64];
      std::snprintf(label, sizeof(label), "buf %.1f%% / %s", percent,
                    order == SearchOrder::kDepthFirst ? "depth-first"
                                                      : "random");
      ReportStatsRow(&reporter, label, run.stats);
      if (order == SearchOrder::kRandom) random_label = label;
      faults[i++] = run.stats.page_faults;
    }
    const double fault_ratio = static_cast<double>(faults[1]) /
                               static_cast<double>(faults[0]);
    std::printf("  -> random order pays %.2fx the page faults of "
                "depth-first\n",
                fault_ratio);
    reporter.AddMetric(random_label, "fault_ratio_vs_depth_first",
                       fault_ratio);
  }
  reporter.Write();
  return 0;
}
