// Ablation: tree construction method (STR bulk load vs one-by-one R*
// insertion) and its effect on join cost. STR packs nodes tighter (fewer
// pages to fault) while R* insertion optimizes node overlap; this bench
// shows the join-time consequences of the build choice DESIGN.md calls
// out.
#include "bench_util.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Ablation - STR bulk load vs R* insertion",
              "build method changes page count and join I/O, not results",
              scale);

  const size_t n = scale.N(100000);
  const auto qset = GenerateUniform(n, 31);
  const auto pset = GenerateUniform(n, 32);

  JsonReporter reporter("ablation_bulkload");
  PrintStatsHeader();
  uint64_t results[2] = {0, 0};
  int i = 0;
  for (const bool bulk : {true, false}) {
    RcjRunOptions options;
    options.bulk_load = bulk;
    auto env = MustBuild(qset, pset, options);
    std::printf("%s-built trees: %llu total pages\n",
                bulk ? "STR " : "R*  ",
                static_cast<unsigned long long>(env->total_tree_pages()));
    for (const RcjAlgorithm algorithm :
         {RcjAlgorithm::kInj, RcjAlgorithm::kObj}) {
      QuerySpec spec;
      spec.algorithm = algorithm;
      const RcjRunResult run = MustRun(env.get(), spec);
      const std::string label = std::string(bulk ? "STR / " : "R*-ins / ") +
                                AlgorithmName(algorithm);
      ReportStatsRow(&reporter, label, run.stats);
      reporter.AddMetric(label, "total_tree_pages",
                         static_cast<double>(env->total_tree_pages()));
      results[i] = run.stats.results;
    }
    ++i;
  }
  std::printf("\nresult counts agree across build methods: %s\n",
              results[0] == results[1] ? "yes" : "NO (BUG)");
  reporter.Write();
  return 0;
}
