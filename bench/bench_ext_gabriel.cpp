// Extension bench: the in-memory computational-geometry alternative.
// RCJ(P, Q) equals the bichromatic Gabriel edges of P ∪ Q, so when both
// datasets fit in memory a Delaunay-based pipeline competes with the
// disk-aware OBJ. This bench contrasts the two regimes: OBJ's cost is
// charged I/O + CPU on 1%-buffered trees; the Gabriel oracle is pure CPU.
#include <chrono>

#include "bench_util.h"
#include "extensions/gabriel.h"

using namespace rcj;
using namespace rcj::bench;

int main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Extension - Gabriel-graph oracle vs OBJ",
              "identical results; different cost regimes (in-memory CPU vs "
              "buffered disk)",
              scale);

  JsonReporter reporter("ext_gabriel");
  std::printf("%10s %10s %14s %14s %14s %8s\n", "n", "|RCJ|", "OBJ I/O(s)",
              "OBJ CPU(s)", "Gabriel CPU(s)", "match");
  for (const size_t paper_n : {25000u, 50000u, 100000u}) {
    const size_t n = scale.N(paper_n);
    const auto qset = GenerateUniform(n, 41);
    const auto pset = GenerateUniform(n, 42);

    auto env = MustBuild(qset, pset);
    QuerySpec spec;
    spec.algorithm = RcjAlgorithm::kObj;
    const RcjRunResult obj = MustRun(env.get(), spec);

    const auto start = std::chrono::steady_clock::now();
    const std::vector<RcjPair> oracle = GabrielRcj(pset, qset);
    const double gabriel_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    std::printf("%10zu %10zu %14.2f %14.3f %14.3f %8s\n", n,
                obj.pairs.size(), obj.stats.io_seconds,
                obj.stats.cpu_seconds, gabriel_seconds,
                obj.pairs.size() == oracle.size() ? "yes" : "NO");
    char label[32];
    std::snprintf(label, sizeof(label), "n=%zu", n);
    reporter.AddStats(label, obj.stats);
    reporter.AddMetric(label, "gabriel_cpu_seconds", gabriel_seconds);
    reporter.AddMetric(label, "match",
                       obj.pairs.size() == oracle.size() ? 1.0 : 0.0);
  }
  reporter.Write();
  std::printf("\nnote: the Delaunay implementation is an O(n^2)-class "
              "oracle built for correctness, not speed; the comparison "
              "illustrates the cost *model* difference, not a race.\n");
  return 0;
}
