// School bus stops (paper Section 1): a bus company places stops at RCJ
// centers between residential estates, then sorts the result set in
// descending order of the number of children in the two estates of each
// pair, so the most valuable stops surface first.
//
//   $ ./school_bus_stops [n_estates]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>

#include "core/rcj.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  const size_t n_estates = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 3000;

  const auto estates = rcj::MakeRealSurrogate(rcj::RealDataset::kSchools,
                                              /*seed=*/31, n_estates);
  // Estate sizes: number of children per estate (attribute data joined by
  // point id; log-normal household counts).
  std::mt19937_64 rng(31);
  std::lognormal_distribution<double> size_dist(3.5, 0.8);
  std::vector<int> children(estates.size());
  for (size_t i = 0; i < estates.size(); ++i) {
    children[i] = static_cast<int>(size_dist(rng)) + 1;
  }

  rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
      rcj::RcjEnvironment::BuildSelf(estates, rcj::RcjRunOptions{});
  rcj::Result<rcj::RcjRunResult> result =
      env.ok() ? env.value()->Run(rcj::QuerySpec{}) : env.status();
  if (!result.ok()) {
    std::fprintf(stderr, "self-join failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::vector<rcj::RcjPair> stops = std::move(result.value().pairs);

  // "sorted in descending order of the number of children in the
  // residential estates associated with the RCJ pair".
  auto pair_children = [&children](const rcj::RcjPair& pair) {
    return children[static_cast<size_t>(pair.p.id)] +
           children[static_cast<size_t>(pair.q.id)];
  };
  std::sort(stops.begin(), stops.end(),
            [&](const rcj::RcjPair& a, const rcj::RcjPair& b) {
              return pair_children(a) > pair_children(b);
            });

  std::printf("school bus stop planning: %zu estates, %zu candidate stops\n\n",
              estates.size(), stops.size());
  std::printf("top 10 stops by children served:\n");
  std::printf("%4s %22s %9s %9s %10s\n", "#", "stop at (x, y)", "estate A",
              "estate B", "children");
  for (size_t i = 0; i < stops.size() && i < 10; ++i) {
    const rcj::RcjPair& pair = stops[i];
    std::printf("%4zu      (%7.1f, %7.1f) %9lld %9lld %10d\n", i + 1,
                pair.circle.center.x, pair.circle.center.y,
                static_cast<long long>(pair.p.id),
                static_cast<long long>(pair.q.id), pair_children(pair));
  }

  // Fleet planning: children reachable with the first k stops (greedy,
  // each estate counted once).
  std::vector<char> counted(estates.size(), 0);
  long long reachable = 0;
  size_t used = 0;
  for (const rcj::RcjPair& pair : stops) {
    if (used >= 100) break;
    bool useful = false;
    for (const rcj::PointId id : {pair.p.id, pair.q.id}) {
      if (!counted[static_cast<size_t>(id)]) {
        counted[static_cast<size_t>(id)] = 1;
        reachable += children[static_cast<size_t>(id)];
        useful = true;
      }
    }
    if (useful) ++used;
  }
  long long total = 0;
  for (const int c : children) total += c;
  std::printf("\nfirst %zu stops serve %lld of %lld children (%.1f%%)\n",
              used, reachable, total,
              100.0 * static_cast<double>(reachable) /
                  static_cast<double>(total));
  return 0;
}
