// Postboxes (paper Section 1): "A nice distribution would be to have post
// boxes located at centers of RCJ pairs between buildings. This is viewed
// as the self-RCJ problem, where both sets P and Q contain locations of all
// buildings."
//
//   $ ./postboxes_selfjoin [n_buildings]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/rcj.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  const size_t n_buildings =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 5000;

  const auto buildings = rcj::MakeRealSurrogate(
      rcj::RealDataset::kPopulatedPlaces, /*seed=*/21, n_buildings);

  rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
      rcj::RcjEnvironment::BuildSelf(buildings, rcj::RcjRunOptions{});
  rcj::Result<rcj::RcjRunResult> result =
      env.ok() ? env.value()->Run(rcj::QuerySpec{}) : env.status();
  if (!result.ok()) {
    std::fprintf(stderr, "self-join failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const std::vector<rcj::RcjPair>& sites = result.value().pairs;

  std::printf("postbox placement via self-RCJ\n");
  std::printf("  buildings: %zu\n", buildings.size());
  std::printf("  postbox sites (unordered building pairs): %zu\n",
              sites.size());
  std::printf("  sites per building: %.2f (the self-RCJ result is the "
              "Gabriel graph - planar, so O(n) sites)\n\n",
              static_cast<double>(sites.size()) /
                  static_cast<double>(buildings.size()));

  // Walking distance from each of the two buildings to its postbox.
  std::vector<double> walk;
  walk.reserve(sites.size());
  for (const rcj::RcjPair& pair : sites) {
    walk.push_back(pair.circle.Radius());
  }
  std::sort(walk.begin(), walk.end());
  std::printf("walking distance to the shared postbox:\n");
  std::printf("  median %.1f, p90 %.1f, max %.1f\n\n",
              walk[walk.size() / 2], walk[walk.size() * 9 / 10],
              walk.back());

  // Coverage: how many buildings have at least one postbox within 150 m?
  std::vector<char> covered(buildings.size(), 0);
  for (const rcj::RcjPair& pair : sites) {
    if (pair.circle.Radius() <= 150.0) {
      covered[static_cast<size_t>(pair.p.id)] = 1;
      covered[static_cast<size_t>(pair.q.id)] = 1;
    }
  }
  const size_t n_covered = static_cast<size_t>(
      std::count(covered.begin(), covered.end(), 1));
  std::printf("buildings with a postbox within 150 m: %zu of %zu (%.1f%%)\n",
              n_covered, buildings.size(),
              100.0 * static_cast<double>(n_covered) /
                  static_cast<double>(buildings.size()));

  std::printf("\njoin cost: %llu candidates, %llu page faults, "
              "charged I/O %.2f s, CPU %.3f s\n",
              static_cast<unsigned long long>(result.value().stats.candidates),
              static_cast<unsigned long long>(
                  result.value().stats.page_faults),
              result.value().stats.io_seconds,
              result.value().stats.cpu_seconds);
  return 0;
}
