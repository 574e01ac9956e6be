// Recycling stations (paper Section 1, first application): a city council
// wants to place recycling stations at fair locations between restaurants
// and residential complexes. Each RCJ pair yields one station site — the
// circle center — equidistant from its restaurant and complex, with no
// closer competitor of either kind.
//
//   $ ./recycling_stations [n_restaurants] [n_complexes]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/rcj.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  const size_t n_restaurants =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4000;
  const size_t n_complexes =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 3000;

  // City-like skewed data: restaurants cluster in town centers (surrogate
  // for the paper's USGS layers), residential complexes cluster around the
  // same towns with more spread.
  const auto restaurants = rcj::MakeRealSurrogate(
      rcj::RealDataset::kPopulatedPlaces, /*seed=*/11, n_restaurants);
  const auto complexes = rcj::MakeRealSurrogate(rcj::RealDataset::kSchools,
                                                /*seed=*/11, n_complexes);

  rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
      rcj::RcjEnvironment::Build(complexes, restaurants, rcj::RcjRunOptions{});
  rcj::QuerySpec spec;
  spec.algorithm = rcj::RcjAlgorithm::kObj;
  rcj::Result<rcj::RcjRunResult> result =
      env.ok() ? env.value()->Run(spec) : env.status();
  if (!result.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::vector<rcj::RcjPair> stations = std::move(result.value().pairs);

  std::printf("recycling-station planning\n");
  std::printf("  restaurants: %zu, residential complexes: %zu\n",
              restaurants.size(), complexes.size());
  std::printf("  candidate station sites (RCJ pairs): %zu\n\n",
              stations.size());

  // Service-distance distribution: the circle radius is the walking
  // distance for both parties. Dense districts get tightly-spaced
  // stations, sparse suburbs fewer, farther ones — the adaptivity the
  // paper emphasizes over epsilon-joins.
  std::vector<double> radii;
  radii.reserve(stations.size());
  for (const rcj::RcjPair& pair : stations) {
    radii.push_back(pair.circle.Radius());
  }
  std::sort(radii.begin(), radii.end());
  auto pct = [&radii](double p) {
    return radii[static_cast<size_t>(p * static_cast<double>(radii.size() - 1))];
  };
  std::printf("service distance (= circle radius) distribution:\n");
  std::printf("  min %.1f   p25 %.1f   median %.1f   p75 %.1f   p95 %.1f   "
              "max %.1f\n\n",
              radii.front(), pct(0.25), pct(0.50), pct(0.75), pct(0.95),
              radii.back());

  // The council only builds stations with service distance under 250 m
  // (2.5% of the 10 km domain) — count how many qualify.
  const double kMaxService = 250.0;
  const size_t buildable = static_cast<size_t>(
      std::lower_bound(radii.begin(), radii.end(), kMaxService) -
      radii.begin());
  std::printf("stations with service distance < %.0f m: %zu (%.1f%%)\n",
              kMaxService, buildable,
              100.0 * static_cast<double>(buildable) /
                  static_cast<double>(radii.size()));

  std::printf("\nfirst five station sites:\n");
  for (size_t i = 0; i < stations.size() && i < 5; ++i) {
    const rcj::RcjPair& pair = stations[i];
    std::printf("  station at (%7.1f, %7.1f): restaurant %lld <-> complex "
                "%lld, service distance %.1f\n",
                pair.circle.center.x, pair.circle.center.y,
                static_cast<long long>(pair.p.id),
                static_cast<long long>(pair.q.id), pair.circle.Radius());
  }
  return 0;
}
