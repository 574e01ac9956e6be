// Tourist recommendation (paper Section 1): a tourist wants to visit both a
// cinema and a restaurant conveniently. The RCJ result is sorted in
// ascending order of ring diameter so the most compact cinema-restaurant
// combos come first; the tourist browses down the list.
//
//   $ ./tourist_recommendation [n_cinemas] [n_restaurants] [top_k]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/rcj.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  const size_t n_cinemas = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 800;
  const size_t n_restaurants =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 2500;
  const size_t top_k = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 10;

  const auto cinemas =
      rcj::MakeRealSurrogate(rcj::RealDataset::kLocales, /*seed=*/3,
                             n_cinemas);
  const auto restaurants = rcj::MakeRealSurrogate(
      rcj::RealDataset::kPopulatedPlaces, /*seed=*/3, n_restaurants);

  rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
      rcj::RcjEnvironment::Build(restaurants, cinemas, rcj::RcjRunOptions{});
  rcj::Result<rcj::RcjRunResult> result =
      env.ok() ? env.value()->Run(rcj::QuerySpec{}) : env.status();
  if (!result.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::vector<rcj::RcjPair> combos = std::move(result.value().pairs);

  // "The RCJ result set can be sorted in ascending order of the ring
  // diameter so as to facilitate the tourist" — smallest rings first.
  std::sort(combos.begin(), combos.end(),
            [](const rcj::RcjPair& a, const rcj::RcjPair& b) {
              return a.circle.radius2 < b.circle.radius2;
            });

  std::printf("tourist recommendation: %zu cinema-restaurant combos "
              "(%zu cinemas x %zu restaurants)\n\n",
              combos.size(), cinemas.size(), restaurants.size());
  std::printf("top %zu most compact combos (meeting point is fair to "
              "both):\n", top_k);
  std::printf("%4s %8s %8s %22s %10s\n", "#", "cinema", "rest.",
              "meet at (x, y)", "diameter");
  for (size_t i = 0; i < combos.size() && i < top_k; ++i) {
    const rcj::RcjPair& pair = combos[i];
    std::printf("%4zu %8lld %8lld      (%7.1f, %7.1f) %10.2f\n", i + 1,
                static_cast<long long>(pair.p.id),
                static_cast<long long>(pair.q.id), pair.circle.center.x,
                pair.circle.center.y, pair.circle.Diameter());
  }

  // Every recommendation is guaranteed "commercially advantaged" (paper
  // Section 1): from the meeting point, the recommended cinema and
  // restaurant are the nearest of their kind. Spot-check the best combo.
  if (!combos.empty()) {
    const rcj::RcjPair& best = combos.front();
    double nearest_cinema = 1e300;
    for (const rcj::PointRecord& c : cinemas) {
      nearest_cinema =
          std::min(nearest_cinema, rcj::Dist(best.circle.center, c.pt));
    }
    std::printf("\nbest combo check: nearest cinema from meeting point is "
                "%.2f away; recommended one is %.2f away\n",
                nearest_cinema, rcj::Dist(best.circle.center, best.p.pt));
  }
  return 0;
}
