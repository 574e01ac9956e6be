// Quickstart: the smallest end-to-end use of the ringjoin public API.
//
// Build an environment over two pointsets, describe a query with
// rcj::QuerySpec, and stream the derived "fair middleman" locations — the
// centers of the smallest enclosing circles (paper Section 1) — through a
// rcj::PairSink. The spec's `limit` makes this a top-k query: the join
// stops the moment the tenth pair has been emitted, so the first answers
// cost a fraction of the full join.
//
//   $ ./quickstart
#include <cstdio>

#include "core/rcj.h"
#include "workload/generator.h"

int main() {
  // Two small facility sets: P (e.g. cinemas) and Q (e.g. restaurants),
  // scattered over the paper's normalized [0, 10000]^2 domain.
  const std::vector<rcj::PointRecord> cinemas = rcj::GenerateUniform(
      /*n=*/60, /*seed=*/1);
  const std::vector<rcj::PointRecord> restaurants = rcj::GenerateUniform(
      /*n=*/80, /*seed=*/2);

  // One-shot setup: T_Q over restaurants, T_P over cinemas (the outer loop
  // iterates Q, matching the paper's INJ(T_Q, T_P) convention). Build
  // defaults: 1 KiB pages, shared LRU buffer of 1% of both trees.
  rcj::Result<std::unique_ptr<rcj::RcjEnvironment>> env =
      rcj::RcjEnvironment::Build(restaurants, cinemas, rcj::RcjRunOptions{});
  if (!env.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 env.status().ToString().c_str());
    return 1;
  }

  // The query: OBJ (the paper's best algorithm) and 10 ms charged per page
  // fault are the defaults; `limit` caps the stream at the first 10 pairs
  // of the serial order.
  rcj::QuerySpec spec = rcj::QuerySpec::For(env.value().get());
  spec.limit = 10;

  // The sink sees each pair the moment its leaf group is verified — print
  // them as they arrive instead of waiting for the join to finish.
  std::printf("%6s %6s %22s %10s\n", "cinema", "rest.", "middleman (x, y)",
              "radius");
  rcj::CallbackSink printer([](const rcj::RcjPair& pair) {
    std::printf("%6lld %6lld      (%7.1f, %7.1f) %10.1f\n",
                static_cast<long long>(pair.p.id),
                static_cast<long long>(pair.q.id), pair.circle.center.x,
                pair.circle.center.y, pair.circle.Radius());
    return true;  // keep streaming (the spec's limit stops the join)
  });

  rcj::JoinStats stats;
  const rcj::Status status = env.value()->Run(spec, &printer, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "join failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("\ntop-%llu stats: %llu candidates -> %llu streamed pairs, "
              "%llu node accesses, %llu page faults "
              "(charged I/O %.2f s, CPU %.3f s)\n",
              static_cast<unsigned long long>(spec.limit),
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.results),
              static_cast<unsigned long long>(stats.node_accesses),
              static_cast<unsigned long long>(stats.page_faults),
              stats.io_seconds, stats.cpu_seconds);

  // The classic materialized form is one call away when the full result
  // set is wanted: the same spec with spec.limit = 0 collects every pair.
  spec.limit = 0;
  rcj::Result<rcj::RcjRunResult> full = env.value()->Run(spec);
  if (full.ok()) {
    std::printf("full join: %zu pairs from %zu x %zu points\n",
                full.value().pairs.size(), cinemas.size(),
                restaurants.size());
  }
  return 0;
}
