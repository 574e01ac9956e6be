// The traced run's layer ladder: a seeded sample of the workload's
// operations replayed through each tier's public entry point, rung by rung,
// with the same spec on every rung. A tier's self time is its rung minus
// the rung below; every rung's stream must equal the serial rung's.
#ifndef RINGJOIN_PERFBENCH_LADDER_H_
#define RINGJOIN_PERFBENCH_LADDER_H_

#include <cstdint>

#include "harness.h"
#include "workload.h"

namespace perfbench {

/// Replays the ladder on a system that has already carried the workload's
/// load (`load`, whose ledgers feed the counter rows) and adds every
/// per-layer metric to `metrics`. Stream mismatches count in `*failed`;
/// every checked operation counts in `*attempted`.
rcj::Status RunLadder(System* system, const Oracle& oracle,
                      const LoadResult& load, uint64_t seed, SpanLog* spans,
                      MetricSet* metrics, uint64_t* attempted,
                      uint64_t* failed);

}  // namespace perfbench

#endif  // RINGJOIN_PERFBENCH_LADDER_H_
