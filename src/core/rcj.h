// Umbrella header: the public API of the ringjoin library.
//
//   #include "core/rcj.h"
//
//   auto env = rcj::RcjEnvironment::Build(restaurants, complexes, {});
//   auto result = env.value()->Run(rcj::QuerySpec{});   // OBJ by default
//   for (const rcj::RcjPair& pair : result.value().pairs) {
//     // pair.circle.center is the fair middleman location.
//   }
//
// Below the environment (runner.h) sit the join kernels: RunIndexJoin
// (index_join.h), the one kernel of INJ, BIJ and OBJ, built from
// Bulk_Filter (filter.h) and the verification step (verify.h); and
// BruteForceRcj (rcj_brute.h), the definitional oracle.
#ifndef RINGJOIN_CORE_RCJ_H_
#define RINGJOIN_CORE_RCJ_H_

#include "core/filter.h"      // IWYU pragma: export
#include "core/index_join.h"  // IWYU pragma: export
#include "core/pair_sink.h"   // IWYU pragma: export
#include "core/query_spec.h"  // IWYU pragma: export
#include "core/rcj_brute.h"   // IWYU pragma: export
#include "core/rcj_types.h"   // IWYU pragma: export
#include "core/runner.h"      // IWYU pragma: export
#include "core/verify.h"      // IWYU pragma: export

#endif  // RINGJOIN_CORE_RCJ_H_
