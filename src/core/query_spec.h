// QuerySpec — the validated description of one RCJ query.
//
// An environment's structure is fixed when it is built (RcjRunOptions:
// page size, buffer sizing, bulk loading, storage). Everything a query
// chooses — algorithm, search order, verification, the I/O charge per
// fault, a result limit, a deadline — is a QuerySpec, the one description
// every layer (serial runner, engine, service, wire, live snapshots)
// executes. It is bound to the environment it runs against and has an
// explicit Validate() so malformed queries fail fast with a Status instead
// of being silently reinterpreted.
#ifndef RINGJOIN_CORE_QUERY_SPEC_H_
#define RINGJOIN_CORE_QUERY_SPEC_H_

#include <chrono>
#include <cstdint>

#include "common/status.h"
#include "core/rcj_types.h"

namespace rcj {

class RcjEnvironment;
class StopToken;
struct DeltaOverlay;

namespace obs {
class TraceContext;
}  // namespace obs

/// One query: which environment to join, which algorithm and knobs to use,
/// and how much of the result stream the caller wants. Plain aggregate —
/// fill the fields, then Validate() before (or let the execution layer
/// validate at) submission.
struct QuerySpec {
  /// The built environment to run against. Must outlive the query's
  /// execution; the executing layer treats it as strictly read-only.
  const RcjEnvironment* env = nullptr;

  /// Pending mutations to merge into the base environment's result (null
  /// for the classic static query). Set by a live environment's snapshot
  /// (src/live/); the overlay must outlive the query's execution, and its
  /// self_join flag must match the environment's. The merged stream keeps
  /// every serial-order guarantee: base leaves first (tombstoned points
  /// skipped), then the delta records in insertion order.
  const DeltaOverlay* overlay = nullptr;

  RcjAlgorithm algorithm = RcjAlgorithm::kObj;
  SearchOrder order = SearchOrder::kDepthFirst;
  /// Disable to measure the filter step alone (paper Fig. 14).
  bool verify = true;
  /// Shuffle seed for SearchOrder::kRandom.
  uint64_t random_seed = 42;

  /// Stop after this many pairs (0 = unlimited). The pairs delivered are
  /// exactly the length-`limit` prefix of the full serial result stream —
  /// the top-k middleman pairs without paying for the full join.
  uint64_t limit = 0;

  /// Milliseconds charged per page fault by the paper's I/O cost model.
  double io_ms_per_fault = 10.0;

  /// Absolute end-to-end deadline on the steady clock; the
  /// default-constructed time_point means "none". Set from the wire's
  /// relative `deadline_ms` at parse time. Enforced in three places:
  /// admission sheds already-expired work with kDeadlineExceeded before
  /// it takes a slot, the engine's stop check stops an in-flight query
  /// (at a chunk claim or within a few dozen buffered pairs), and a
  /// fronting proxy budgets its retries against the remaining time.
  std::chrono::steady_clock::time_point deadline{};

  /// True when a deadline was set.
  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }

  /// True when the deadline was set and has passed at `now`.
  bool deadline_expired(std::chrono::steady_clock::time_point now) const {
    return has_deadline() && now >= deadline;
  }

  /// When non-null, every layer the query crosses records timed spans
  /// into this trace (src/obs/trace.h). Non-owning; the context must
  /// outlive the query's execution (submitters keep it until the ticket
  /// resolves). Null — the default — costs the instrumented paths nothing
  /// beyond a pointer check.
  obs::TraceContext* trace = nullptr;

  /// This query's own stop signal (core/stop_token.h), settled when the
  /// query resolves: stop it from any thread to cancel. Non-owning, like
  /// `trace`; null lets the engine use a token of its own.
  StopToken* stop = nullptr;

  /// Checks the spec describes an executable query: a bound environment,
  /// a known algorithm and search order, and a finite non-negative I/O
  /// charge. Returns the first violation as InvalidArgument.
  Status Validate() const;

  /// Convenience: a default spec bound to `env`.
  static QuerySpec For(const RcjEnvironment* env) {
    QuerySpec spec;
    spec.env = env;
    return spec;
  }
};

}  // namespace rcj

#endif  // RINGJOIN_CORE_QUERY_SPEC_H_
