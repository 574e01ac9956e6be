// AdmissionController — bounded admission for the sharded serving layer.
//
// The engine queues every Submit() unboundedly: under sustained
// overload the backlog (and every caller's latency) grows without limit.
// The admission controller is the valve in front of it. Each query takes
// one slot on its shard at submission and returns it when its ticket
// resolves; when the shard's slot budget or the global in-flight budget is
// exhausted, the submission is shed immediately with
// StatusCode::kOverloaded instead of queueing — the caller learns in
// microseconds that it should retry or go elsewhere, and admitted queries
// keep a bounded queue ahead of them.
//
// Accounting is exact, not sampled: every submission is counted exactly
// once as admitted or shed, and every admitted query exactly once as
// completed, cancelled, or failed, so the counters reconcile
// (admitted + shed == submitted) — the invariant the STATS wire command
// exposes and tests assert.
#ifndef RINGJOIN_SHARD_ADMISSION_H_
#define RINGJOIN_SHARD_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace rcj {

/// Capacity bounds enforced at submission. Zero means unbounded — the
/// pre-sharding behavior, kept as the default so embedders opt into
/// shedding deliberately.
struct AdmissionLimits {
  /// Max queries admitted-but-unresolved per shard (its bounded queue
  /// depth: waiting for the router's engine plus executing on it).
  size_t max_queue_per_shard = 0;
  /// Max queries admitted-but-unresolved across all shards.
  size_t max_inflight_total = 0;
};

class AdmissionController {
 public:
  /// One shard's admission ledger. `inflight` is the level gauge; the rest
  /// are monotonic counters.
  struct ShardCounters {
    size_t inflight = 0;      ///< admitted, ticket not yet resolved.
    uint64_t submitted = 0;   ///< TryAdmit calls (admitted + shed).
    uint64_t admitted = 0;
    uint64_t shed = 0;        ///< refused with kOverloaded.
    uint64_t completed = 0;   ///< released with an OK status.
    uint64_t cancelled = 0;   ///< released as Cancelled.
    uint64_t failed = 0;      ///< released with any other error.
  };

  AdmissionController(size_t num_shards, AdmissionLimits limits);

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(AdmissionController);

  /// Takes one slot on `shard`. OK means the slot is held until the
  /// matching Release(); Overloaded means the submission was counted as
  /// shed and no slot is held. Thread-safe.
  Status TryAdmit(size_t shard);

  /// Counts a submission whose deadline had already expired when it
  /// arrived: one submitted + one shed, no slot taken, returning the
  /// kDeadlineExceeded the caller relays. Keeps the ledger exact
  /// (admitted + shed == submitted) without charging expired work
  /// against the queue bounds.
  Status ShedExpired(size_t shard);

  /// Returns the slot taken by a successful TryAdmit, classifying the
  /// query's outcome from its final status (OK -> completed, Cancelled ->
  /// cancelled, anything else -> failed).
  void Release(size_t shard, const Status& final_status);

  ShardCounters shard_counters(size_t shard) const;
  /// Admitted-but-unresolved queries across all shards.
  size_t total_inflight() const;

  size_t num_shards() const { return shards_.size(); }
  const AdmissionLimits& limits() const { return limits_; }

 private:
  const AdmissionLimits limits_;
  mutable std::mutex mu_;
  std::vector<ShardCounters> shards_;
  size_t total_inflight_ = 0;
};

}  // namespace rcj

#endif  // RINGJOIN_SHARD_ADMISSION_H_
