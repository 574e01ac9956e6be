// The delta layer of a live environment (src/live/): everything a merged
// query needs to see mutations that happened after the base trees were
// STR-packed.
//
// A DeltaOverlay is one immutable version of the pending mutations — fresh
// inserts per side (in insertion order, the tail of the merged serial
// stream) and tombstoned base-point ids. LiveEnvironment publishes a new
// version on every mutation (copy-on-write when snapshots still reference
// the old one), so a query holding an overlay pointer sees a frozen epoch
// while mutations continue.
//
// Soundness under deletions is the subtle part. Deleting a point can
// *resurrect* pairs the base join never emitted (the deleted point was the
// witness that invalidated them), so the merged path cannot filter the
// static stream — the index-join kernel (core/index_join.h) re-runs the
// paper's filter/verify with tombstones excluded everywhere a point could
// act as evidence:
//
//   * Filter pruning anchors must be live: BulkFilterCandidates takes the
//     tombstone set and never reports or anchors on a dead point (a live
//     anchor genuinely invalidates the pairs it prunes, so Lemma-1/3
//     pruning stays exact).
//   * Verification's MBR face rule is unsound once points are excluded
//     (the face-certified witness might be the dead one), so
//     VerifyCandidates descends instead whenever a tombstone set is given.
//
// The delta lists themselves are small (compaction folds them into a fresh
// base) and RAM-resident; the kernel probes them with flat-array forms of
// Algorithms 2 and 3, outside the paper's buffer-pool I/O accounting.
#ifndef RINGJOIN_CORE_DELTA_OVERLAY_H_
#define RINGJOIN_CORE_DELTA_OVERLAY_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/rcj_types.h"

namespace rcj {

/// Which logical dataset of a live environment a mutation targets. A
/// self-join environment has one dataset; both names address it.
enum class LiveSide {
  kQ,
  kP,
};

/// Wire/CLI spelling ("q" / "p").
const char* LiveSideName(LiveSide side);

/// Parses "q" / "p"; returns false on anything else.
bool ParseLiveSideName(const std::string& name, LiveSide* out);

/// One immutable version of a live environment's pending mutations.
/// Published by LiveEnvironment; consumed read-only by the merged query
/// path via QuerySpec::overlay. Plain aggregate — the owning layer
/// enforces the invariants (delta records are live, ids unique per side,
/// tombstones name base points only).
struct DeltaOverlay {
  /// Mutation counter of the owning LiveEnvironment when this version was
  /// published. Monotonic across compactions.
  uint64_t epoch = 0;
  /// Mirrors the base environment; with self_join only the Q side is
  /// populated and both LiveSide names address it.
  bool self_join = false;

  /// Live inserted records, in insertion order — the order the merged
  /// serial stream visits them after the base leaves.
  std::vector<PointRecord> delta_q;
  std::vector<PointRecord> delta_p;

  /// Ids of base points that were deleted. Strictly base ids: deleting a
  /// delta record removes it from its vector instead.
  std::unordered_set<PointId> dead_q;
  std::unordered_set<PointId> dead_p;

  const std::vector<PointRecord>& delta(LiveSide side) const {
    return (side == LiveSide::kQ || self_join) ? delta_q : delta_p;
  }
  std::vector<PointRecord>& mutable_delta(LiveSide side) {
    return (side == LiveSide::kQ || self_join) ? delta_q : delta_p;
  }
  const std::unordered_set<PointId>& dead(LiveSide side) const {
    return (side == LiveSide::kQ || self_join) ? dead_q : dead_p;
  }
  std::unordered_set<PointId>& mutable_dead(LiveSide side) {
    return (side == LiveSide::kQ || self_join) ? dead_q : dead_p;
  }

  /// The tombstone set in the form the filter/verify steps take: null when
  /// empty, which keeps the static fast paths (MBR face rule) enabled.
  const std::unordered_set<PointId>* dead_or_null(LiveSide side) const {
    const std::unordered_set<PointId>& d = dead(side);
    return d.empty() ? nullptr : &d;
  }

  bool empty() const {
    return delta_q.empty() && delta_p.empty() && dead_q.empty() &&
           dead_p.empty();
  }

  /// Pending mutation volume — the auto-compaction trigger.
  uint64_t pending() const {
    return delta_q.size() + delta_p.size() + tombstones();
  }
  uint64_t tombstones() const {
    return self_join ? dead_q.size() : dead_q.size() + dead_p.size();
  }
};

/// The live membership of one side as a plain vector: `base` in its
/// original order minus tombstones, then the delta records in insertion
/// order. What BRUTE joins directly, and what compaction bulk-loads into
/// the replacement base.
std::vector<PointRecord> EffectivePointset(
    const std::vector<PointRecord>& base, const DeltaOverlay& overlay,
    LiveSide side);

}  // namespace rcj

#endif  // RINGJOIN_CORE_DELTA_OVERLAY_H_
