// Live environments: MVCC mutation layer over the static RCJ stack.
//
// A LiveEnvironment wraps an STR-packed base RcjEnvironment with a
// DeltaOverlay (src/core/delta_overlay.h): inserts accumulate in per-side
// delta lists, deletes tombstone base points, and every mutation publishes
// a new immutable overlay version (copy-on-write when snapshots still hold
// the old one). Readers call TakeSnapshot() to get a consistent
// (base tree, overlay epoch) pair; the snapshot pins the base so
// compaction can never destroy trees a query is traversing.
//
// Compaction folds the delta into the pointsets the current base was
// packed from, bulk loads a fresh base over the result (the same
// RcjEnvironment::Build every backend uses), swaps it in under the
// environment lock, waits for the old base's pins to drain, and only
// then destroys the old trees. The new base has a new generation, so no
// engine cache entry of the old one is ever used again; such an entry
// ages out of its engine's LRU. Mutations and queries proceed
// concurrently with the rebuild — the only blocking window is the O(1)
// pointer swap.
//
// Thread safety: every public method is safe to call concurrently.
// Snapshots are value types; they may outlive the LiveEnvironment (they
// keep the pinned base and overlay version alive).
#ifndef RINGJOIN_LIVE_LIVE_ENVIRONMENT_H_
#define RINGJOIN_LIVE_LIVE_ENVIRONMENT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "core/delta_overlay.h"
#include "core/query_spec.h"
#include "core/runner.h"

namespace rcj {

class MutationLog;
struct WalRecovery;

namespace live_internal {

/// One base environment plus its pin count. Snapshots hold it via
/// shared_ptr, so a retired base outlives the LiveEnvironment if a
/// snapshot does; compaction waits for pins to drain before destroying
/// the trees.
struct BaseState {
  std::unique_ptr<RcjEnvironment> env;
  std::mutex mu;
  std::condition_variable cv;
  size_t pins = 0;
};

/// RAII pin on a BaseState (one per snapshot version, shared by copies).
struct Pin {
  explicit Pin(std::shared_ptr<BaseState> base);
  ~Pin();
  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(Pin);
  std::shared_ptr<BaseState> base;
};

}  // namespace live_internal

/// Construction-time knobs of a live environment.
struct LiveOptions {
  /// How base environments are built — at Create() and again at every
  /// compaction (same backend, storage_dir, page size, buffer sizing).
  RcjRunOptions build;
  /// When > 0, a background thread compacts as soon as the overlay's
  /// pending() (delta records + tombstones) reaches this many mutations.
  /// 0 = manual Compact() only.
  size_t compact_threshold = 0;
  /// Starting mutation epoch. 0 for a fresh environment; WAL recovery
  /// passes the recovered snapshot's epoch so replayed mutations repeat
  /// their original epoch numbers exactly.
  uint64_t initial_epoch = 0;
};

/// A point-in-time view of LiveEnvironment counters (see STATS on the
/// wire).
struct LiveStats {
  uint64_t epoch = 0;        ///< mutations applied since Create().
  uint64_t generation = 0;   ///< current base's RcjEnvironment generation.
  uint64_t compactions = 0;  ///< compactions completed.
  uint64_t delta_size = 0;   ///< pending inserted records (both sides).
  uint64_t tombstones = 0;   ///< pending deleted base ids (both sides).
  uint64_t base_q = 0;       ///< points packed into the current base T_Q.
  uint64_t base_p = 0;       ///< points packed into the current base T_P.
};

/// A consistent read view: one pinned base environment plus one frozen
/// overlay version. Copyable value type; copies share the pin. Queries
/// built from Spec() keep every determinism guarantee of the static
/// stack — the merged stream is identical across the serial runner and
/// any engine thread count.
class LiveSnapshot {
 public:
  LiveSnapshot() = default;

  /// The pinned base. Valid as long as any copy of this snapshot lives.
  const RcjEnvironment* env() const { return pin_->base->env.get(); }

  /// The frozen overlay version, or null when there are no pending
  /// mutations (queries then take the pure static path).
  const DeltaOverlay* overlay() const {
    return overlay_ != nullptr && !overlay_->empty() ? overlay_.get()
                                                     : nullptr;
  }

  /// Mutation epoch this snapshot observes.
  uint64_t epoch() const {
    return overlay_ != nullptr ? overlay_->epoch : 0;
  }

  /// A QuerySpec bound to the pinned base with the overlay attached.
  QuerySpec Spec() const {
    QuerySpec spec = QuerySpec::For(env());
    spec.overlay = overlay();
    return spec;
  }

  /// Serial merged execution against the pinned base (the streaming
  /// primary of RcjEnvironment::Run, same cold-buffer semantics). Serial
  /// runs share the base's buffer, so at most one may execute at a time —
  /// concurrent readers go through the engine, which opens private views.
  Status Run(const QuerySpec& spec, PairSink* sink, JoinStats* stats) const {
    return pin_->base->env->Run(spec, sink, stats);
  }

  /// Collecting convenience over the streaming serial run.
  Result<RcjRunResult> Run(const QuerySpec& spec) const {
    return pin_->base->env->Run(spec);
  }

 private:
  friend class LiveEnvironment;
  std::shared_ptr<live_internal::Pin> pin_;
  std::shared_ptr<const DeltaOverlay> overlay_;
};

class LiveEnvironment {
 public:
  /// Builds a live two-dataset environment over `qset`/`pset`. Point ids
  /// must be unique within each side (and valid); mutations rely on it.
  /// Empty sides are fine — a pure-delta environment starts from empty
  /// base trees.
  static Result<std::unique_ptr<LiveEnvironment>> Create(
      const std::vector<PointRecord>& qset,
      const std::vector<PointRecord>& pset, const LiveOptions& options);

  /// Self-join flavour (one dataset; both LiveSide names address it).
  static Result<std::unique_ptr<LiveEnvironment>> CreateSelf(
      const std::vector<PointRecord>& set, const LiveOptions& options);

  /// Stops the background compactor. Outstanding snapshots stay valid —
  /// they own what they pinned.
  ~LiveEnvironment();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(LiveEnvironment);

  /// Inserts a new live point. InvalidArgument if the id is invalid or
  /// already live on that side. O(1); publishes a new overlay epoch.
  Status Insert(LiveSide side, const PointRecord& rec);

  /// Deletes a live point by id: a delta record is dropped from its list,
  /// a base point is tombstoned. NotFound if the id is not live.
  Status Delete(LiveSide side, PointId id);

  /// Synchronous compaction barrier: folds every mutation applied before
  /// the call into a freshly bulk-loaded base, retires the old one (after
  /// its reader pins drain), and returns. Mutations and snapshots taken
  /// during the rebuild are preserved — they land in the successor
  /// overlay. No-op when nothing is pending. Serialized with the
  /// background compactor.
  Status Compact();

  /// A consistent (pinned base, frozen overlay) read view.
  LiveSnapshot TakeSnapshot();

  LiveStats stats() const;
  bool self_join() const { return self_join_; }

  /// The current live membership as plain vectors (p == q for self-join).
  /// The brute-force oracle the churn tests recompute against.
  void EffectivePointsets(std::vector<PointRecord>* q,
                          std::vector<PointRecord>* p) const;

  /// Attaches the write-ahead journal. Every later Insert/Delete is
  /// appended (and group-committed) before it is applied — an append
  /// error fails the mutation without applying it — and every Compact()
  /// checkpoints the folded base so replay stays bounded. Attach *after*
  /// replaying recovered records (replay must not re-journal them); not
  /// guarded against concurrent mutation.
  void AttachLog(std::unique_ptr<MutationLog> log);

 private:
  LiveEnvironment() = default;

  static Result<std::unique_ptr<LiveEnvironment>> CreateImpl(
      const std::vector<PointRecord>& qset,
      const std::vector<PointRecord>& pset, bool self_join,
      const LiveOptions& options);

  /// Builds a base environment over the given sets per options_.build.
  Result<std::unique_ptr<RcjEnvironment>> BuildBase(
      const std::vector<PointRecord>& qset,
      const std::vector<PointRecord>& pset) const;

  /// Clones the overlay before mutating when snapshots share it.
  void EnsurePrivateOverlay();

  /// The live-id set of `side` (the Q set in self-join mode).
  std::unordered_set<PointId>& LiveSet(LiveSide side);

  /// Wakes the background compactor when the threshold is crossed.
  /// Caller holds mu_.
  void MaybeSignalCompactor();

  void CompactorLoop();

  LiveOptions options_;
  bool self_join_ = false;
  std::unique_ptr<MutationLog> log_;  ///< null = not durable.

  mutable std::mutex mu_;  // guards everything below
  std::shared_ptr<live_internal::BaseState> base_;
  std::shared_ptr<DeltaOverlay> overlay_;
  std::unordered_set<PointId> live_q_;  // ids alive across base + delta
  std::unordered_set<PointId> live_p_;  // unused in self-join mode
  uint64_t epoch_ = 0;
  uint64_t compactions_ = 0;

  std::mutex compact_mu_;  // serializes compactions; held outside mu_
  std::condition_variable compact_cv_;  // signaled under mu_
  std::thread compactor_;
  bool stop_ = false;
};

/// Applies recovered journal records to `env` through the normal
/// Insert/Delete path, in order, verifying that each replayed mutation
/// reproduces its recorded epoch (a mismatch is Corruption — the journal
/// does not describe this environment's history). Call on an environment
/// created with initial_epoch == the recovery's snapshot epoch and with
/// no log attached yet.
Status ReplayRecovery(const WalRecovery& recovery, LiveEnvironment* env);

}  // namespace rcj

#endif  // RINGJOIN_LIVE_LIVE_ENVIRONMENT_H_
