#include "live/live_environment.h"

#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>

#include "live/mutation_log.h"
#include "obs/metrics.h"

namespace rcj {
namespace {

/// Registry mirrors of the live tier: mutation rate, compaction duration
/// (rebuild + swap + pin drain), and the pin-drain wait alone — the part
/// of a compaction that in-flight queries stretch.
struct LiveMetrics {
  obs::Counter* mutations;
  obs::Counter* compactions;
  obs::Histogram* compaction_seconds;
  obs::Histogram* pin_drain_seconds;

  static const LiveMetrics& Get() {
    static const LiveMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      LiveMetrics m;
      m.mutations = registry.counter("rcj_live_mutations_total");
      m.compactions = registry.counter("rcj_live_compactions_total");
      m.compaction_seconds =
          registry.histogram("rcj_live_compaction_seconds");
      m.pin_drain_seconds =
          registry.histogram("rcj_live_pin_drain_seconds");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

namespace live_internal {

Pin::Pin(std::shared_ptr<BaseState> b) : base(std::move(b)) {
  std::lock_guard<std::mutex> lock(base->mu);
  ++base->pins;
}

Pin::~Pin() {
  std::lock_guard<std::mutex> lock(base->mu);
  if (--base->pins == 0) base->cv.notify_all();
}

}  // namespace live_internal

namespace {

bool SameRecord(const PointRecord& a, const PointRecord& b) {
  return a.id == b.id && a.pt.x == b.pt.x && a.pt.y == b.pt.y;
}

// One side of the overlay fold that runs when a compaction swaps in its
// rebuilt base. `cap` is the overlay version the rebuild consumed, `cur`
// the live overlay at swap time (cur extends cap, except where mutations
// after the capture touched captured state). Record-level arithmetic:
//
//   new_delta = cur.delta records not folded into the base
//             = { r in cur.delta : no identical record in cap.delta }
//   new_dead  = (cur.dead \ cap.dead)   — cap.dead ids were simply left
//                                         out of the new base —
//             ∪ { id of r in cap.delta with no identical record in
//                 cur.delta }           — a captured insert deleted (or
//                                         replaced) during the rebuild now
//                                         has a base copy to tombstone.
//
// Matching by full record (id AND coordinates) matters: delete-then-
// reinsert of a captured id with new coordinates must keep the new delta
// record and tombstone the folded copy.
void FoldSide(const std::vector<PointRecord>& cur_delta,
              const std::unordered_set<PointId>& cur_dead,
              const std::vector<PointRecord>& cap_delta,
              const std::unordered_set<PointId>& cap_dead,
              std::vector<PointRecord>* new_delta,
              std::unordered_set<PointId>* new_dead) {
  std::unordered_map<PointId, const PointRecord*> cap;
  cap.reserve(cap_delta.size());
  for (const PointRecord& rec : cap_delta) cap.emplace(rec.id, &rec);
  std::unordered_map<PointId, const PointRecord*> cur;
  cur.reserve(cur_delta.size());
  for (const PointRecord& rec : cur_delta) cur.emplace(rec.id, &rec);

  for (const PointRecord& rec : cur_delta) {
    const auto it = cap.find(rec.id);
    if (it != cap.end() && SameRecord(*it->second, rec)) continue;
    new_delta->push_back(rec);
  }
  for (const PointId id : cur_dead) {
    if (cap_dead.count(id) == 0) new_dead->insert(id);
  }
  for (const auto& entry : cap) {
    const auto it = cur.find(entry.first);
    if (it == cur.end() || !SameRecord(*it->second, *entry.second)) {
      new_dead->insert(entry.first);
    }
  }
}

Status CheckUniqueIds(const std::vector<PointRecord>& set, const char* label,
                      std::unordered_set<PointId>* live) {
  live->clear();
  live->reserve(set.size());
  for (const PointRecord& rec : set) {
    if (rec.id == kInvalidPointId) {
      return Status::InvalidArgument(std::string(label) +
                                     " contains the invalid point id");
    }
    if (!live->insert(rec.id).second) {
      return Status::InvalidArgument(std::string(label) + " duplicates id " +
                                     std::to_string(rec.id));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<LiveEnvironment>> LiveEnvironment::Create(
    const std::vector<PointRecord>& qset,
    const std::vector<PointRecord>& pset, const LiveOptions& options) {
  return CreateImpl(qset, pset, /*self_join=*/false, options);
}

Result<std::unique_ptr<LiveEnvironment>> LiveEnvironment::CreateSelf(
    const std::vector<PointRecord>& set, const LiveOptions& options) {
  return CreateImpl(set, set, /*self_join=*/true, options);
}

Result<std::unique_ptr<LiveEnvironment>> LiveEnvironment::CreateImpl(
    const std::vector<PointRecord>& qset,
    const std::vector<PointRecord>& pset, bool self_join,
    const LiveOptions& options) {
  std::unique_ptr<LiveEnvironment> env(new LiveEnvironment());
  env->options_ = options;
  env->self_join_ = self_join;
  env->epoch_ = options.initial_epoch;
  RINGJOIN_RETURN_IF_ERROR(CheckUniqueIds(qset, "qset", &env->live_q_));
  if (!self_join) {
    RINGJOIN_RETURN_IF_ERROR(CheckUniqueIds(pset, "pset", &env->live_p_));
  }

  Result<std::unique_ptr<RcjEnvironment>> base = env->BuildBase(qset, pset);
  if (!base.ok()) return base.status();
  env->base_ = std::make_shared<live_internal::BaseState>();
  env->base_->env = std::move(base).value();

  env->overlay_ = std::make_shared<DeltaOverlay>();
  env->overlay_->self_join = self_join;
  env->overlay_->epoch = options.initial_epoch;

  if (options.compact_threshold > 0) {
    env->compactor_ =
        std::thread([raw = env.get()] { raw->CompactorLoop(); });
  }
  return env;
}

LiveEnvironment::~LiveEnvironment() {
  if (compactor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    compact_cv_.notify_all();
    compactor_.join();
  }
}

Result<std::unique_ptr<RcjEnvironment>> LiveEnvironment::BuildBase(
    const std::vector<PointRecord>& qset,
    const std::vector<PointRecord>& pset) const {
  return self_join_ ? RcjEnvironment::BuildSelf(qset, options_.build)
                    : RcjEnvironment::Build(qset, pset, options_.build);
}

std::unordered_set<PointId>& LiveEnvironment::LiveSet(LiveSide side) {
  return (side == LiveSide::kQ || self_join_) ? live_q_ : live_p_;
}

void LiveEnvironment::EnsurePrivateOverlay() {
  // Snapshots (and an in-flight compaction's capture) share the current
  // version; never mutate what they can see.
  if (overlay_.use_count() > 1) {
    overlay_ = std::make_shared<DeltaOverlay>(*overlay_);
  }
}

void LiveEnvironment::MaybeSignalCompactor() {
  if (options_.compact_threshold > 0 &&
      overlay_->pending() >= options_.compact_threshold) {
    compact_cv_.notify_one();
  }
}

Status LiveEnvironment::Insert(LiveSide side, const PointRecord& rec) {
  if (rec.id == kInvalidPointId) {
    return Status::InvalidArgument("insert: invalid point id");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_set<PointId>& live = LiveSet(side);
  if (live.count(rec.id) != 0) {
    return Status::InvalidArgument("insert: id " + std::to_string(rec.id) +
                                   " is already live on side " +
                                   LiveSideName(side));
  }
  // Write-ahead: journal the mutation before touching any state, so a
  // crash either shows the whole mutation on replay or none of it, and
  // an append failure rejects the mutation without applying it.
  if (log_ != nullptr) {
    WalRecord record;
    record.epoch = epoch_ + 1;
    record.op = WalOp::kInsert;
    record.side = side;
    record.rec = rec;
    RINGJOIN_RETURN_IF_ERROR(log_->Append(record));
  }
  live.insert(rec.id);
  EnsurePrivateOverlay();
  overlay_->mutable_delta(side).push_back(rec);
  overlay_->epoch = ++epoch_;
  LiveMetrics::Get().mutations->Add();
  MaybeSignalCompactor();
  return Status::OK();
}

Status LiveEnvironment::Delete(LiveSide side, PointId id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_set<PointId>& live = LiveSet(side);
  const auto it = live.find(id);
  if (it == live.end()) {
    return Status::NotFound("delete: id " + std::to_string(id) +
                            " is not live on side " + LiveSideName(side));
  }
  if (log_ != nullptr) {
    WalRecord record;
    record.epoch = epoch_ + 1;
    record.op = WalOp::kDelete;
    record.side = side;
    record.rec.id = id;
    RINGJOIN_RETURN_IF_ERROR(log_->Append(record));
  }
  EnsurePrivateOverlay();
  std::vector<PointRecord>& delta = overlay_->mutable_delta(side);
  bool was_delta = false;
  for (auto rec = delta.begin(); rec != delta.end(); ++rec) {
    if (rec->id == id) {
      delta.erase(rec);
      was_delta = true;
      break;
    }
  }
  // A delta record just disappears; a base point needs a tombstone.
  if (!was_delta) overlay_->mutable_dead(side).insert(id);
  live.erase(it);
  overlay_->epoch = ++epoch_;
  LiveMetrics::Get().mutations->Add();
  MaybeSignalCompactor();
  return Status::OK();
}

LiveSnapshot LiveEnvironment::TakeSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  LiveSnapshot snapshot;
  snapshot.pin_ = std::make_shared<live_internal::Pin>(base_);
  snapshot.overlay_ = overlay_;
  return snapshot;
}

Status LiveEnvironment::Compact() {
  std::lock_guard<std::mutex> serialize(compact_mu_);

  std::shared_ptr<live_internal::BaseState> old_base;
  std::shared_ptr<const DeltaOverlay> captured;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (overlay_->empty()) return Status::OK();
    old_base = base_;
    captured = overlay_;  // shared: later mutations copy-on-write
  }
  const auto compact_start = std::chrono::steady_clock::now();

  // Compose and rebuild outside mu_ — mutations and queries proceed
  // against the old base meanwhile. The old base's pointsets are immutable
  // and this compaction holds old_base until its drain below, so reading
  // them here without mu_ is safe.
  const RcjEnvironment& old_env = *old_base->env;
  std::vector<PointRecord> new_q =
      EffectivePointset(old_env.qset(), *captured, LiveSide::kQ);
  std::vector<PointRecord> new_p;
  if (!self_join_) {
    new_p = EffectivePointset(old_env.pset(), *captured, LiveSide::kP);
  }

  Result<std::unique_ptr<RcjEnvironment>> built = BuildBase(new_q, new_p);
  if (!built.ok()) return built.status();
  auto fresh = std::make_shared<live_internal::BaseState>();
  fresh->env = std::move(built).value();
  const RcjEnvironment& new_env = *fresh->env;

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto folded = std::make_shared<DeltaOverlay>();
    folded->self_join = self_join_;
    folded->epoch = epoch_;
    FoldSide(overlay_->delta_q, overlay_->dead_q, captured->delta_q,
             captured->dead_q, &folded->delta_q, &folded->dead_q);
    if (!self_join_) {
      FoldSide(overlay_->delta_p, overlay_->dead_p, captured->delta_p,
               captured->dead_p, &folded->delta_p, &folded->dead_p);
    }
    base_ = std::move(fresh);
    overlay_ = std::move(folded);
    ++compactions_;
  }

  // Checkpoint the journal against the base just installed: everything
  // at or below the captured epoch is folded into its pointsets. Only
  // compactions replace base_, serialized by compact_mu_, so new_env stays
  // installed (and alive) while it is read here without mu_. A checkpoint
  // failure is reported but leaves durability intact: replay still works
  // from the previous snapshot plus the unshortened journal.
  Status checkpoint_status = Status::OK();
  if (log_ != nullptr) {
    const std::vector<PointRecord> no_p;  // a self-join snapshot has no P
    checkpoint_status =
        log_->Checkpoint(captured->epoch, self_join_, new_env.qset(),
                         self_join_ ? no_p : new_env.pset());
  }

  // New snapshots pin the new base from here on. Drain the readers still
  // inside the retired one, then destroy its trees.
  const auto drain_start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(old_base->mu);
    old_base->cv.wait(lock, [&] { return old_base->pins == 0; });
  }
  LiveMetrics::Get().pin_drain_seconds->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    drain_start)
          .count());
  old_base->env.reset();
  LiveMetrics::Get().compactions->Add();
  LiveMetrics::Get().compaction_seconds->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    compact_start)
          .count());
  return checkpoint_status;
}

void LiveEnvironment::CompactorLoop() {
  // Retry only after the next mutation when an attempt fails (or folds
  // into a still-over-threshold overlay): epoch_ moves on every mutation.
  uint64_t last_attempt = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      compact_cv_.wait(lock, [&] {
        return stop_ ||
               (overlay_->pending() >= options_.compact_threshold &&
                epoch_ != last_attempt);
      });
      if (stop_) return;
      last_attempt = epoch_;
    }
    const Status status = Compact();
    static_cast<void>(status);  // a failed rebuild retries on the next wake
  }
}

LiveStats LiveEnvironment::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LiveStats stats;
  stats.epoch = epoch_;
  stats.generation = base_->env->generation();
  stats.compactions = compactions_;
  stats.delta_size =
      overlay_->delta_q.size() +
      (self_join_ ? 0 : overlay_->delta_p.size());
  stats.tombstones = overlay_->tombstones();
  stats.base_q = base_->env->qset().size();
  stats.base_p = base_->env->pset().size();
  return stats;
}

void LiveEnvironment::EffectivePointsets(std::vector<PointRecord>* q,
                                         std::vector<PointRecord>* p) const {
  std::lock_guard<std::mutex> lock(mu_);
  const RcjEnvironment& base = *base_->env;
  *q = EffectivePointset(base.qset(), *overlay_, LiveSide::kQ);
  if (p != nullptr) {
    *p = self_join_ ? *q
                    : EffectivePointset(base.pset(), *overlay_, LiveSide::kP);
  }
}

void LiveEnvironment::AttachLog(std::unique_ptr<MutationLog> log) {
  std::lock_guard<std::mutex> lock(mu_);
  log_ = std::move(log);
}

Status ReplayRecovery(const WalRecovery& recovery, LiveEnvironment* env) {
  for (const WalRecord& record : recovery.records) {
    Status status;
    switch (record.op) {
      case WalOp::kInsert:
        status = env->Insert(record.side, record.rec);
        break;
      case WalOp::kDelete:
        status = env->Delete(record.side, record.rec.id);
        break;
    }
    if (!status.ok()) {
      return Status::Corruption("wal replay: epoch " +
                                std::to_string(record.epoch) + ": " +
                                status.ToString());
    }
    if (env->stats().epoch != record.epoch) {
      return Status::Corruption(
          "wal replay: record epoch " + std::to_string(record.epoch) +
          " replayed as epoch " + std::to_string(env->stats().epoch) +
          "; the journal does not describe this environment");
    }
  }
  return Status::OK();
}

}  // namespace rcj
