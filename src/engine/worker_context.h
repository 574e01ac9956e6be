// Persistent per-worker execution contexts for the RCJ engine.
//
// The engine's original model opened fresh R-tree views (and a fresh LRU
// buffer pool) for every leaf-range task and threw them away afterwards: a
// service answering millions of queries over a handful of long-lived
// environments paid view construction plus the full cold root-path fault
// sequence on every task. A WorkerContext is the fix: each engine worker
// thread owns one for its whole lifetime, holding a small LRU cache of
// (environment -> view) entries whose buffer pools stay warm across tasks
// and queries. Repeat queries against the same environment hit the cached
// view, so the root path (and whatever else survived in the pool) is served
// from memory — the difference is reported per query as
// JoinStats::cold_faults vs warm_faults.
//
// Safety against environment churn: entries are keyed by the environment's
// pointer AND its process-unique generation (RcjEnvironment::generation()).
// An environment destroyed and rebuilt at the same address gets a new
// generation, so a stale entry can never satisfy a lookup — it is evicted
// and reopened. Entries for environments that simply vanished are dropped
// by the LRU cap or by an explicit Invalidate() from the owning layer
// (Engine::InvalidateCachedViews, ShardRouter::ReleaseEnvironment). Dropping an entry after its
// environment died is safe: cached pages are private copies and read-only
// views never dirty a page, so teardown touches no backing store.
//
// Thread safety: only the owning worker thread (ThreadPool::
// CurrentWorkerIndex()) calls Acquire and uses the views it returns; any
// thread may call Invalidate and read the counters at any time. One mutex
// per context guards the entry list and the counters; it is held inside
// those calls only, never while a view is in use. Invalidate erases list
// nodes, which leaves every other entry's view where it is, so a task
// running over environment A is unaffected when B's entries are dropped —
// the caller's part is to invalidate only environments no running query
// targets.
#ifndef RINGJOIN_ENGINE_WORKER_CONTEXT_H_
#define RINGJOIN_ENGINE_WORKER_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>

#include "common/macros.h"
#include "common/status.h"
#include "core/runner.h"
#include "rtree/rtree.h"
#include "storage/buffer_manager.h"

namespace rcj {

/// One cached window onto an environment's indexes: private read-only
/// RTree views faulting through a private LRU pool that stays warm for the
/// entry's lifetime.
struct WorkerView {
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RTree> tq;
  std::unique_ptr<RTree> tp;  // null for self-joins (aliases tq)

  const RTree& tq_ref() const { return *tq; }
  const RTree& tp_ref() const { return tp != nullptr ? *tp : *tq; }
};

/// Opens a one-shot view over `env` with a fresh pool of `pool_pages`. The
/// engine plans through one (a leaf-order walk that must not fault through
/// a worker's warm pool); its workers execute through
/// WorkerContext::Acquire.
Status OpenWorkerView(const RcjEnvironment& env, size_t pool_pages,
                      WorkerView* view);

/// Aggregate counters of one context, for benches and observability.
struct WorkerContextStats {
  uint64_t opens = 0;        ///< views constructed (cache misses).
  uint64_t reuses = 0;       ///< lookups served by a warm entry.
  uint64_t evictions = 0;    ///< entries dropped by the LRU cap.
  uint64_t invalidations = 0;  ///< entries dropped by generation/hooks.
};

/// A worker's long-lived (environment -> WorkerView) cache. Lookup is a
/// short list scan (the cap is small); hit moves the entry to the front.
class WorkerContext {
 public:
  /// `max_entries` bounds how many environments one worker keeps warm
  /// (LRU beyond that); at least 1.
  explicit WorkerContext(size_t max_entries);
  ~WorkerContext();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(WorkerContext);

  /// Returns a view over `env`, opening one (buffer pool sized
  /// `pool_pages`) on a miss or a generation mismatch and reusing the warm
  /// cached entry otherwise. `*opened_fresh` (when non-null) reports
  /// whether this call constructed the view — the caller's cold/warm
  /// attribution signal beyond the buffer's own history. The returned
  /// pointer stays valid until the next Acquire on this context or an
  /// Invalidate that matches `env`.
  Result<WorkerView*> Acquire(const RcjEnvironment& env, size_t pool_pages,
                              bool* opened_fresh);

  /// Drops every entry matching `env` (all entries when null). The hook
  /// the owning layers run before an environment is destroyed or rebuilt.
  void Invalidate(const RcjEnvironment* env);

  WorkerContextStats stats() const;
  size_t cached_environments() const;

 private:
  struct Entry {
    const RcjEnvironment* env = nullptr;
    uint64_t generation = 0;
    size_t pool_pages = 0;
    WorkerView view;
  };

  size_t max_entries_;
  mutable std::mutex mu_;
  std::list<Entry> entries_;  // front = most recently used
  WorkerContextStats stats_;
};

}  // namespace rcj

#endif  // RINGJOIN_ENGINE_WORKER_CONTEXT_H_
