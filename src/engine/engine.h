// rcj::Engine — a thread-pool-backed execution layer for concurrent
// ring-constrained joins.
//
// The paper's runner executes one algorithm at a time against a cold
// buffer; a middleman-location service instead faces many concurrent
// queries (mixed algorithms, search orders, and pointset pairs) over a
// small set of long-lived indexes. The engine separates those concerns:
// environments are built once (RcjEnvironment::Build — trees, page stores,
// headers persisted), after which the engine executes queries concurrently
// over the shared immutable indexes.
//
// Every query has its own lifetime. Submit() validates and plans it, hands
// its claimant tasks to the pool and returns a QueryTicket; the last of
// those tasks to finish settles the query, runs its DoneFn and resolves the
// ticket. Two levels of parallelism compose on the one pool:
//   * inter-query: every query becomes at least one task, and a task runs
//     ONE chunk per turn, then yields its worker. A new query's first
//     task runs ahead of every yielded turn, so its head starts behind a
//     chunk per busy worker, never behind whole queries. Yielded turns of
//     different partitions (EnginePartition — a router's shards) take
//     turns, so one shard's backlog never starves another; within a
//     partition the oldest query's turns go first, so concurrent long
//     queries finish one after the other, as on a FIFO;
//   * intra-query: an indexed join (INJ/BIJ/OBJ) is split into contiguous
//     ranges of T_Q's depth-first leaf order — the unit the paper's
//     algorithms already process independently — claimed by several tasks.
// This is why one engine serves a whole process: a router's shards
// partition admission and scheduling over it, not threads.
//
// Results stream: each query carries an optional PairSink, and pairs are
// delivered to it in the exact serial order as leaf-range tasks complete —
// a range's output is flushed the moment every earlier range has been
// flushed, so the head of the stream is available long before the join
// finishes. Every early end is one StopReason on the query's StopToken
// (QuerySpec::stop, or the engine's own when null): limit or sink refusal,
// cancel, deadline, peer gone, failure. Each task checks the token before
// it claims a chunk and on every pair it buffers (reading the clock every
// few dozen pairs when a deadline is set), so even an unsplit query stops
// mid-traversal; the merge maps the reason to the query's status.
//
// The engine remembers a few environments across queries in one LRU cache
// of entries keyed by (environment, generation). An entry holds T_Q's
// depth-first leaf order, walked once, and one view per worker thread:
// private read-only R-tree views over the environment's page stores,
// faulting through a private LRU pool that stays WARM across tasks and
// queries. Repeat queries against the same environment skip the leaf walk
// and view construction and serve the root path from the warm pool;
// JoinStats splits page_faults into cold_faults (first touches) and
// warm_faults (capacity re-faults) so the effect is observable per query.
// A rebuilt environment has a new generation, so it never meets a stale
// entry; an entry of a destroyed one ages out of the LRU, and dropping it
// touches no store (views never dirty a page). Each query holds its
// entry, so no drop can pull an entry from under a running query, and an
// environment may die at any time after its last query.
//
// Intra-query scheduling is adaptive: a split query's serial leaf order is
// divided into fine-grained chunks claimed from a shared atomic cursor, so
// a worker that drew a dense (skewed) leaf region simply claims fewer
// chunks while idle workers steal the rest — no static range assignment,
// and delivery still flushes strictly in chunk order, preserving the exact
// serial pair stream. The split rule (tasks per thread, the smallest tree
// worth splitting, chunk size, leaf readahead) is fixed in engine.cc.
#ifndef RINGJOIN_ENGINE_ENGINE_H_
#define RINGJOIN_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "core/runner.h"
#include "core/stop_token.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"

namespace rcj {

/// Engine-wide knobs, fixed at construction.
struct EngineOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  size_t num_threads = 0;
  /// Sizing of each worker's private buffer pool, mirroring the serial
  /// runner's buffer_fraction/min_buffer_pages pair.
  double worker_buffer_fraction = 0.01;
  size_t worker_min_buffer_pages = 32;
};

/// Counters of the engine's environment cache, for benches and
/// observability. A view dropped with its entry counts once, as an
/// eviction or an invalidation.
struct WorkerContextStats {
  uint64_t opens = 0;          ///< worker views constructed.
  uint64_t reuses = 0;         ///< chunk turns served by an open view.
  uint64_t evictions = 0;      ///< views dropped by the LRU cap.
  uint64_t invalidations = 0;  ///< views dropped by a rebuild or a drain.
};

/// A scheduling partition of the engine — a router shard. Partitions take
/// turns on the pool, so one partition's backlog never starves another;
/// within a partition the oldest query goes first.
struct EnginePartition {
  /// Queries of this partition whose first task has not started yet.
  std::atomic<size_t> queued{0};
};

/// One query: the validated spec plus an optional streaming target. Pairs
/// are delivered to `sink` in serial order as leaf-range tasks complete; a
/// null sink discards them (stats-only probes). The spec's environment must
/// outlive the query and is treated as strictly read-only (neither
/// planning nor the workers touch its shared buffer). A shared sink is
/// driven by one thread at a time per query, but different queries may
/// flush concurrently — point each query at its own sink unless the sink
/// is thread-safe.
struct EngineQuery {
  QuerySpec spec;
  PairSink* sink = nullptr;
  /// The query's partition (a router shard's), or null for the engine's
  /// default one. Must outlive the query.
  EnginePartition* partition = nullptr;
};

/// Outcome of one query: the status its stop reason
/// maps to (StopStatus), or the failing chunk's error. `run` covers the
/// work performed and, for RunBatch queries without a sink, the pairs
/// delivered before any stop; it is empty for a failed query.
struct EngineQueryResult {
  Status status;
  RcjRunResult run;
};

/// Completion handle of one submitted query. Cheap to copy (shared state);
/// a default-constructed ticket is invalid. The query's pairs go to the
/// sink passed at Submit() — the ticket carries only status and stats.
class QueryTicket {
 public:
  QueryTicket() = default;

  /// True iff this ticket came from a Submit() call.
  bool valid() const { return state_ != nullptr; }

  /// Blocks until the query finishes; returns its final status.
  Status Wait();

  /// Non-blocking probe: returns true iff the query has finished, filling
  /// `*status` (when non-null) with the final status.
  bool TryGet(Status* status = nullptr);

  /// Paper-style statistics of the finished query (the executed portion,
  /// for limit-capped queries). Valid once Wait() returned or TryGet()
  /// returned true.
  JoinStats stats() const;

 private:
  friend class Engine;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    JoinStats stats;
  };

  explicit QueryTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Everything one submitted query owns from Submit() to its DoneFn
/// (engine.cc).
struct QueryRun;

/// What the engine keeps about one environment across queries (engine.cc).
struct EnvCacheEntry;

/// A reusable concurrent executor. Construct once (threads spin up
/// immediately), then submit any number of queries from any number of
/// threads. Destruction completes every already-submitted query, then
/// stops.
class Engine {
 public:
  /// Invoked exactly once per submitted query, with its final status,
  /// immediately before the ticket becomes observable as done — so by the
  /// time any Wait()er wakes, the callback's side effects (e.g. an
  /// admission ledger counting the query and freeing its slot) are
  /// visible. Runs on the engine worker that finished the query's last
  /// task, or inline in Submit() for a query that fails validation or
  /// planning and after Shutdown(). Must not block on other queries of
  /// the same engine.
  using DoneFn = std::function<void(const Status&)>;

  explicit Engine(EngineOptions options = {});
  ~Engine();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(Engine);

  size_t num_threads() const { return pool_.num_threads(); }
  const EngineOptions& options() const { return options_; }

  /// Validates and plans `query`, hands its tasks to the pool and returns
  /// its ticket; `on_done` (optional) receives the final status once the
  /// query's own tasks have finished. Thread-safe and non-blocking on join
  /// work. A per-query failure — invalid spec, failed planning — resolves
  /// the ticket (before Submit returns) with that error, so one bad query
  /// never poisons the others. After Shutdown() the ticket resolves
  /// immediately as Cancelled without running, and `on_done` still fires,
  /// so no caller slot ever leaks. To cancel, stop the query's StopToken
  /// (QuerySpec::stop) from any thread.
  QueryTicket Submit(EngineQuery query, DoneFn on_done = nullptr);

  /// Completes every already-submitted query, then drops the environment
  /// cache, freeing every worker view. Idempotent from the owning thread;
  /// also run by the destructor. Must not be called from a DoneFn or a
  /// sink.
  void Shutdown();

  /// Submits every query and blocks until each of them is done; results
  /// are returned in input order, a query without a sink collecting its
  /// pairs into its result. Waits only on these queries, so any thread may
  /// call it while other queries run.
  std::vector<EngineQueryResult> RunBatch(
      const std::vector<EngineQuery>& queries);

  /// Single-query conveniences: an indexed join still fans out across all
  /// workers.
  Result<RcjRunResult> Run(const QuerySpec& spec);
  Status Run(const QuerySpec& spec, PairSink* sink, JoinStats* stats);

  /// Drops the cache's entry for `env` (every entry when null), freeing
  /// its views once no running query holds it. Only releases memory
  /// promptly: an environment may be destroyed without it. Thread-safe at
  /// any time, including while queries over `env` run.
  void InvalidateCachedViews(const RcjEnvironment* env = nullptr);

  /// The environment cache's counters (opens, reuses, evictions,
  /// invalidations).
  WorkerContextStats context_stats() const;

  /// Environments the cache holds right now (at most four).
  size_t cached_environments() const;

  /// Queries submitted whose first task has not started yet — the depth of
  /// the engine's queue (the rcj_engine_queue_depth gauge).
  size_t queued() const { return queued_.load(std::memory_order_relaxed); }

 private:
  using EntryList = std::list<std::shared_ptr<EnvCacheEntry>>;

  /// The cache entry of `env`, created on a miss; the front of the LRU.
  std::shared_ptr<EnvCacheEntry> EntryFor(const RcjEnvironment& env);
  /// Moves `it` out of the cache into `*dropped` (freed by the caller
  /// after cache_mu_ is released), counting its views as evicted or
  /// invalidated.
  void DropLocked(EntryList::iterator it, bool evicted,
                  std::vector<std::shared_ptr<EnvCacheEntry>>* dropped);
  /// Points the query's emit.leaves at its leaf order, unless T_Q is too
  /// small to split: the entry's depth-first order (walked by the entry's
  /// first split query), or a shuffled copy for a random-order query.
  Status PlanLeaves(QueryRun* run);

  /// Queues the next turn of task `index`. A query's first task starts
  /// fresh: it runs before every yielded turn, so each query's head
  /// starts behind one chunk per busy worker, never behind whole queries.
  /// Every other turn yields: the partitions take turns, so one shard's
  /// backlog never starves another, and within a partition the oldest
  /// query goes first, so two long queries finish one after the other (as
  /// on a FIFO) rather than both at the end.
  void Schedule(const std::shared_ptr<QueryRun>& run, size_t index,
                bool fresh);
  /// One turn of task `index`: run at most one chunk, then schedule the
  /// task's next turn, or finish it.
  void RunTask(const std::shared_ptr<QueryRun>& run, size_t index);

  /// Runs the query's DoneFn, then resolves its ticket.
  static void Resolve(QueryRun* run);
  /// Resolve() for a counted query, which then leaves the drain count.
  void Finish(QueryRun* run);

  EngineOptions options_;
  /// Declared before pool_ so workers are joined (pool_ destroyed) before
  /// anything their tasks touch goes away.
  mutable std::mutex cache_mu_;
  EntryList cache_;  // front = most recently used
  obs::OutcomeCounter view_opens_{"rcj_worker_view_opens_total"};
  obs::OutcomeCounter view_reuses_{"rcj_worker_view_reuses_total"};
  obs::OutcomeCounter view_evictions_{"rcj_worker_view_evictions_total"};
  obs::OutcomeCounter view_invalidations_{
      "rcj_worker_view_invalidations_total"};
  std::atomic<size_t> queued_{0};
  std::mutex mu_;
  std::condition_variable drained_;
  /// Submitted queries whose ticket has not resolved yet (guarded by mu_).
  size_t running_ = 0;
  bool stopping_ = false;
  ThreadPool pool_;
};

}  // namespace rcj

#endif  // RINGJOIN_ENGINE_ENGINE_H_
