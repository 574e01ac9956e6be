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
// its claimant tasks to the pool and returns; the last of those tasks to
// finish settles the query and calls its DoneFn. Two levels of parallelism
// compose on the one pool queue:
//   * inter-query: every query becomes at least one task, and tasks of
//     different queries interleave freely;
//   * intra-query: an indexed join (INJ/BIJ/OBJ) is split into contiguous
//     ranges of T_Q's depth-first leaf order — the unit the paper's
//     algorithms already process independently — claimed by several tasks.
// A short query therefore resolves as soon as its own tasks finish, never
// behind a long query submitted alongside it.
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
// Workers execute through persistent execution contexts (worker_context.h):
// each worker thread owns a long-lived cache of (environment -> view)
// entries — private read-only R-tree views over the environment's page
// stores, faulting through a private LRU pool that stays WARM across
// tasks and queries. Repeat queries against the same environment skip view
// construction and serve the root path from the warm pool; JoinStats
// splits page_faults into cold_faults (first touches) and warm_faults
// (capacity re-faults) so the effect is observable per query. Entries are
// keyed by environment generation, so a rebuilt or destroyed environment
// can never satisfy a stale entry; the owning layers call
// InvalidateCachedViews() before tearing an environment down.
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
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "core/runner.h"
#include "engine/thread_pool.h"
#include "engine/worker_context.h"

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

/// One query: the validated spec plus an optional streaming target. When
/// `sink` is set, pairs are delivered to it in serial order as leaf-range
/// tasks complete (and EngineQueryResult::run.pairs stays empty); when
/// null, pairs are collected into the result. The spec's environment must
/// outlive the query and is treated as strictly read-only (neither
/// planning nor the workers touch its shared buffer). A shared sink is
/// driven by one thread at a time per query, but different queries may
/// flush concurrently — point each query at its own sink unless the sink
/// is thread-safe.
struct EngineQuery {
  QuerySpec spec;
  PairSink* sink = nullptr;
};

/// Outcome of one query: the status its stop reason
/// maps to (StopStatus), or the failing chunk's error. `run` covers the
/// work performed and the pairs delivered before any stop; it is empty
/// for a failed query.
struct EngineQueryResult {
  Status status;
  RcjRunResult run;
};

/// A reusable concurrent executor. Construct once (threads spin up
/// immediately), then submit any number of queries from any number of
/// threads.
class Engine {
 public:
  /// Receives a query's outcome exactly once, on the engine worker that
  /// finished the query's last task — or inline in Submit() when the query
  /// fails validation or planning. Must not block on other queries of the
  /// same engine.
  using DoneFn = std::function<void(EngineQueryResult)>;

  explicit Engine(EngineOptions options = {});
  /// Runs every submitted query to completion, then joins the workers.
  ~Engine();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(Engine);

  size_t num_threads() const { return pool_.num_threads(); }
  const EngineOptions& options() const { return options_; }

  /// Validates and plans `query`, hands its tasks to the pool and returns;
  /// `done` receives the outcome once the query's own tasks have finished.
  /// Thread-safe. A per-query failure is reported through `done` — one bad
  /// query never poisons the others.
  void Submit(EngineQuery query, DoneFn done);

  /// Submits every query and blocks until each of them is done; results
  /// are returned in input order. Waits only on these queries, so any
  /// thread may call it while other queries run.
  std::vector<EngineQueryResult> RunBatch(
      const std::vector<EngineQuery>& queries);

  /// Single-query conveniences: a one-element batch, so an indexed join
  /// still fans out across all workers.
  Result<RcjRunResult> Run(const QuerySpec& spec);
  Status Run(const QuerySpec& spec, PairSink* sink, JoinStats* stats);

  /// Drops every cached worker view and cached leaf-order plan matching
  /// `env` (all of them when null). Call before destroying or rebuilding
  /// an environment the engine has executed against, so no worker holds
  /// views over freed page stores. Thread-safe and safe while other
  /// queries run, provided none of them targets `env` (a null `env` needs
  /// an engine with no query in flight).
  void InvalidateCachedViews(const RcjEnvironment* env = nullptr);

  /// Aggregated view-cache counters across all workers (opens, reuses,
  /// evictions, invalidations).
  WorkerContextStats context_stats() const;

  /// Queries submitted whose first task has not started yet — the depth of
  /// the engine's queue (rcj_engine_queue_depth sums it over engines).
  size_t queued() const { return queued_.load(std::memory_order_relaxed); }

 private:
  using Plan = std::shared_ptr<const std::vector<uint64_t>>;

  /// Cached T_Q leaf orders keyed by (env, generation, order, seed):
  /// repeated queries over long-lived environments skip the serial
  /// planning traversal entirely. LRU-capped; a running query holds its
  /// plan by shared_ptr, so eviction never pulls it from under the query.
  struct PlanEntry {
    const RcjEnvironment* env = nullptr;
    uint64_t generation = 0;
    SearchOrder order = SearchOrder::kDepthFirst;
    uint64_t seed = 0;
    Plan leaves;
  };

  Result<Plan> LeavesFor(const QuerySpec& spec);

  EngineOptions options_;
  /// Declared before pool_ so workers are joined (pool_ destroyed) before
  /// anything their tasks touch goes away.
  std::vector<std::unique_ptr<WorkerContext>> contexts_;
  std::mutex plan_mu_;
  std::list<PlanEntry> plan_cache_;  // front = most recently used
  std::atomic<size_t> queued_{0};
  ThreadPool pool_;
};

}  // namespace rcj

#endif  // RINGJOIN_ENGINE_ENGINE_H_
