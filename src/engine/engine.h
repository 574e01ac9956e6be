// rcj::Engine — a thread-pool-backed execution layer for batches of
// ring-constrained joins.
//
// The paper's runner executes one algorithm at a time against a cold
// buffer; a middleman-location service instead faces many concurrent
// queries (mixed algorithms, search orders, and pointset pairs) over a
// small set of long-lived indexes. The engine separates those concerns:
// environments are built once (RcjEnvironment::Build — trees, page stores,
// headers persisted), after which the engine executes whole batches
// concurrently over the shared immutable indexes.
//
// Two levels of parallelism compose inside one flat task list:
//   * inter-query: every query of a batch becomes at least one task;
//   * intra-query: an indexed join (INJ/BIJ/OBJ) is split into contiguous
//     ranges of T_Q's depth-first leaf order — the unit the paper's
//     algorithms already process independently — and each range becomes its
//     own task.
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
// tasks, batches, and service dispatch rounds. Repeat queries against the
// same environment skip view construction and serve the root path from the
// warm pool; JoinStats splits page_faults into cold_faults (first touches)
// and warm_faults (capacity re-faults) so the effect is observable per
// query. Entries are keyed by environment generation, so a rebuilt or
// destroyed environment can never satisfy a stale entry; the owning layers
// call InvalidateCachedViews() before tearing an environment down.
// EngineOptions::view_cache = false restores the original open-per-task
// model (every fault cold, minimal resident memory).
//
// Intra-query scheduling is adaptive: a split query's serial leaf order is
// divided into fine-grained chunks claimed from a shared atomic cursor, so
// a worker that drew a dense (skewed) leaf region simply claims fewer
// chunks while idle workers steal the rest — no static range assignment,
// and delivery still flushes strictly in chunk order, preserving the exact
// serial pair stream.
#ifndef RINGJOIN_ENGINE_ENGINE_H_
#define RINGJOIN_ENGINE_ENGINE_H_

#include <cstddef>
#include <list>
#include <memory>
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
  /// Split single indexed queries across workers (intra-query parallelism).
  bool intra_query_parallelism = true;
  /// Target number of leaf-range tasks per worker thread when splitting one
  /// query; >1 lets the pool rebalance skewed ranges.
  size_t tasks_per_thread = 2;
  /// Queries whose T_Q has fewer leaves than this run as one task — the
  /// per-worker view/buffer setup would outweigh the traversal.
  size_t min_leaves_to_split = 8;
  /// Sizing of each worker's private buffer pool, mirroring the serial
  /// runner's buffer_fraction/min_buffer_pages pair.
  double worker_buffer_fraction = 0.01;
  size_t worker_min_buffer_pages = 32;
  /// Keep each worker's R-tree views and warm buffer pool alive across
  /// tasks and batches (the persistent worker-view cache). Off restores
  /// the original open-per-task model: fresh views and an all-cold pool
  /// for every task — the benchmark baseline and the memory floor.
  bool view_cache = true;
  /// Leaves claimed per scheduling step when one query is split across
  /// workers. Tasks pull chunks of this size from a shared cursor (work
  /// stealing), so skewed leaf regions no longer pin their whole static
  /// range to one worker. 0 = auto: leaves / (max_tasks * 8), at least 1.
  /// Explicit values are clamped to ceil(leaves / max_tasks), so an
  /// oversized chunk degenerates to exactly the static contiguous split —
  /// never to fewer tasks than that.
  size_t steal_chunk_leaves = 0;
  /// Environments one worker keeps warm at once; least recently used
  /// entries beyond the cap are dropped (views + buffer pool freed).
  size_t max_cached_envs_per_worker = 4;
  /// Leaf-order readahead: when a task claims a chunk of its query's T_Q
  /// leaf order, up to this many of the chunk's leaf pages are announced
  /// to the backing store (PageStore::Prefetch — posix_fadvise/madvise
  /// WILLNEED on the file backends, a no-op in memory) before the
  /// traversal reads them one by one. The leaf order is computed up front,
  /// so this is a perfect prefetch oracle: the kernel can stream the pages
  /// in while the worker is still verifying circles. 0 disables.
  size_t readahead_leaves = 256;
};

/// One query of a batch: the validated spec plus an optional streaming
/// target. When `sink` is set, pairs are delivered to it in serial order as
/// leaf-range tasks complete (and EngineQueryResult::run.pairs stays
/// empty); when null, pairs are collected into the result. The spec's
/// environment must outlive the batch and is treated as strictly read-only
/// (its shared buffer is never touched by the engine's workers). A shared
/// sink is driven by one thread at a time per query, but different queries
/// may flush concurrently — point each query at its own sink unless the
/// sink is thread-safe.
struct EngineQuery {
  QuerySpec spec;
  PairSink* sink = nullptr;
};

/// Outcome of one batch entry, in input order: the status its stop reason
/// maps to (StopStatus), or the failing chunk's error. `run` covers the
/// work performed and the pairs delivered before any stop; it is empty
/// for a failed query.
struct EngineQueryResult {
  Status status;
  RcjRunResult run;
};

/// A reusable batched executor. Construct once (threads spin up
/// immediately), then feed it any number of batches. One batch call at a
/// time: RunBatch is not reentrant — external callers serialize, which is
/// the natural shape for a service dispatch loop (rcj::Service owns
/// exactly that loop).
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(Engine);

  size_t num_threads() const { return pool_.num_threads(); }
  const EngineOptions& options() const { return options_; }

  /// Executes every query of the batch concurrently; results are returned
  /// in input order. Per-query failures are reported in the corresponding
  /// slot — one bad query never poisons its batchmates.
  std::vector<EngineQueryResult> RunBatch(
      const std::vector<EngineQuery>& queries);

  /// Single-query conveniences: a one-element batch, so an indexed join
  /// still fans out across all workers when intra-query parallelism is on.
  Result<RcjRunResult> Run(const QuerySpec& spec);
  Status Run(const QuerySpec& spec, PairSink* sink, JoinStats* stats);

  /// Drops every cached worker view and cached leaf-order plan matching
  /// `env` (all of them when null). Call before destroying or rebuilding
  /// an environment the engine has executed against, so no worker holds
  /// views over freed page stores. Must not overlap a RunBatch call — the
  /// same external serialization the batch API already requires (rcj::
  /// Service runs it from its dispatcher, or after the dispatcher joined).
  void InvalidateCachedViews(const RcjEnvironment* env = nullptr);

  /// Aggregated view-cache counters across all workers (opens, reuses,
  /// evictions, invalidations). Same serialization rule as RunBatch.
  WorkerContextStats context_stats() const;

 private:
  /// Cached T_Q leaf orders keyed by (env, generation, order, seed):
  /// repeated batches over long-lived environments skip the serial
  /// planning traversal entirely. LRU-capped; entries referenced by the
  /// current batch are never evicted (tasks hold pointers into them).
  struct PlanEntry {
    const RcjEnvironment* env = nullptr;
    uint64_t generation = 0;
    SearchOrder order = SearchOrder::kDepthFirst;
    uint64_t seed = 0;
    uint64_t last_used_batch = 0;
    std::vector<uint64_t> leaves;
  };

  Status LeavesFor(const QuerySpec& spec, uint64_t batch_id,
                   const std::vector<uint64_t>** leaves);

  EngineOptions options_;
  /// Declared before pool_ so workers are joined (pool_ destroyed) before
  /// their contexts go away.
  std::vector<std::unique_ptr<WorkerContext>> contexts_;
  ThreadPool pool_;
  std::list<PlanEntry> plan_cache_;  // front = most recently used
  uint64_t batch_counter_ = 0;
};

}  // namespace rcj

#endif  // RINGJOIN_ENGINE_ENGINE_H_
