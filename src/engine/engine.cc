#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "core/rcj_inj.h"
#include "core/stop_token.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_manager.h"
#include "storage/cost_model.h"

namespace rcj {
namespace {

using Clock = std::chrono::steady_clock;

/// Cached leaf orders the engine keeps across queries.
constexpr size_t kPlanCacheCap = 32;

/// Environments one worker keeps warm at once; least recently used
/// entries beyond the cap are dropped (views + buffer pool freed).
constexpr size_t kCachedEnvsPerWorker = 4;

/// Buffered pairs between two clock reads of a deadline-bound query.
constexpr uint32_t kClockStride = 64;

/// Claimant tasks per worker thread when one query is split; more than one
/// lets the cursor rebalance a skewed leaf region.
constexpr size_t kTasksPerThread = 2;

/// Queries whose T_Q has fewer leaves than this run as one task — the
/// per-worker view setup would outweigh the traversal.
constexpr size_t kMinLeavesToSplit = 8;

/// Chunks per claimant task of a split query: chunk size is
/// max(1, leaves / (tasks * kChunksPerTask)), several times finer than the
/// task count so idle workers can steal a dense region's remainder.
constexpr size_t kChunksPerTask = 8;

/// Leaf pages of a claimed chunk announced to the backing store before the
/// traversal reads them (PrefetchChunkLeaves).
constexpr size_t kReadaheadLeaves = 256;

/// rcj_engine_stops_total{reason="..."}, indexed by StopReason.
obs::Counter* StopsTotal(StopReason reason) {
  static const std::vector<obs::Counter*> counters = [] {
    std::vector<obs::Counter*> all(1, nullptr);  // kNone is not a stop
    for (int r = 1; r <= static_cast<int>(StopReason::kFailed); ++r) {
      all.push_back(obs::MetricsRegistry::Default().counter(
          std::string("rcj_engine_stops_total{reason=\"") +
          StopReasonName(static_cast<StopReason>(r)) + "\"}"));
    }
    return all;
  }();
  return counters[static_cast<size_t>(reason)];
}

/// Registry mirrors of the engine's query lifecycle: how long a query
/// waits for its first task, how many wait right now, and how long each
/// runs once started.
struct EngineMetrics {
  obs::Histogram* queue_wait_seconds;
  obs::Gauge* queue_depth;
  obs::Counter* queries_total;
  obs::Histogram* exec_seconds;

  static const EngineMetrics& Get() {
    static const EngineMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      EngineMetrics m;
      m.queue_wait_seconds =
          registry.histogram("rcj_engine_queue_wait_seconds");
      m.queue_depth = registry.gauge("rcj_engine_queue_depth");
      m.queries_total = registry.counter("rcj_engine_queries_total");
      m.exec_seconds = registry.histogram("rcj_engine_exec_seconds");
      return m;
    }();
    return metrics;
  }
};

size_t WorkerPoolPages(const RcjEnvironment& env,
                       const EngineOptions& options) {
  const auto scaled = static_cast<size_t>(
      options.worker_buffer_fraction *
      static_cast<double>(env.total_tree_pages()));
  return std::max(options.worker_min_buffer_pages, scaled);
}

/// Per-query streaming state, shared by the query's tasks. A split query's
/// serial leaf order is divided into `num_chunks` fixed contiguous chunks;
/// tasks claim chunks from the shared `next_chunk` cursor (work stealing),
/// buffer each chunk's pairs privately in `chunk_pairs`, then mark the
/// chunk complete via DeliverReadyRanges, which flushes `chunk_pairs`
/// entries to the delivery sink strictly in chunk order — so the sink
/// observes the exact serial pair stream, incrementally, as the frontier
/// of completed chunks advances.
struct QueryEmitState {
  std::mutex mu;
  /// Final delivery target: the caller's sink, or an engine-owned
  /// VectorSink into the result slot.
  PairSink* sink = nullptr;
  /// The query's stop signal: QuerySpec::stop, or `own_stop` when null.
  /// Once stopped, nothing more reaches the sink, tasks claim no chunk and
  /// running traversals end at their next pair.
  StopToken* stop = nullptr;
  StopToken own_stop;
  uint64_t limit = 0;      ///< 0 = unlimited (QuerySpec::limit).
  uint64_t delivered = 0;  ///< pairs handed to `sink` so far.
  size_t next_range = 0;   ///< first chunk not yet flushed.
  enum : char { kPending = 0, kDone = 1, kFailed = 2 };
  std::vector<char> range_done;  ///< per-chunk completion state.
  /// First failure (a chunk's error or a throwing sink): the query's
  /// status when its stop reason is kFailed.
  Status failure;

  // ---- chunk scheduling (work stealing) ----
  /// The query's full T_Q leaf order (engine plan cache), or null when the
  /// query runs as one unsplit task (BRUTE, small tree, one worker).
  const std::vector<uint64_t>* leaves = nullptr;
  size_t chunk_size = 0;
  size_t num_chunks = 1;
  /// Shared claim cursor: fetch_add hands each task the next unclaimed
  /// chunk, so a task stuck in a dense (skewed) leaf region simply claims
  /// fewer chunks while idle workers steal the rest.
  std::atomic<size_t> next_chunk{0};
  /// Stable per-chunk buffers (sized up front, never resized) so a chunk
  /// finished out of order survives until the frontier reaches it; each is
  /// freed once the frontier passes it.
  std::vector<std::vector<RcjPair>> chunk_pairs;
};

/// Task-local sink: buffers into the claimed chunk's vector and aborts the
/// traversal once the query stops or the chunk holds `limit` pairs. The
/// per-chunk cap is sound because delivery is cumulative in chunk order:
/// nothing past one chunk's first `limit` pairs can reach the user's sink,
/// so a limit-capped query stops early even when it runs as one task
/// (single worker, small tree, or BRUTE).
class TaskBufferSink final : public PairSink {
 public:
  TaskBufferSink(const QuerySpec& spec, StopToken* stop)
      : spec_(spec), stop_(stop) {}

  /// Points the sink at the claimed chunk's buffer.
  void set_buffer(std::vector<RcjPair>* buffer) { buffer_ = buffer; }

  /// The task's one stop check, run before each chunk claim (`claim`) and
  /// on every buffered pair. With a deadline it also reads the clock — at
  /// every claim and every kClockStride-th pair — and stops the token with
  /// kDeadline once the budget is spent.
  bool Stopped(bool claim) {
    if (stop_->stopped()) return true;
    if (!spec_.has_deadline() || (!claim && ++pairs_ % kClockStride != 0)) {
      return false;
    }
    if (!spec_.deadline_expired(Clock::now())) return false;
    stop_->Stop(StopReason::kDeadline);
    return true;
  }

  bool Emit(const RcjPair& pair) override {
    if (Stopped(/*claim=*/false)) return false;
    buffer_->push_back(pair);
    return spec_.limit == 0 || buffer_->size() < spec_.limit;
  }

 private:
  const QuerySpec& spec_;
  StopToken* stop_;
  std::vector<RcjPair>* buffer_ = nullptr;
  uint32_t pairs_ = 0;
};

/// One schedulable unit: a claimant of its query's chunk cursor. A query
/// spawns min(max_tasks, num_chunks) of these; each loops, claiming and
/// executing chunks until the cursor runs dry or the query stops.
struct EngineTask {
  JoinStats stats;  ///< candidate/result counts accumulated by ExecuteRcj.
  // Buffer accounting of this task's chunks (deltas of the worker pool's
  // counters, so a warm cached pool attributes only this query's work).
  uint64_t node_accesses = 0;
  uint64_t page_faults = 0;
  uint64_t cold_faults = 0;
  uint64_t warm_faults = 0;
  double io_wall_seconds = 0.0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Everything one submitted query owns from Submit() to its DoneFn, shared
/// by its tasks. The last task to finish merges and settles it.
struct QueryRun {
  EngineQuery query;
  Engine::DoneFn done;
  /// The query's leaf order (null when unsplit); emit.leaves points into
  /// it, and holding it here keeps a plan-cache eviction from freeing it.
  std::shared_ptr<const std::vector<uint64_t>> plan;
  EngineQueryResult result;
  /// Delivery target of a query submitted without a sink.
  VectorSink collect{&result.run.pairs};
  QueryEmitState emit;
  std::vector<EngineTask> tasks;
  /// Tasks not yet finished; the one that takes it to zero finishes the
  /// query.
  std::atomic<size_t> unfinished{0};
  /// Set by the first task to start: the query leaves the engine's queue.
  std::atomic<bool> started{false};
  Clock::time_point submitted;
};

/// Announces up to `cap` of a claimed chunk's leaf pages to the backing
/// store before the traversal reads them (PageStore::Prefetch —
/// posix_fadvise/madvise WILLNEED on the file backends, a no-op in memory).
/// The leaf order is computed up front, so this is a perfect prefetch
/// oracle. STR leaves are nearly sequential on disk, so consecutive page
/// numbers are coalesced into single Prefetch ranges — one fadvise/madvise
/// per run instead of one per page.
void PrefetchChunkLeaves(const PageStore& store,
                         const std::vector<uint64_t>& leaves, size_t cap) {
  size_t issued = 0;
  size_t i = 0;
  while (i < leaves.size() && issued < cap) {
    uint64_t start = leaves[i];
    uint64_t count = 1;
    while (i + 1 < leaves.size() && issued + count < cap &&
           leaves[i + 1] == leaves[i] + 1) {
      ++count;
      ++i;
    }
    store.Prefetch(start, count);
    issued += count;
    ++i;
  }
}

/// Records the query's first failure and stops it with kFailed (a later
/// chunk's output would no longer be a serial prefix). Caller holds mu.
void FailQuery(QueryEmitState* st, Status status) {
  if (st->failure.ok()) st->failure = std::move(status);
  st->stop->Stop(StopReason::kFailed);
}

/// Runs `call` against the query's sink. The sink is caller code (or a
/// vector push_back that can hit bad_alloc); a throw must not escape into
/// the thread pool with the frontier half-advanced, so it becomes a
/// per-query failure. Caller holds mu.
template <typename Call>
void CallSink(QueryEmitState* st, const Call& call) {
  try {
    call();
  } catch (const std::exception& e) {
    FailQuery(st, Status::IoError(std::string("result sink threw: ") +
                                  e.what()));
  } catch (...) {
    FailQuery(st, Status::IoError("result sink threw a non-std exception"));
  }
}

/// Marks `range` complete (failed unless `status` is OK) and flushes every
/// ready chunk at the frontier to the delivery sink, in order, until the
/// query stops, then ends the batch (PairSink::EndBatch) if the pass
/// delivered any pair. Called by the worker that finished the chunk; the
/// per-query mutex serializes delivery, so sinks see one thread at a time.
/// Reaching the limit or a sink refusal stops the query with kLimit. Every
/// chunk the frontier passes has its buffer released.
void DeliverReadyRanges(QueryEmitState* st, size_t range,
                        const Status& status) {
  std::lock_guard<std::mutex> lock(st->mu);
  st->range_done[range] =
      status.ok() ? QueryEmitState::kDone : QueryEmitState::kFailed;
  if (!status.ok()) FailQuery(st, status);
  const uint64_t delivered_before = st->delivered;
  for (; st->next_range < st->range_done.size() &&
         st->range_done[st->next_range] != QueryEmitState::kPending;
       ++st->next_range) {
    if (st->range_done[st->next_range] == QueryEmitState::kDone) {
      CallSink(st, [st] {
        for (const RcjPair& pair : st->chunk_pairs[st->next_range]) {
          if (st->stop->stopped()) break;
          ++st->delivered;
          if (!st->sink->Emit(pair) ||
              (st->limit != 0 && st->delivered >= st->limit)) {
            st->stop->Stop(StopReason::kLimit);
          }
        }
      });
    }
    // Delivered, skipped after a stop, or failed: nothing more comes of
    // this chunk, so its pairs stop occupying memory until END.
    std::vector<RcjPair>().swap(st->chunk_pairs[st->next_range]);
  }
  if (st->delivered != delivered_before) {
    CallSink(st, [st] { st->sink->EndBatch(); });
  }
}

/// The task body: claim chunks from the query's cursor until it runs dry
/// (or the query stops), executing each against this worker's cached view
/// — acquired lazily, so a task that never claims a chunk touches no index
/// at all. All failure paths (Status and exceptions) collapse to a failed
/// chunk, which stops the query without poisoning other queries.
void RunTaskChunks(QueryRun* run, const EngineOptions& options,
                   std::vector<std::unique_ptr<WorkerContext>>* contexts,
                   EngineTask* t) {
  const EngineQuery& query = run->query;
  QueryEmitState* emit = &run->emit;
  WorkerView* view = nullptr;
  BufferStats base;

  const auto ensure_view = [&]() -> Status {
    if (view != nullptr) return Status::OK();
    const RcjEnvironment& env = *query.spec.env;
    obs::TraceContext* trace = query.spec.trace;
    const obs::TraceClock::time_point open_start =
        trace != nullptr ? obs::TraceClock::now()
                         : obs::TraceClock::time_point();
    bool opened_fresh = false;
    // Tasks only run on pool workers, so the index is always in range.
    Result<WorkerView*> acquired =
        (*contexts)[ThreadPool::CurrentWorkerIndex()]->Acquire(
            env, WorkerPoolPages(env, options), &opened_fresh);
    if (!acquired.ok()) return acquired.status();
    view = acquired.value();
    if (trace != nullptr) {
      trace->Record(opened_fresh ? "view_open_cold" : "view_open_warm", 2,
                    open_start, obs::TraceClock::now());
    }
    // Snapshot the pool counters so this task charges exactly its own
    // chunks — excluding the header pins of a fresh open (like the old
    // post-open ResetStats) and every earlier query on a warm pool.
    base = view->buffer->stats();
    return Status::OK();
  };

  TaskBufferSink sink(query.spec, emit->stop);
  while (!sink.Stopped(/*claim=*/true)) {
    const size_t chunk =
        emit->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= emit->num_chunks) break;

    // The join code reports errors via Status, but allocation can still
    // throw on oversized result sets; convert to a per-query failure so
    // one starved query never poisons the others (engine.h contract).
    Status status;
    try {
      status = ensure_view();
      if (status.ok()) {
        std::vector<uint64_t> subset;
        const std::vector<uint64_t>* subset_ptr = nullptr;
        if (emit->leaves != nullptr) {
          const size_t begin = chunk * emit->chunk_size;
          const size_t end = std::min(begin + emit->chunk_size,
                                      emit->leaves->size());
          subset.assign(emit->leaves->begin() + begin,
                        emit->leaves->begin() + end);
          subset_ptr = &subset;
        }
        const RcjEnvironment& env = *query.spec.env;
        if (subset_ptr != nullptr) {
          PrefetchChunkLeaves(*env.q_page_store(), subset, kReadaheadLeaves);
        }
        sink.set_buffer(&emit->chunk_pairs[chunk]);
        // Exactly one fragment of the query appends the overlay's delta-Q
        // tail: the last leaf chunk of a split query, or the whole query
        // when it was never split. Chunks deliver in index order, so the
        // merged stream stays identical across thread counts.
        const bool delta_tail = emit->leaves == nullptr ||
                                chunk == emit->num_chunks - 1;
        obs::TraceContext* trace = query.spec.trace;
        const obs::TraceClock::time_point chunk_start =
            trace != nullptr ? obs::TraceClock::now()
                             : obs::TraceClock::time_point();
        status = ExecuteRcj(view->tq_ref(), view->tp_ref(), env.qset(),
                            env.pset(), env.self_join(), query.spec,
                            subset_ptr, delta_tail, &sink, &t->stats);
        if (trace != nullptr) {
          trace->Record("leaf_chunk", 2, chunk_start,
                        obs::TraceClock::now());
        }
      }
    } catch (const std::exception& e) {
      status =
          Status::IoError(std::string("engine task threw: ") + e.what());
    } catch (...) {
      status = Status::IoError("engine task threw a non-std exception");
    }
    DeliverReadyRanges(emit, chunk, status);
    if (!status.ok()) break;
  }

  if (view != nullptr) {
    const BufferStats now = view->buffer->stats();
    t->node_accesses = now.logical_accesses - base.logical_accesses;
    t->page_faults = now.page_faults - base.page_faults;
    t->cold_faults = now.cold_faults - base.cold_faults;
    t->warm_faults = t->page_faults - t->cold_faults;
    t->io_wall_seconds = now.io_wall_seconds - base.io_wall_seconds;
    if (query.spec.trace != nullptr && t->page_faults > 0) {
      // Device wait attributed to this task's chunks; count = faults. The
      // sum across tasks can exceed the exec span's wall time — overlapped
      // waits are the parallel speedup, not an accounting error.
      query.spec.trace->RecordSeconds("io_wall", 2, t->io_wall_seconds,
                                      t->page_faults);
    }
  }
}

/// Takes the query out of the engine's queue (once, by its first task):
/// the queue-wait histogram, the depth gauge and a traced query's
/// queue_wait span all measure submit to first task start.
void MarkStarted(QueryRun* run, std::atomic<size_t>* queued) {
  if (run->started.exchange(true, std::memory_order_relaxed)) return;
  queued->fetch_sub(1, std::memory_order_relaxed);
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.queue_depth->Add(-1);
  const Clock::time_point now = Clock::now();
  metrics.queue_wait_seconds->Observe(
      std::chrono::duration<double>(now - run->submitted).count());
  if (run->query.spec.trace != nullptr) {
    run->query.spec.trace->Record("queue_wait", 1, run->submitted, now);
  }
}

/// The merge, run by the query's last task: delivery already happened in
/// chunk order as tasks completed; here the worker pools' fault accounting
/// is summed, the paper's I/O cost model charged, the status settled, and
/// the DoneFn called.
void FinishQuery(QueryRun* run) {
  EngineQueryResult& result = run->result;
  const QueryEmitState& emit = run->emit;
  const EngineMetrics& metrics = EngineMetrics::Get();
  // The one place a stop reason becomes the query's status. Settling the
  // token keeps a later Stop() from contradicting that status.
  const StopReason reason = emit.stop->Settle();
  if (reason != StopReason::kNone) StopsTotal(reason)->Add();
  if (reason == StopReason::kFailed) {
    result.status = emit.failure.ok() ? StopStatus(reason) : emit.failure;
    // The caller's sink may have received a serial prefix before the
    // failing chunk was reached; the status is the source of truth.
    result.run = RcjRunResult();
  } else {
    result.status = StopStatus(reason);
    double busy_seconds = 0.0;
    Clock::time_point first_start = Clock::time_point::max();
    Clock::time_point last_end = Clock::time_point::min();
    for (const EngineTask& task : run->tasks) {
      first_start = std::min(first_start, task.start);
      last_end = std::max(last_end, task.end);
      result.run.stats.candidates += task.stats.candidates;
      result.run.stats.node_accesses += task.node_accesses;
      result.run.stats.page_faults += task.page_faults;
      result.run.stats.cold_faults += task.cold_faults;
      result.run.stats.warm_faults += task.warm_faults;
      // Summed across tasks: with several workers faulting concurrently
      // this can exceed the query's wall clock — it is total device wait,
      // the overlap is the speedup.
      result.run.stats.io_wall_seconds += task.io_wall_seconds;
      busy_seconds +=
          std::chrono::duration<double>(task.end - task.start).count();
    }
    // Results = pairs actually delivered to the sink (the in-order
    // stream), not the sum of chunk buffers — chunks past a stop may have
    // buffered pairs that were rightly dropped.
    result.run.stats.results = emit.delivered;
    result.run.stats.io_seconds = IoCostModel{run->query.spec.io_ms_per_fault}
                                      .Seconds(result.run.stats.page_faults);
    // Summed execution time of the query's own tasks — comparable to the
    // serial runner's cpu_seconds and never inflated by other queries'
    // tasks interleaving on the pool.
    result.run.stats.cpu_seconds = busy_seconds;
    metrics.queries_total->Add();
    if (last_end > first_start) {
      // The query's wall window across its tasks (first start to last
      // end): what a p50/p99 latency summary should see, not the summed
      // busy time.
      metrics.exec_seconds->Observe(
          std::chrono::duration<double>(last_end - first_start).count());
      if (run->query.spec.trace != nullptr) {
        run->query.spec.trace->Record("exec", 1, first_start, last_end);
      }
    }
  }
  // Destroyed before the task returns, so whatever the callback captured
  // is released as soon as the query is done.
  const Engine::DoneFn done = std::move(run->done);
  done(std::move(result));
}

/// The pool thunk of task `index`: run the claim loop, then finish the
/// query if this was its last task.
void RunTask(const std::shared_ptr<QueryRun>& run, size_t index,
             const EngineOptions& options,
             std::vector<std::unique_ptr<WorkerContext>>* contexts,
             std::atomic<size_t>* queued) {
  MarkStarted(run.get(), queued);
  EngineTask* t = &run->tasks[index];
  t->start = Clock::now();
  try {
    RunTaskChunks(run.get(), options, contexts, t);
  } catch (...) {
    // Chunks already convert their throws; this catches the accounting
    // after them (bad_alloc), so the query still gets its last task.
    std::lock_guard<std::mutex> lock(run->emit.mu);
    FailQuery(&run->emit, Status::IoError("engine task threw"));
  }
  t->end = Clock::now();
  if (run->unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinishQuery(run.get());
  }
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options), pool_(options.num_threads) {
  contexts_.reserve(pool_.num_threads());
  for (size_t i = 0; i < pool_.num_threads(); ++i) {
    contexts_.push_back(
        std::make_unique<WorkerContext>(kCachedEnvsPerWorker));
  }
}

Engine::~Engine() = default;

void Engine::InvalidateCachedViews(const RcjEnvironment* env) {
  for (const std::unique_ptr<WorkerContext>& context : contexts_) {
    context->Invalidate(env);
  }
  std::lock_guard<std::mutex> lock(plan_mu_);
  for (auto it = plan_cache_.begin(); it != plan_cache_.end();) {
    if (env == nullptr || it->env == env) {
      it = plan_cache_.erase(it);
    } else {
      ++it;
    }
  }
}

WorkerContextStats Engine::context_stats() const {
  WorkerContextStats total;
  for (const std::unique_ptr<WorkerContext>& context : contexts_) {
    const WorkerContextStats stats = context->stats();
    total.opens += stats.opens;
    total.reuses += stats.reuses;
    total.evictions += stats.evictions;
    total.invalidations += stats.invalidations;
  }
  return total;
}

Result<Engine::Plan> Engine::LeavesFor(const QuerySpec& spec) {
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    for (auto it = plan_cache_.begin(); it != plan_cache_.end(); ++it) {
      if (it->env != spec.env || it->order != spec.order ||
          it->seed != spec.random_seed) {
        continue;
      }
      if (it->generation == spec.env->generation()) {
        plan_cache_.splice(plan_cache_.begin(), plan_cache_, it);
        return plan_cache_.front().leaves;
      }
      // Same key, older generation: the environment was rebuilt — the
      // plan can never be valid again.
      plan_cache_.erase(it);
      break;
    }
  }

  // A miss walks T_Q through a throwaway private view, outside the lock:
  // planning never touches the environment's shared buffer (a concurrent
  // serial run owns it) nor a worker's cached pool (whose fault counts
  // belong to the queries that run there).
  WorkerView view;
  RINGJOIN_RETURN_IF_ERROR(
      OpenWorkerView(*spec.env, options_.worker_min_buffer_pages, &view));
  auto leaves = std::make_shared<std::vector<uint64_t>>();
  RINGJOIN_RETURN_IF_ERROR(LeafPagesInOrder(view.tq_ref(), spec.order,
                                            spec.random_seed, leaves.get()));

  PlanEntry entry;
  entry.env = spec.env;
  entry.generation = spec.env->generation();
  entry.order = spec.order;
  entry.seed = spec.random_seed;
  entry.leaves = leaves;
  std::lock_guard<std::mutex> lock(plan_mu_);
  plan_cache_.push_front(std::move(entry));
  if (plan_cache_.size() > kPlanCacheCap) plan_cache_.pop_back();
  return Plan(std::move(leaves));
}

void Engine::Submit(EngineQuery query, DoneFn done) {
  auto run = std::make_shared<QueryRun>();
  run->submitted = Clock::now();
  run->query = std::move(query);
  run->done = std::move(done);
  const QuerySpec& spec = run->query.spec;
  QueryEmitState* emit = &run->emit;

  // ---- Plan: one or more claimant tasks over a chunked leaf order. The
  // depth-first (or seeded-shuffle) order is resolved once, here, then
  // chunked, so flushing chunk outputs in order equals the serial run.
  Status planned = spec.Validate();
  if (planned.ok() && spec.algorithm != RcjAlgorithm::kBrute &&
      pool_.num_threads() > 1) {
    try {
      Result<Plan> plan = LeavesFor(spec);
      planned = plan.status();
      if (plan.ok() && plan.value()->size() >= kMinLeavesToSplit) {
        run->plan = std::move(plan).value();
      }
    } catch (const std::exception& e) {
      planned = Status::IoError(std::string("engine planning threw: ") +
                                e.what());
    }
  }
  if (!planned.ok()) {
    run->result.status = planned;
    run->done(std::move(run->result));
    return;
  }

  emit->sink = run->query.sink != nullptr ? run->query.sink : &run->collect;
  emit->stop = spec.stop != nullptr ? spec.stop : &emit->own_stop;
  emit->limit = spec.limit;
  size_t num_tasks = 1;
  if (run->plan != nullptr) {
    const std::vector<uint64_t>& leaves = *run->plan;
    const size_t max_tasks = pool_.num_threads() * kTasksPerThread;
    const size_t chunk =
        std::max<size_t>(1, leaves.size() / (max_tasks * kChunksPerTask));
    emit->leaves = &leaves;
    emit->chunk_size = chunk;
    emit->num_chunks = (leaves.size() + chunk - 1) / chunk;
    num_tasks = std::min(max_tasks, emit->num_chunks);
  }
  emit->range_done.assign(emit->num_chunks, QueryEmitState::kPending);
  emit->chunk_pairs.resize(emit->num_chunks);
  run->tasks.resize(num_tasks);
  run->unfinished.store(num_tasks, std::memory_order_relaxed);

  // ---- Execute: the tasks join the pool's one FIFO queue, interleaving
  // with every other query's. The last one to finish merges the query.
  queued_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::Get().queue_depth->Add(1);
  size_t queued_tasks = 0;
  try {
    for (; queued_tasks < num_tasks; ++queued_tasks) {
      pool_.Submit([this, run, i = queued_tasks] {
        RunTask(run, i, options_, &contexts_, &queued_);
      });
    }
  } catch (...) {
    // Out of memory queueing a task: fail the query, and let the tasks
    // already queued (or this thread, when there are none) finish it.
    {
      std::lock_guard<std::mutex> lock(emit->mu);
      FailQuery(emit, Status::IoError("engine could not queue a task"));
    }
    const size_t missing = num_tasks - queued_tasks;
    if (run->unfinished.fetch_sub(missing, std::memory_order_acq_rel) ==
        missing) {
      MarkStarted(run.get(), &queued_);
      FinishQuery(run.get());
    }
  }
}

std::vector<EngineQueryResult> Engine::RunBatch(
    const std::vector<EngineQuery>& queries) {
  std::vector<EngineQueryResult> results(queries.size());
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = queries.size();
  const auto wait_submitted = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    try {
      Submit(queries[i], [&, i](EngineQueryResult result) {
        std::lock_guard<std::mutex> lock(mu);
        results[i] = std::move(result);
        // Notified under the lock: this frame may return the moment the
        // lock is released.
        if (--remaining == 0) cv.notify_all();
      });
    } catch (...) {
      // The queries already submitted point into this frame: wait them
      // out before unwinding it.
      {
        std::lock_guard<std::mutex> lock(mu);
        remaining -= queries.size() - i;
      }
      wait_submitted();
      throw;
    }
  }
  wait_submitted();
  return results;
}

Result<RcjRunResult> Engine::Run(const QuerySpec& spec) {
  std::vector<EngineQuery> batch(1);
  batch[0].spec = spec;
  std::vector<EngineQueryResult> results = RunBatch(batch);
  if (!results[0].status.ok()) return results[0].status;
  return std::move(results[0].run);
}

Status Engine::Run(const QuerySpec& spec, PairSink* sink, JoinStats* stats) {
  std::vector<EngineQuery> batch(1);
  batch[0].spec = spec;
  batch[0].sink = sink;
  std::vector<EngineQueryResult> results = RunBatch(batch);
  if (!results[0].status.ok()) return results[0].status;
  *stats = results[0].run.stats;
  return Status::OK();
}

}  // namespace rcj
