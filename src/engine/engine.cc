#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <mutex>

#include "core/index_join.h"
#include "core/stop_token.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/rtree.h"
#include "storage/buffer_manager.h"
#include "storage/cost_model.h"

namespace rcj {

/// One window onto an environment's indexes: private read-only RTree views
/// faulting through a private LRU pool that stays warm for the view's
/// lifetime.
struct WorkerView {
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RTree> tq;
  std::unique_ptr<RTree> tp;  // null for self-joins (aliases tq)

  const RTree& tq_ref() const { return *tq; }
  const RTree& tp_ref() const { return tp != nullptr ? *tp : *tq; }
};

namespace {

using Clock = std::chrono::steady_clock;

/// Environments the engine keeps warm at once; the least recently used
/// entry beyond the cap is dropped (its leaf order, views and pools).
constexpr size_t kCachedEnvironments = 4;

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

/// Opens a view over `env` with a fresh pool of `pool_pages`.
Status OpenWorkerView(const RcjEnvironment& env, size_t pool_pages,
                      WorkerView* view) {
  view->buffer = std::make_unique<BufferManager>(pool_pages);

  Result<std::unique_ptr<RTree>> tq =
      RTree::Open(env.q_page_store(), view->buffer.get());
  if (!tq.ok()) return tq.status();
  view->tq = std::move(tq).value();

  if (!env.self_join()) {
    Result<std::unique_ptr<RTree>> tp =
        RTree::Open(env.p_page_store(), view->buffer.get());
    if (!tp.ok()) return tp.status();
    view->tp = std::move(tp).value();
  }
  return Status::OK();
}

/// Discards pairs of a query submitted without a sink (stats-only).
class NullSink final : public PairSink {
 public:
  bool Emit(const RcjPair&) override { return true; }
};

NullSink* SharedNullSink() {
  static NullSink sink;  // stateless, safe to share across threads
  return &sink;
}

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
  /// Final delivery target: the caller's sink, or the shared NullSink.
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
  /// The query's full T_Q leaf order (QueryRun::entry or ::shuffled), or
  /// null when the query runs as one unsplit task (BRUTE, small tree, one
  /// worker).
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

}  // namespace

/// One environment in the engine's cache, keyed by (env, generation). A
/// query holds its entry from Submit() to its DoneFn, so a drop from the
/// cache frees nothing a running query uses.
struct EnvCacheEntry {
  EnvCacheEntry(const RcjEnvironment& e, size_t workers)
      : env(&e), generation(e.generation()), views(workers) {}

  const RcjEnvironment* env;
  uint64_t generation;
  /// Guards `walked` and `leaves`.
  std::mutex mu;
  bool walked = false;
  /// T_Q's depth-first leaf order, walked by the entry's first split query.
  std::vector<uint64_t> leaves;
  /// One lazily opened view per worker, indexed by
  /// ThreadPool::CurrentWorkerIndex(). Only that worker touches its slot,
  /// and turns on one worker never overlap, so the slots need no lock.
  std::vector<std::unique_ptr<WorkerView>> views;
  /// Views opened so far: what a drop of the entry counts.
  std::atomic<uint64_t> open_views{0};
};

/// Everything one submitted query owns from Submit() to its DoneFn, shared
/// by its tasks. The last task to finish merges and settles it.
struct QueryRun {
  EngineQuery query;
  Engine::DoneFn on_done;
  QueryTicket ticket;
  /// The environment's cache entry: its views, and the leaf order
  /// emit.leaves points into for a depth-first split query.
  std::shared_ptr<EnvCacheEntry> entry;
  /// A random-order split query's own shuffle of the entry's order.
  std::vector<uint64_t> shuffled;
  /// Settled by FinishQuery (or by Submit for a query that never ran).
  Status status;
  JoinStats stats;
  QueryEmitState emit;
  /// One entry per claimant task of the query's chunk cursor — the
  /// schedulable unit, min(max_tasks, num_chunks) of them. Each runs one
  /// chunk per turn until the cursor runs dry or the query stops; turns of
  /// one task never overlap, so its entry needs no lock.
  std::vector<JoinStats> tasks;
  /// Tasks not yet finished; the one that takes it to zero finishes the
  /// query.
  std::atomic<size_t> unfinished{0};
  /// Set by the first task to start: the query leaves the engine's queue.
  std::atomic<bool> started{false};
  Clock::time_point submitted;
  Clock::time_point started_at;
};

namespace {

/// Announces up to `cap` of a claimed chunk's leaf pages to the backing
/// store before the traversal reads them (PageStore::Prefetch). Only the
/// file backend's buffered fallback acts on it, with posix_fadvise
/// WILLNEED; while the file store reads with O_DIRECT (every filesystem
/// that accepts it) Prefetch returns at once, and in memory it is a no-op.
/// The leaf order is computed up front, so this is a perfect prefetch
/// oracle. STR leaves are nearly sequential on disk, so consecutive page
/// numbers are coalesced into single Prefetch ranges — one fadvise per run
/// instead of one per page.
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

/// This worker's view in the query's cache entry, opened on first use.
/// Counts the open or the reuse in `opens` / `reuses`.
Result<WorkerView*> WorkerViewFor(QueryRun* run, const EngineOptions& options,
                                  obs::OutcomeCounter* opens,
                                  obs::OutcomeCounter* reuses,
                                  bool* opened_fresh) {
  // Tasks only run on pool workers, so the index is always in range.
  std::unique_ptr<WorkerView>& slot =
      run->entry->views[ThreadPool::CurrentWorkerIndex()];
  *opened_fresh = slot == nullptr;
  if (slot != nullptr) {
    reuses->Add();
    return slot.get();
  }
  const RcjEnvironment& env = *run->query.spec.env;
  auto view = std::make_unique<WorkerView>();
  RINGJOIN_RETURN_IF_ERROR(
      OpenWorkerView(env, WorkerPoolPages(env, options), view.get()));
  slot = std::move(view);
  run->entry->open_views.fetch_add(1, std::memory_order_relaxed);
  opens->Add();
  return slot.get();
}

/// One turn of a claimant: checks the stop, claims the next chunk and
/// executes it against this worker's view of the query's cache entry —
/// looked up per turn, since the task may run anywhere next — charging the
/// pool's counter deltas (so a warm cached pool attributes only this
/// query's work) and the turn's duration to `t`. True when a chunk ran
/// cleanly (the task comes back for another); false once the query
/// stopped, the cursor ran dry or the chunk failed. All failure paths
/// (Status and exceptions) collapse to a failed chunk, which stops the
/// query without poisoning other queries.
bool RunOneChunk(QueryRun* run, const EngineOptions& options,
                 obs::OutcomeCounter* opens, obs::OutcomeCounter* reuses,
                 JoinStats* t) {
  const EngineQuery& query = run->query;
  QueryEmitState* emit = &run->emit;
  TaskBufferSink sink(query.spec, emit->stop);
  if (sink.Stopped(/*claim=*/true)) return false;
  const size_t chunk =
      emit->next_chunk.fetch_add(1, std::memory_order_relaxed);
  if (chunk >= emit->num_chunks) return false;

  const Clock::time_point start = Clock::now();
  const RcjEnvironment& env = *query.spec.env;
  obs::TraceContext* trace = query.spec.trace;
  // The join code reports errors via Status, but allocation can still
  // throw on oversized result sets; convert to a per-query failure so
  // one starved query never poisons the others (engine.h contract).
  Status status;
  try {
    const obs::TraceClock::time_point open_start =
        trace != nullptr ? obs::TraceClock::now()
                         : obs::TraceClock::time_point();
    bool opened_fresh = false;
    Result<WorkerView*> acquired =
        WorkerViewFor(run, options, opens, reuses, &opened_fresh);
    status = acquired.status();
    if (status.ok()) {
      WorkerView* view = acquired.value();
      if (trace != nullptr) {
        trace->Record(opened_fresh ? "view_open_cold" : "view_open_warm", 2,
                      open_start, obs::TraceClock::now());
      }
      std::vector<uint64_t> subset;
      const std::vector<uint64_t>* subset_ptr = nullptr;
      if (emit->leaves != nullptr) {
        const size_t begin = chunk * emit->chunk_size;
        const size_t end =
            std::min(begin + emit->chunk_size, emit->leaves->size());
        subset.assign(emit->leaves->begin() + begin,
                      emit->leaves->begin() + end);
        subset_ptr = &subset;
        PrefetchChunkLeaves(*env.q_page_store(), subset, kReadaheadLeaves);
      }
      sink.set_buffer(&emit->chunk_pairs[chunk]);
      // Exactly one fragment of the query appends the overlay's delta-Q
      // tail: the last leaf chunk of a split query, or the whole query
      // when it was never split. Chunks deliver in index order, so the
      // merged stream stays identical across thread counts.
      const bool delta_tail =
          emit->leaves == nullptr || chunk == emit->num_chunks - 1;
      // Snapshot the pool counters so this turn charges exactly its own
      // chunk — excluding the header pins of a fresh open and every other
      // query's work on a warm pool.
      const BufferStats base = view->buffer->stats();
      const obs::TraceClock::time_point chunk_start =
          trace != nullptr ? obs::TraceClock::now()
                           : obs::TraceClock::time_point();
      status = ExecuteRcj(view->tq_ref(), view->tp_ref(), env.qset(),
                          env.pset(), env.self_join(), query.spec,
                          subset_ptr, delta_tail, &sink, t);
      const BufferStats now = view->buffer->stats();
      const uint64_t faults = now.page_faults - base.page_faults;
      const double io_wall = now.io_wall_seconds - base.io_wall_seconds;
      t->node_accesses += now.logical_accesses - base.logical_accesses;
      t->page_faults += faults;
      t->cold_faults += now.cold_faults - base.cold_faults;
      t->io_wall_seconds += io_wall;
      if (trace != nullptr) {
        trace->Record("leaf_chunk", 2, chunk_start, obs::TraceClock::now());
        // Device wait of this chunk; count = faults. The sum across tasks
        // can exceed the exec span's wall time — overlapped waits are the
        // parallel speedup, not an accounting error.
        if (faults > 0) trace->RecordSeconds("io_wall", 2, io_wall, faults);
      }
    }
  } catch (const std::exception& e) {
    status = Status::IoError(std::string("engine task threw: ") + e.what());
  } catch (...) {
    status = Status::IoError("engine task threw a non-std exception");
  }
  DeliverReadyRanges(emit, chunk, status);
  // Time queued between turns is not work.
  t->cpu_seconds +=
      std::chrono::duration<double>(Clock::now() - start).count();
  return status.ok();
}

/// Takes the query out of the engine's queue (once, by its first task):
/// the queue-wait histogram, the depth gauge and a traced query's
/// queue_wait span all measure submit to first task start.
void MarkStarted(QueryRun* run, std::atomic<size_t>* queued) {
  if (run->started.exchange(true, std::memory_order_relaxed)) return;
  const Clock::time_point now = Clock::now();
  run->started_at = now;
  queued->fetch_sub(1, std::memory_order_relaxed);
  if (run->query.partition != nullptr) {
    run->query.partition->queued.fetch_sub(1, std::memory_order_relaxed);
  }
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.queue_depth->Add(-1);
  metrics.queue_wait_seconds->Observe(
      std::chrono::duration<double>(now - run->submitted).count());
  if (run->query.spec.trace != nullptr) {
    run->query.spec.trace->Record("queue_wait", 1, run->submitted, now);
  }
}

/// The merge, run by the query's last task: delivery already happened in
/// chunk order as tasks completed; here the worker pools' fault accounting
/// is summed, the paper's I/O cost model charged and the status settled.
void FinishQuery(QueryRun* run) {
  const QueryEmitState& emit = run->emit;
  const EngineMetrics& metrics = EngineMetrics::Get();
  // The one place a stop reason becomes the query's status. Settling the
  // token keeps a later Stop() from contradicting that status.
  const StopReason reason = emit.stop->Settle();
  if (reason != StopReason::kNone) StopsTotal(reason)->Add();
  if (reason == StopReason::kFailed) {
    // The caller's sink may have received a serial prefix before the
    // failing chunk was reached; the status is the source of truth.
    run->status = emit.failure.ok() ? StopStatus(reason) : emit.failure;
    return;
  }
  run->status = StopStatus(reason);
  JoinStats& stats = run->stats;
  for (const JoinStats& task : run->tasks) {
    stats.candidates += task.candidates;
    stats.node_accesses += task.node_accesses;
    stats.page_faults += task.page_faults;
    stats.cold_faults += task.cold_faults;
    // Summed across tasks: with several workers faulting concurrently
    // this can exceed the query's wall clock — it is total device wait,
    // the overlap is the speedup.
    stats.io_wall_seconds += task.io_wall_seconds;
    // Summed turns of the query's own tasks — comparable to the serial
    // runner's cpu_seconds and never inflated by other queries' tasks
    // interleaving on the pool.
    stats.cpu_seconds += task.cpu_seconds;
  }
  stats.warm_faults = stats.page_faults - stats.cold_faults;
  // Results = pairs actually delivered to the sink (the in-order stream),
  // not the sum of chunk buffers — chunks past a stop may have buffered
  // pairs that were rightly dropped.
  stats.results = emit.delivered;
  stats.io_seconds =
      IoCostModel{run->query.spec.io_ms_per_fault}.Seconds(stats.page_faults);
  metrics.queries_total->Add();
  // The query's wall window (first task start to last task end): what a
  // p50/p99 latency summary should see, not the summed busy time.
  const Clock::time_point end = Clock::now();
  if (end > run->started_at) {
    metrics.exec_seconds->Observe(
        std::chrono::duration<double>(end - run->started_at).count());
    if (run->query.spec.trace != nullptr) {
      run->query.spec.trace->Record("exec", 1, run->started_at, end);
    }
  }
}

}  // namespace

Status QueryTicket::Wait() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->status;
}

bool QueryTicket::TryGet(Status* status) {
  std::lock_guard<std::mutex> lock(state_->mu);
  if (!state_->done) return false;
  if (status != nullptr) *status = state_->status;
  return true;
}

JoinStats QueryTicket::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

Engine::Engine(EngineOptions options)
    : options_(options), pool_(options.num_threads) {}

Engine::~Engine() { Shutdown(); }

void Engine::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    drained_.wait(lock, [this] { return running_ == 0; });
  }
  // Every submitted query has resolved and no new one reaches the pool:
  // free every cached view now rather than at destruction.
  InvalidateCachedViews();
}

/// Fires the completion hook, then resolves the ticket — so by the time
/// any Wait()er wakes, the hook's side effects (an admission ledger
/// counting the query, its slot freed) are visible; freeing the slot a
/// moment before the Wait()er wakes is harmless, the reverse order would
/// make a STATS probe after END racy.
void Engine::Resolve(QueryRun* run) {
  if (run->on_done) run->on_done(run->status);
  // Release the hook's captures (a live snapshot pin) before Shutdown can
  // observe the query as done.
  run->on_done = nullptr;
  QueryTicket::State* state = run->ticket.state_.get();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->status = run->status;
    state->stats = run->stats;
    state->done = true;
  }
  state->cv.notify_all();
}

void Engine::Finish(QueryRun* run) {
  Resolve(run);
  std::lock_guard<std::mutex> lock(mu_);
  // Notified under the lock: Shutdown may return, and the engine die, the
  // moment it is released.
  if (--running_ == 0) drained_.notify_all();
}

void Engine::Schedule(const std::shared_ptr<QueryRun>& run, size_t index,
                      bool fresh) {
  auto turn = [this, run, index] { RunTask(run, index); };
  if (fresh) {
    pool_.Submit(std::move(turn));
    return;
  }
  pool_.Yield(std::move(turn),
              reinterpret_cast<uintptr_t>(run->query.partition),
              static_cast<uint64_t>(run->submitted.time_since_epoch().count()));
}

void Engine::RunTask(const std::shared_ptr<QueryRun>& run, size_t index) {
  MarkStarted(run.get(), &queued_);
  bool again = false;
  try {
    again = RunOneChunk(run.get(), options_, &view_opens_, &view_reuses_,
                        &run->tasks[index]);
    if (again) Schedule(run, index, /*fresh=*/false);
  } catch (...) {
    // Chunks already convert their throws; this catches the accounting
    // around them and a failed requeue (bad_alloc), so the query still
    // gets its last task.
    again = false;
    std::lock_guard<std::mutex> lock(run->emit.mu);
    FailQuery(&run->emit, Status::IoError("engine task threw"));
  }
  if (again) return;
  if (run->unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinishQuery(run.get());
    Finish(run.get());
  }
}

void Engine::DropLocked(
    EntryList::iterator it, bool evicted,
    std::vector<std::shared_ptr<EnvCacheEntry>>* dropped) {
  (evicted ? view_evictions_ : view_invalidations_)
      .Add((*it)->open_views.load(std::memory_order_relaxed));
  dropped->push_back(std::move(*it));
  cache_.erase(it);
}

void Engine::InvalidateCachedViews(const RcjEnvironment* env) {
  // Declared before the lock: the entries are freed after it is released.
  std::vector<std::shared_ptr<EnvCacheEntry>> dropped;
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (auto it = cache_.begin(); it != cache_.end();) {
    const auto next = std::next(it);
    if (env == nullptr || (*it)->env == env) {
      DropLocked(it, /*evicted=*/false, &dropped);
    }
    it = next;
  }
}

WorkerContextStats Engine::context_stats() const {
  WorkerContextStats stats;
  stats.opens = view_opens_.value();
  stats.reuses = view_reuses_.value();
  stats.evictions = view_evictions_.value();
  stats.invalidations = view_invalidations_.value();
  return stats;
}

size_t Engine::cached_environments() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

std::shared_ptr<EnvCacheEntry> Engine::EntryFor(const RcjEnvironment& env) {
  std::vector<std::shared_ptr<EnvCacheEntry>> dropped;
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if ((*it)->env != &env) continue;
    if ((*it)->generation == env.generation()) {
      cache_.splice(cache_.begin(), cache_, it);
      return cache_.front();
    }
    // Same address, new generation: the environment was rebuilt, so the
    // entry can never serve again.
    DropLocked(it, /*evicted=*/false, &dropped);
    break;
  }
  cache_.push_front(std::make_shared<EnvCacheEntry>(env, pool_.num_threads()));
  while (cache_.size() > kCachedEnvironments) {
    DropLocked(std::prev(cache_.end()), /*evicted=*/true, &dropped);
  }
  return cache_.front();
}

Status Engine::PlanLeaves(QueryRun* run) {
  const QuerySpec& spec = run->query.spec;
  EnvCacheEntry* entry = run->entry.get();
  std::lock_guard<std::mutex> lock(entry->mu);
  if (!entry->walked) {
    // Walked through a throwaway private view: the walk never touches the
    // environment's shared buffer (a concurrent serial run owns it) nor a
    // worker's pool (whose fault counts belong to the queries run there).
    WorkerView view;
    RINGJOIN_RETURN_IF_ERROR(
        OpenWorkerView(*spec.env, options_.worker_min_buffer_pages, &view));
    RINGJOIN_RETURN_IF_ERROR(LeafPagesInOrder(
        view.tq_ref(), SearchOrder::kDepthFirst, 0, &entry->leaves));
    entry->walked = true;
  }
  if (entry->leaves.size() < kMinLeavesToSplit) return Status::OK();
  if (spec.order == SearchOrder::kDepthFirst) {
    run->emit.leaves = &entry->leaves;
    return Status::OK();
  }
  run->shuffled = entry->leaves;
  ApplySearchOrder(spec.order, spec.random_seed, &run->shuffled);
  run->emit.leaves = &run->shuffled;
  return Status::OK();
}

QueryTicket Engine::Submit(EngineQuery query, DoneFn on_done) {
  auto run = std::make_shared<QueryRun>();
  run->submitted = Clock::now();
  run->query = std::move(query);
  run->on_done = std::move(on_done);
  run->ticket = QueryTicket(std::make_shared<QueryTicket::State>());
  const QueryTicket ticket = run->ticket;
  bool stopped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped = stopping_;
    if (!stopped) ++running_;
  }
  if (stopped) {
    // Resolving here keeps the ticket contract — every Submit ends in a
    // resolved ticket, never a hang — without touching the drained pool.
    run->status = Status::Cancelled("engine is shut down");
    Resolve(run.get());
    return ticket;
  }
  const QuerySpec& spec = run->query.spec;
  QueryEmitState* emit = &run->emit;

  // ---- Plan: one or more claimant tasks over a chunked leaf order. The
  // depth-first (or seeded-shuffle) order is resolved once, here, then
  // chunked, so flushing chunk outputs in order equals the serial run.
  Status planned = spec.Validate();
  if (planned.ok()) {
    try {
      run->entry = EntryFor(*spec.env);
      if (spec.algorithm != RcjAlgorithm::kBrute && pool_.num_threads() > 1) {
        planned = PlanLeaves(run.get());
      }
    } catch (const std::exception& e) {
      planned = Status::IoError(std::string("engine planning threw: ") +
                                e.what());
    }
  }
  if (!planned.ok()) {
    run->status = planned;
    Finish(run.get());
    return ticket;
  }

  emit->sink =
      run->query.sink != nullptr ? run->query.sink : SharedNullSink();
  emit->stop = spec.stop != nullptr ? spec.stop : &emit->own_stop;
  emit->limit = spec.limit;
  size_t num_tasks = 1;
  if (emit->leaves != nullptr) {
    const std::vector<uint64_t>& leaves = *emit->leaves;
    const size_t max_tasks = pool_.num_threads() * kTasksPerThread;
    const size_t chunk =
        std::max<size_t>(1, leaves.size() / (max_tasks * kChunksPerTask));
    emit->chunk_size = chunk;
    emit->num_chunks = (leaves.size() + chunk - 1) / chunk;
    num_tasks = std::min(max_tasks, emit->num_chunks);
  }
  emit->range_done.assign(emit->num_chunks, QueryEmitState::kPending);
  emit->chunk_pairs.resize(emit->num_chunks);
  run->tasks.resize(num_tasks);
  run->unfinished.store(num_tasks, std::memory_order_relaxed);

  // ---- Execute: the first task joins the pool's fresh queue, ahead of
  // every yielded turn, and the rest queue as yielded turns of the
  // partition. The last one to finish merges the query.
  queued_.fetch_add(1, std::memory_order_relaxed);
  if (run->query.partition != nullptr) {
    run->query.partition->queued.fetch_add(1, std::memory_order_relaxed);
  }
  EngineMetrics::Get().queue_depth->Add(1);
  size_t queued_tasks = 0;
  try {
    for (; queued_tasks < num_tasks; ++queued_tasks) {
      Schedule(run, queued_tasks, /*fresh=*/queued_tasks == 0);
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
      Finish(run.get());
    }
  }
  return ticket;
}

std::vector<EngineQueryResult> Engine::RunBatch(
    const std::vector<EngineQuery>& queries) {
  std::vector<EngineQueryResult> results(queries.size());
  // A query without a sink collects into its result slot; both vectors
  // are sized up front, so the pointers stay put.
  std::vector<VectorSink> collectors;
  collectors.reserve(queries.size());
  std::vector<QueryTicket> tickets;
  tickets.reserve(queries.size());
  try {
    for (size_t i = 0; i < queries.size(); ++i) {
      EngineQuery query = queries[i];
      if (query.sink == nullptr) {
        collectors.emplace_back(&results[i].run.pairs);
        query.sink = &collectors.back();
      }
      tickets.push_back(Submit(std::move(query)));
    }
  } catch (...) {
    // The queries already submitted point into this frame: wait them out
    // before unwinding it.
    for (QueryTicket& ticket : tickets) ticket.Wait();
    throw;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    EngineQueryResult& result = results[i];
    result.status = tickets[i].Wait();
    result.run.stats = tickets[i].stats();
    const StatusCode code = result.status.code();
    if (!result.status.ok() && code != StatusCode::kCancelled &&
        code != StatusCode::kDeadlineExceeded) {
      // A failed query's serial prefix is no answer.
      result.run.pairs.clear();
    }
  }
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
  QueryTicket ticket = Submit(EngineQuery{spec, sink});
  RINGJOIN_RETURN_IF_ERROR(ticket.Wait());
  *stats = ticket.stats();
  return Status::OK();
}

}  // namespace rcj
