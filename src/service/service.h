// rcj::Service — the asynchronous front end of the ringjoin stack.
//
// RcjEnvironment::Run executes one query and blocks; a middleman-location
// service cannot block its request path on a join. Service::Submit() hands
// a QuerySpec straight to an owned Engine (Engine::Submit plans the query,
// queues its tasks and returns) and gives back a QueryTicket immediately.
// The ticket resolves when the query's own tasks finish — never behind an
// unrelated query. Result pairs stream to the caller's PairSink in exact
// serial order as leaf-range tasks complete (the engine's ordered flush),
// so the head of a result is available while the tail is still being
// joined, and a QuerySpec::limit stops a query's remaining work the
// moment its top-k prefix has been delivered.
//
// To cancel, stop the query's StopToken (QuerySpec::stop) with
// StopReason::kCancelled from any thread: the engine ends the query before
// its first chunk claim if it is still queued, within a few pairs if it is
// running, and the ticket resolves as Cancelled. A stop that lands after
// the query finished changes nothing.
//
// This is the layer a network protocol sits on: one Service per shard,
// one ticket + sink per connection.
#ifndef RINGJOIN_SERVICE_SERVICE_H_
#define RINGJOIN_SERVICE_SERVICE_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

#include "common/macros.h"
#include "common/status.h"
#include "core/stop_token.h"
#include "engine/engine.h"

namespace rcj {

/// Service-wide knobs, fixed at construction.
struct ServiceOptions {
  /// Knobs of the owned execution engine (worker threads, per-worker
  /// buffer sizing).
  EngineOptions engine;
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
  friend class Service;
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

/// Asynchronous query service over a set of built RcjEnvironments. Owns an
/// Engine; Submit() never blocks on join work. Destruction completes every
/// already-submitted query, then stops.
class Service {
 public:
  /// Invoked exactly once per submitted query, with its final status,
  /// immediately before the ticket becomes observable as done — so by the
  /// time any Wait()er wakes, the callback's side effects (e.g. an
  /// admission ledger counting the query and freeing its slot) are
  /// visible. Runs on an engine worker (or inline in Submit for a query
  /// that fails validation or planning, and after Shutdown). Must not
  /// block on another query of the same Service.
  using DoneCallback = std::function<void(const Status&)>;

  explicit Service(ServiceOptions options = {});
  ~Service();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(Service);

  /// Submits `spec` and returns immediately with a ticket. `sink` receives
  /// the query's pairs in exact serial order, invoked from engine workers;
  /// it may be null to discard pairs (stats-only probes). Both the
  /// sink and spec.env must stay alive until the ticket reports done.
  /// Invalid specs are not rejected here — the ticket resolves (before
  /// Submit returns) with the validation error, so submission stays
  /// uniform. The same covers a stopped service: after Shutdown() the
  /// ticket resolves immediately as Cancelled, and `on_done` still fires,
  /// so no caller slot ever leaks.
  QueryTicket Submit(const QuerySpec& spec, PairSink* sink,
                     DoneCallback on_done = nullptr);

  /// Completes every already-submitted query, then drops every cached
  /// worker view — after Shutdown() returns, no engine worker holds views
  /// over any environment, so the caller may destroy them. Idempotent from
  /// the owning thread; also run by the destructor. After Shutdown(),
  /// Submit() keeps working but resolves every ticket as Cancelled without
  /// running it. Must not be called from a DoneCallback or a sink.
  void Shutdown();

  /// Drops every cached worker view (and cached plan) for `env` from the
  /// owned engine — the hook to pull before destroying or rebuilding an
  /// environment mid-service. The caller must first ensure no submitted
  /// query still targets `env` (stop their tokens and wait them out); once
  /// this returns, the engine holds nothing over its page stores. Safe from
  /// any thread, including a DoneCallback, while other queries run.
  void InvalidateEnvironment(const RcjEnvironment* env);

  /// Queries submitted whose first task has not started yet (the owned
  /// engine's queue depth). Running queries are not counted.
  size_t pending() const;

  size_t num_threads() const { return engine_.num_threads(); }

 private:
  static void Resolve(QueryTicket::State* state, const DoneCallback& on_done,
                      const Status& status, const JoinStats& stats);

  mutable std::mutex mu_;
  std::condition_variable drained_;
  /// Queries handed to the engine whose ticket has not resolved yet.
  size_t running_ = 0;
  bool stopping_ = false;
  /// Declared last, so it is destroyed first: its workers are joined
  /// before the members their done callbacks touch go away.
  Engine engine_;
};

}  // namespace rcj

#endif  // RINGJOIN_SERVICE_SERVICE_H_
