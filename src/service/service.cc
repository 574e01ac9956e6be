#include "service/service.h"

#include <utility>

namespace rcj {
namespace {

/// Discards pairs when the caller submitted without a sink (stats-only).
class NullSink final : public PairSink {
 public:
  bool Emit(const RcjPair&) override { return true; }
};

NullSink* SharedNullSink() {
  static NullSink sink;  // stateless, safe to share across threads
  return &sink;
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

/// Fires the completion hook, then resolves the ticket — so by the time
/// any Wait()er wakes, the hook's side effects (an admission ledger
/// counting the query, its slot freed) are visible; freeing the slot a
/// moment before the Wait()er wakes is harmless, the reverse order would
/// make a STATS probe after END racy.
void Service::Resolve(QueryTicket::State* state, const DoneCallback& on_done,
                      const Status& status, const JoinStats& stats) {
  if (on_done) on_done(status);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->status = status;
    state->stats = stats;
    state->done = true;
  }
  state->cv.notify_all();
}

Service::Service(ServiceOptions options) : engine_(options.engine) {}

Service::~Service() { Shutdown(); }

void Service::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    drained_.wait(lock, [this] { return running_ == 0; });
  }
  // Every submitted query has resolved and no new one reaches the engine:
  // drop every cached worker view and plan. From here the caller may
  // destroy its environments — a stopped service never opens views again.
  engine_.InvalidateCachedViews();
}

void Service::InvalidateEnvironment(const RcjEnvironment* env) {
  engine_.InvalidateCachedViews(env);
}

QueryTicket Service::Submit(const QuerySpec& spec, PairSink* sink,
                            DoneCallback on_done) {
  auto state = std::make_shared<QueryTicket::State>();
  QueryTicket ticket(state);
  bool stopped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped = stopping_;
    if (!stopped) ++running_;
  }
  if (stopped) {
    // Resolving here keeps the ticket contract — every Submit ends in a
    // resolved ticket, never a hang — without touching the drained engine.
    Resolve(state.get(), on_done, Status::Cancelled("service is shut down"),
            JoinStats());
    return ticket;
  }

  // A query stopped before its first task starts still runs through the
  // engine, which resolves it before its first chunk claim without
  // touching an index.
  EngineQuery query;
  query.spec = spec;
  query.sink = sink != nullptr ? sink : SharedNullSink();
  engine_.Submit(std::move(query), [this, state, on_done = std::move(on_done)](
                                       EngineQueryResult result) mutable {
    Resolve(state.get(), on_done, result.status, result.run.stats);
    // Release the hook's captures (a live snapshot pin) before Shutdown
    // can observe the query as done.
    on_done = nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    // Notified under the lock: Shutdown may return, and the service die,
    // the moment it is released.
    if (--running_ == 0) drained_.notify_all();
  });
  return ticket;
}

size_t Service::pending() const { return engine_.queued(); }

}  // namespace rcj
