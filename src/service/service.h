// rcj::Service — a forwarding shim over rcj::Engine, kept for callers that
// still compile against it. It has no logic of its own: Submit() hands the
// spec to the owned Engine, whose QueryTicket, DoneFn, Shutdown() drain and
// view invalidation are the real mechanism (engine.h). New code should
// construct an Engine directly.
#ifndef RINGJOIN_SERVICE_SERVICE_H_
#define RINGJOIN_SERVICE_SERVICE_H_

#include <cstddef>
#include <utility>

#include "common/macros.h"
#include "engine/engine.h"

namespace rcj {

/// Service-wide knobs: those of the owned engine.
struct ServiceOptions {
  EngineOptions engine;
};

/// Owns an Engine and forwards to it.
class Service {
 public:
  using DoneCallback = Engine::DoneFn;

  explicit Service(ServiceOptions options = {}) : engine_(options.engine) {}

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(Service);

  /// Engine::Submit with `sink` and `on_done`.
  QueryTicket Submit(const QuerySpec& spec, PairSink* sink,
                     DoneCallback on_done = nullptr) {
    return engine_.Submit(EngineQuery{spec, sink}, std::move(on_done));
  }

  /// Engine::Shutdown.
  void Shutdown() { engine_.Shutdown(); }

  /// Engine::InvalidateCachedViews for one environment.
  void InvalidateEnvironment(const RcjEnvironment* env) {
    engine_.InvalidateCachedViews(env);
  }

  /// Engine::queued: submitted queries whose first task has not started.
  size_t pending() const { return engine_.queued(); }

  size_t num_threads() const { return engine_.num_threads(); }

 private:
  Engine engine_;
};

}  // namespace rcj

#endif  // RINGJOIN_SERVICE_SERVICE_H_
