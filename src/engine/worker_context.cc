#include "engine/worker_context.h"

#include <utility>

#include "obs/metrics.h"

namespace rcj {
namespace {

/// The registry mirrors of WorkerContextStats, shared by every context
/// (the per-context split stays available via Engine::context_stats()).
struct ViewCacheMetrics {
  obs::Counter* opens;
  obs::Counter* reuses;
  obs::Counter* evictions;
  obs::Counter* invalidations;

  static const ViewCacheMetrics& Get() {
    static const ViewCacheMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      ViewCacheMetrics m;
      m.opens = registry.counter("rcj_worker_view_opens_total");
      m.reuses = registry.counter("rcj_worker_view_reuses_total");
      m.evictions = registry.counter("rcj_worker_view_evictions_total");
      m.invalidations =
          registry.counter("rcj_worker_view_invalidations_total");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

Status OpenWorkerView(const RcjEnvironment& env, size_t pool_pages,
                      WorkerView* view) {
  view->buffer = std::make_unique<BufferManager>(pool_pages);

  Result<std::unique_ptr<RTree>> tq = RTree::Open(
      env.q_page_store(), view->buffer.get(), env.rtree_options());
  if (!tq.ok()) return tq.status();
  view->tq = std::move(tq).value();

  if (!env.self_join()) {
    Result<std::unique_ptr<RTree>> tp = RTree::Open(
        env.p_page_store(), view->buffer.get(), env.rtree_options());
    if (!tp.ok()) return tp.status();
    view->tp = std::move(tp).value();
  }
  return Status::OK();
}

WorkerContext::WorkerContext(size_t max_entries)
    : max_entries_(max_entries > 0 ? max_entries : 1) {}

WorkerContext::~WorkerContext() = default;

Result<WorkerView*> WorkerContext::Acquire(const RcjEnvironment& env,
                                           size_t pool_pages,
                                           bool* opened_fresh) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->env != &env) continue;
    if (it->generation == env.generation() &&
        it->pool_pages == pool_pages) {
      entries_.splice(entries_.begin(), entries_, it);
      ++stats_.reuses;
      ViewCacheMetrics::Get().reuses->Add();
      if (opened_fresh != nullptr) *opened_fresh = false;
      return &entries_.front().view;
    }
    // Same address, different generation (rebuilt environment) or a
    // changed pool sizing: the entry is stale, never usable.
    ++stats_.invalidations;
    ViewCacheMetrics::Get().invalidations->Add();
    entries_.erase(it);
    break;
  }

  while (entries_.size() >= max_entries_) {
    ++stats_.evictions;
    ViewCacheMetrics::Get().evictions->Add();
    entries_.pop_back();
  }

  Entry entry;
  entry.env = &env;
  entry.generation = env.generation();
  entry.pool_pages = pool_pages;
  RINGJOIN_RETURN_IF_ERROR(OpenWorkerView(env, pool_pages, &entry.view));
  entries_.push_front(std::move(entry));
  ++stats_.opens;
  ViewCacheMetrics::Get().opens->Add();
  if (opened_fresh != nullptr) *opened_fresh = true;
  return &entries_.front().view;
}

void WorkerContext::Invalidate(const RcjEnvironment* env) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (env == nullptr || it->env == env) {
      ++stats_.invalidations;
      ViewCacheMetrics::Get().invalidations->Add();
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

WorkerContextStats WorkerContext::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t WorkerContext::cached_environments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace rcj
