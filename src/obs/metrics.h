// Process-wide metrics: counters, gauges, and fixed-boundary latency
// histograms behind a named registry, rendered as Prometheus-style text
// exposition for the METRICS wire command.
//
// Hot-path cost model: a Counter::Add or Histogram::Observe is one relaxed
// atomic RMW on a cache-line-padded stripe picked per thread, so concurrent
// writers do not bounce a shared line; scrapes merge the stripes exactly
// (monotonic counters never lose increments). Instrumentation sites cache
// the metric pointer once (registry lookups take a mutex) — the idiom is a
// function-local static:
//
//   static obs::Counter* opens =
//       obs::MetricsRegistry::Default().counter("rcj_worker_view_opens_total");
//   opens->Add();
//
// Metric names are opaque strings; Prometheus-style labels are simply part
// of the name (`rcj_fleet_backend_up{backend="0"}`), and the renderer
// splices histogram suffixes (`_bucket`/`_sum`/`_count`) around the label
// block.
//
// Kill switch: SetMetricsEnabled(false) skips the stripe write behind one
// relaxed load — the knob the overhead microbench flips to price the
// instrumentation (see bench_engine_scaling).
#ifndef RINGJOIN_OBS_METRICS_H_
#define RINGJOIN_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"

namespace rcj {
namespace obs {

/// Stripe count of counters and histograms. More stripes cost memory
/// (one cache line each) and scrape-time adds; fewer cost hot-path
/// contention. 16 covers the engine's default worker counts.
constexpr size_t kMetricStripes = 16;

/// Runtime instrumentation switch (default on). Relaxed; flipping it only
/// affects subsequent Add/Set/Observe calls.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

namespace internal {

/// Stable per-thread stripe index in [0, kMetricStripes).
size_t AssignStripe();

inline size_t StripeIndex() {
  thread_local const size_t stripe = AssignStripe();
  return stripe;
}

/// fetch_add for doubles (C++17 has no atomic<double>::fetch_add).
inline void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace internal

/// Monotonic counter. Thread-safe; Value() merges the stripes exactly.
class Counter {
 public:
  Counter() = default;
  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(Counter);

  void Add(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    stripes_[internal::StripeIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };
  Stripe stripes_[kMetricStripes];
};

/// Last-write-wins signed gauge (queue depths, up/down flags).
class Gauge {
 public:
  Gauge() = default;
  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(Gauge);

  void Set(int64_t value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }

  void Add(int64_t delta) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A scraped histogram: per-bucket counts (one extra overflow bucket past
/// the last boundary), total count, and the sum of observed values.
struct HistogramSnapshot {
  std::vector<double> bounds;    ///< ascending upper bounds.
  std::vector<uint64_t> counts;  ///< bounds.size() + 1 buckets.
  uint64_t count = 0;
  double sum = 0.0;

  /// Linear interpolation inside the target bucket (the Prometheus
  /// histogram_quantile estimate); q in [0, 1]. Observations past the last
  /// boundary clamp to it. 0 when empty.
  double Quantile(double q) const;
};

/// Fixed-boundary histogram. Observe() is one relaxed atomic add on the
/// thread's stripe plus a CAS-loop add for the sum.
class Histogram {
 public:
  /// `bounds` are strictly ascending upper bucket boundaries; an implicit
  /// +Inf bucket catches the rest.
  explicit Histogram(std::vector<double> bounds);
  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(Histogram);

  void Observe(double value) {
    if (!MetricsEnabled()) return;
    size_t bucket = 0;
    while (bucket < bounds_.size() && value > bounds_[bucket]) ++bucket;
    Stripe& stripe = stripes_[internal::StripeIndex()];
    stripe.counts[bucket].fetch_add(1, std::memory_order_relaxed);
    internal::AtomicAddDouble(&stripe.sum, value);
  }

  HistogramSnapshot Snap() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Stripe {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::unique_ptr<Stripe[]> stripes_;
};

/// The latency boundaries every rcj_*_seconds histogram uses unless it
/// asks for its own: 100µs .. 10s, roughly 2.5x steps (documented in
/// docs/OBSERVABILITY.md).
const std::vector<double>& DefaultLatencyBounds();

/// One slow query, as remembered by the ring buffer.
struct SlowQueryEntry {
  double wall_seconds = 0.0;
  uint64_t pairs = 0;
  std::string trace_id;  ///< empty when the query was not traced.
  std::string env;
  std::string detail;  ///< free-form (status / END summary), single line.
};

/// Threshold-gated ring buffer of the slowest recent queries. Disabled
/// until Configure() sets a non-negative threshold.
class SlowQueryLog {
 public:
  SlowQueryLog() = default;
  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(SlowQueryLog);

  /// threshold_seconds < 0 disables recording; 0 records every query.
  void Configure(double threshold_seconds, size_t capacity = 64);

  bool enabled() const;
  double threshold_seconds() const;

  /// Records the entry iff enabled and entry.wall_seconds >= threshold.
  void MaybeRecord(const SlowQueryEntry& entry);

  /// Oldest first.
  std::vector<SlowQueryEntry> Dump() const;

 private:
  mutable std::mutex mu_;
  double threshold_seconds_ = -1.0;
  size_t capacity_ = 64;
  std::deque<SlowQueryEntry> entries_;
};

/// Name-keyed home of the process's metrics. Lookup takes a mutex and
/// returns a stable pointer (metrics are never removed); hot paths look up
/// once and cache. Default() is the process-wide instance every layer and
/// the METRICS wire command share; tests may build private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  static MetricsRegistry& Default();

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// Registers (or finds) a histogram. The first registration fixes the
  /// boundaries; later calls ignore `bounds`. Empty bounds means
  /// DefaultLatencyBounds().
  Histogram* histogram(const std::string& name,
                       const std::vector<double>& bounds = {});

  SlowQueryLog* slow_log() { return &slow_log_; }

  /// The Prometheus text exposition of every registered metric (sorted by
  /// name, `# TYPE` comments included) plus one `# slowlog ...` comment
  /// per slow-query entry. Each line is newline-terminated.
  std::string RenderPrometheus() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  SlowQueryLog slow_log_;
};

/// One outcome count kept twice: exactly, per owning instance (a server's
/// counters(), which stays exact under SetMetricsEnabled(false)), and on
/// the default registry's counter of the same meaning (the METRICS
/// exposition).
class OutcomeCounter {
 public:
  explicit OutcomeCounter(const std::string& metric_name)
      : metric_(MetricsRegistry::Default().counter(metric_name)) {}
  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(OutcomeCounter);

  void Add(uint64_t delta = 1) {
    count_.fetch_add(delta, std::memory_order_relaxed);
    metric_->Add(delta);
  }
  uint64_t value() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
  Counter* metric_;
};

}  // namespace obs
}  // namespace rcj

#endif  // RINGJOIN_OBS_METRICS_H_
