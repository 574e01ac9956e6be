// Shared plumbing of the repository benchmark: clocks, process CPU and
// memory, sample statistics, stream digests, the timed wire client, and
// the metric and span sinks both run modes report through.
#ifndef RINGJOIN_PERFBENCH_HARNESS_H_
#define RINGJOIN_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/pair_sink.h"
#include "net/protocol.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Process user + system CPU seconds (getrusage), all threads. This is the
/// honest CPU figure; JoinStats::cpu_seconds is busy wall time.
double ProcessCpuSeconds();

/// ru_maxrss in MiB.
double PeakRssMb();

/// Spins one thread per hardware thread for `seconds`. Run right before
/// the timed load, it leaves the host in the same state whatever ran
/// before: on a shared VM the same light load costs about 1.7x the CPU per
/// query right after a CPU-heavy process as after idle, and keeps the
/// state it started in while it runs.
void BurnCpu(double seconds);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The tail of a latency sample: p95, or the highest percentile with at
/// least ten samples beyond it when the sample is too small for p95 to
/// have ten. A higher percentile of a large sample would follow a handful
/// of host stalls rather than the system.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailPercentile(std::vector<double> values);

/// Order-sensitive chain over PAIR lines: any changed, missing, duplicated
/// or reordered line changes the digest.
uint64_t ChainHash(uint64_t chain, const std::string& line);

/// The same chain over a pair's ids and coordinate bits, for in-process
/// tiers (no text formatting on the timed path).
uint64_t ChainHashPair(uint64_t chain, const rcj::RcjPair& pair);

/// Sink of the in-process tiers: counts pairs, chains their digest and
/// stamps the first pair's arrival; with `keep` set it also collects them.
class DigestSink final : public rcj::PairSink {
 public:
  explicit DigestSink(std::vector<rcj::RcjPair>* keep = nullptr)
      : keep_(keep) {}
  bool Emit(const rcj::RcjPair& pair) override {
    if (pairs_ == 0) first_pair_ = Clock::now();
    ++pairs_;
    digest_ = ChainHashPair(digest_, pair);
    if (keep_ != nullptr) keep_->push_back(pair);
    return true;
  }
  uint64_t pairs() const { return pairs_; }
  uint64_t digest() const { return digest_; }
  Clock::time_point first_pair() const { return first_pair_; }

 private:
  std::vector<rcj::RcjPair>* keep_;
  uint64_t pairs_ = 0;
  uint64_t digest_ = 0;
  Clock::time_point first_pair_{};
};

/// What every correct stream of one query must deliver.
struct Expected {
  uint64_t pairs = 0;
  uint64_t line_digest = 0;  ///< ChainHash over the wire PAIR lines.
  uint64_t pair_digest = 0;  ///< ChainHashPair over the same pairs.
};

/// Expected counts and digests of a materialized pair stream.
Expected ExpectedOf(const std::vector<rcj::RcjPair>& pairs);

/// One timed wire query. Times are milliseconds; `first_pair_ms` is -1
/// when the stream carried no pair.
struct WireOutcome {
  rcj::Status status;
  double connect_ms = 0.0;     ///< DialTcp.
  double ok_ms = 0.0;          ///< request sent -> OK received.
  double first_pair_ms = -1.0; ///< request sent -> first PAIR received.
  double done_ms = 0.0;        ///< dial start -> END (ENDTRACE if traced).
  uint64_t pairs = 0;
  uint64_t pair_bytes = 0;     ///< PAIR line bytes including the LF.
  uint64_t digest = 0;         ///< ChainHash over the PAIR lines.
  rcj::net::WireSummary summary;
};

/// Dials 127.0.0.1:`port`, sends `request` and reads the whole response.
/// `on_pair`, when set, sees every PAIR line.
WireOutcome RunWireQuery(
    uint16_t port, const rcj::net::WireRequest& request,
    const std::function<void(const std::string&)>& on_pair = nullptr);

/// Ordered metric sink; renders the result object's "metrics" member.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  /// Prints one aligned "name value unit" line per metric.
  void Print() const;
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// One rung call of the traced run: the rung, the sampled operation it
/// served (its parent) and its interval on the run's clock.
struct Span {
  std::string rung;
  uint64_t op = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Spans kept in memory and written out as JSON lines when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  void Record(const std::string& rung, uint64_t op, Clock::time_point start,
              Clock::time_point end);
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // RINGJOIN_PERFBENCH_HARNESS_H_
