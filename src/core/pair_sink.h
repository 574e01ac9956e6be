// Streaming result emission for the ring-constrained join.
//
// The paper's algorithms are inherently incremental: INJ/BIJ/OBJ report
// qualifying (q, p) pairs one at a time as T_Q leaves are visited. PairSink
// is the emission contract that keeps them that way all the way up the
// stack — algorithms push each surviving pair into a sink instead of
// appending to a result vector, so callers can consume pairs as they are
// found, cap a query at its first k results, or forward them to a network
// peer without ever materializing the full join.
#ifndef RINGJOIN_CORE_PAIR_SINK_H_
#define RINGJOIN_CORE_PAIR_SINK_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/rcj_types.h"

namespace rcj {

/// Receiver of streamed RCJ results. Emit() consumes one pair and returns
/// true to keep the join going; returning false requests early termination
/// (the pair passed to the false-returning call was still delivered).
/// Early termination is not an error: the producing algorithm stops its
/// traversal and returns OK, having emitted a prefix of its serial output.
///
/// Sinks are driven by one thread at a time. The engine serializes delivery
/// per query, so a sink shared across queries must itself be thread-safe,
/// but a per-query sink needs no locking.
class PairSink {
 public:
  virtual ~PairSink() = default;

  virtual bool Emit(const RcjPair& pair) = 0;

  /// Marks the end of one delivery batch. The engine calls it after each
  /// pass that handed the sink pairs (one or more whole chunks), never
  /// between two pairs of a chunk; a sink that buffers its output (the
  /// network SocketSink) sends it here. The default does nothing.
  virtual void EndBatch() {}
};

/// Collects every emitted pair into a caller-owned vector; never stops the
/// join. The adapter that turns the streaming API back into the classic
/// materialized result.
class VectorSink final : public PairSink {
 public:
  explicit VectorSink(std::vector<RcjPair>* out) : out_(out) {}

  bool Emit(const RcjPair& pair) override {
    out_->push_back(pair);
    return true;
  }

 private:
  std::vector<RcjPair>* out_;
};

/// Invokes a callback per pair; the callback's return value is the Emit
/// contract (false stops the join).
class CallbackSink final : public PairSink {
 public:
  explicit CallbackSink(std::function<bool(const RcjPair&)> fn)
      : fn_(std::move(fn)) {}

  bool Emit(const RcjPair& pair) override { return fn_(pair); }

 private:
  std::function<bool(const RcjPair&)> fn_;
};

/// Forwards at most `limit` pairs to an inner sink, then requests
/// termination — the top-k adapter. A limit of 0 means unlimited. The call
/// that delivers the limit-th pair already returns false, so a well-behaved
/// producer performs no further work; calls past the limit are not
/// forwarded.
class LimitSink final : public PairSink {
 public:
  LimitSink(PairSink* inner, uint64_t limit) : inner_(inner), limit_(limit) {}

  bool Emit(const RcjPair& pair) override {
    if (limit_ != 0 && forwarded_ >= limit_) return false;
    const bool inner_wants_more = inner_->Emit(pair);
    ++forwarded_;
    return inner_wants_more && (limit_ == 0 || forwarded_ < limit_);
  }

  /// Pairs actually forwarded to the inner sink.
  uint64_t forwarded() const { return forwarded_; }

 private:
  PairSink* inner_;
  uint64_t limit_;
  uint64_t forwarded_ = 0;
};

/// Counts emitted pairs and otherwise discards them — for stats-only
/// queries and tests.
class CountingSink final : public PairSink {
 public:
  bool Emit(const RcjPair&) override {
    ++count_;
    return true;
  }

  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

}  // namespace rcj

#endif  // RINGJOIN_CORE_PAIR_SINK_H_
