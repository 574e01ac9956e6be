// StopToken — the one stop signal of a running query. A streamed
// ring-constrained join ends early for exactly one reason (its limit, a
// cancel, its deadline, a vanished peer, a failure): every layer records it
// on the query's token (QuerySpec::stop), the first Stop() wins, and
// StopStatus() maps the reason to the query's final Status.
#ifndef RINGJOIN_CORE_STOP_TOKEN_H_
#define RINGJOIN_CORE_STOP_TOKEN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace rcj {

enum class StopReason : uint8_t {
  kNone = 0,   ///< not stopped: still running, or ran to completion.
  kLimit,      ///< the limit was delivered, or the sink refused a pair.
  kCancelled,  ///< the submitter (or a stopping server) cancelled it.
  kDeadline,   ///< QuerySpec::deadline passed while it ran.
  kPeerGone,   ///< the network client vanished or stopped reading.
  kFailed,     ///< a leaf chunk or the sink failed.
};

/// The reason's metric label value.
inline const char* StopReasonName(StopReason reason) {
  static constexpr const char* kNames[] = {"none",     "limit",     "cancelled",
                                           "deadline", "peer_gone", "failed"};
  return kNames[static_cast<size_t>(reason)];
}

/// OK when the query was not stopped or stopped at its limit (a top-k
/// prefix is a result), Cancelled when its caller went away,
/// DeadlineExceeded when its budget ran out. The engine reports a kFailed
/// query with the failing chunk's own error instead.
inline Status StopStatus(StopReason reason) {
  if (reason == StopReason::kNone || reason == StopReason::kLimit) {
    return Status::OK();
  }
  const std::string why =
      std::string("query stopped: ") + StopReasonName(reason);
  if (reason == StopReason::kDeadline) return Status::DeadlineExceeded(why);
  if (reason == StopReason::kFailed) return Status::IoError(why);
  return Status::Cancelled(why);  // kCancelled, kPeerGone
}

/// First-wins stop signal, safe from any thread. The engine settles the
/// token when it resolves the query, so a later Stop() cannot make
/// reason() disagree with the status the query reported.
class StopToken {
 public:
  /// Records `reason` unless the token already stopped or was settled;
  /// true iff this call won.
  bool Stop(StopReason reason) {
    uint8_t none = 0;
    return state_.compare_exchange_strong(none, static_cast<uint8_t>(reason));
  }

  bool stopped() const { return reason() != StopReason::kNone; }

  StopReason reason() const {
    return static_cast<StopReason>(state_.load() & ~kSettled);
  }

  /// Closes the token to further Stop() calls; returns the final reason.
  StopReason Settle() {
    return static_cast<StopReason>(state_.fetch_or(kSettled) & ~kSettled);
  }

 private:
  static constexpr uint8_t kSettled = 0x80;
  std::atomic<uint8_t> state_{0};
};

}  // namespace rcj

#endif  // RINGJOIN_CORE_STOP_TOKEN_H_
