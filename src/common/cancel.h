// Cooperative cancellation: the primitive that makes long stage-2 solves
// interruptible.
//
// A CancelToken composes the three signals a serving layer needs to stop
// in-flight work:
//
//   * a manual cancel (RequestTicket::Cancel on a running request),
//   * a deadline clock (the request's end-to-end deadline),
//   * an optional PARENT token, so a scope can tighten its parent's
//     budget without widening it (the portfolio's exact leg links its
//     slightly shorter deadline under the caller's token),
//
// and exposes them as one cheap poll: Check() returns OK while live and
// a sticky kCancelled / kDeadlineExceeded Status once fired. Workers
// poll at their natural step boundaries — the pipeline between stages,
// the solver between sub-problems, and both branch & bound loops at
// node-expansion granularity — so a cancel or deadline resolves within
// milliseconds instead of after the full solve.
//
// Determinism contract: cancellation NEVER degrades a result. A call
// observing a fired token abandons its work and returns the token's
// Status; it does not return a time-truncated incumbent (the wall-clock-
// dependent solver path this design replaced). Every result that IS
// returned is therefore bit-identical to an uninterrupted run.
//
// The composed Notification gives waiters a blocking edge for the
// manual-cancel signal; deadline expiry is discovered lazily by polls
// (see fired_event()).

#ifndef EXPLAIN3D_COMMON_CANCEL_H_
#define EXPLAIN3D_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <limits>

#include "common/notification.h"
#include "common/status.h"

namespace explain3d {

/// \brief One-shot cooperative cancellation signal (see file comment).
///
/// Thread-safe: any number of threads may poll Check() while others call
/// Cancel(). Firing is sticky — once Check() returns non-OK it never
/// returns OK again, and an UNLINKED token's code never changes (its own
/// first firing wins the CAS forever). A parent-linked token reports the
/// parent's status first, so its observed CODE can shift to the parent's
/// if the parent fires later (still non-OK); classify an interruption
/// once, at the point that consumes it.
///
/// Not copyable or movable (it embeds a Notification); share it by
/// pointer/shared_ptr and construct deadline scopes in place
/// (std::optional<CancelToken>::emplace).
class CancelToken {
 public:
  /// A token with no deadline: fires only via Cancel() (or its parent).
  CancelToken() = default;

  /// \brief A token that fires `deadline_seconds` from NOW, optionally
  /// nested under `parent`. A deadline <= 0, or past kMaxClockSeconds
  /// (+inf included), means none.
  ///
  /// A linked token reports the parent's status first, so a child scope
  /// can only tighten the parent's budget, never extend it. The parent
  /// must outlive this token; linking is poll-through (the child's own
  /// fired_event() does not fire when only the parent fires).
  explicit CancelToken(double deadline_seconds,
                       const CancelToken* parent = nullptr)
      : parent_(parent) {
    if (deadline_seconds > 0 && deadline_seconds <= kMaxClockSeconds) {
      has_deadline_ = true;
      deadline_seconds_ = deadline_seconds;
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(deadline_seconds));
    }
  }

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// \brief Requests cancellation. Idempotent; loses to an
  /// already-expired deadline (the first firing wins and is sticky).
  void Cancel() {
    int expected = kLive;
    if (fired_.compare_exchange_strong(expected, kCancelled,
                                       std::memory_order_acq_rel)) {
      fired_event_.Notify();
    }
  }

  /// \brief The poll every cancellation point calls.
  ///
  /// OK while live; Status::Cancelled after Cancel(); DeadlineExceeded
  /// once the deadline clock passes (discovered by this poll — the
  /// winning poll also fires fired_event()). A fired parent wins over
  /// this token's own state.
  Status Check() const {
    if (parent_ != nullptr) {
      Status parent_status = parent_->Check();
      if (!parent_status.ok()) return parent_status;
    }
    int f = fired_.load(std::memory_order_acquire);
    if (f == kLive && has_deadline_ &&
        std::chrono::steady_clock::now() >= deadline_) {
      int expected = kLive;
      if (fired_.compare_exchange_strong(expected, kDeadline,
                                         std::memory_order_acq_rel)) {
        fired_event_.Notify();
      }
      f = fired_.load(std::memory_order_acquire);
    }
    switch (f) {
      case kCancelled:
        return Status::Cancelled("request cancelled");
      case kDeadline:
        return Status::DeadlineExceeded(
            "deadline of " + std::to_string(deadline_seconds_) +
            "s passed");
      default:
        return Status::OK();
    }
  }

  /// \brief The composed one-shot event: fires on Cancel() and on the
  /// first poll that observes deadline expiry (lazy — an unpolled
  /// deadline token never notifies). Parent firings do not propagate.
  const Notification& fired_event() const { return fired_event_; }

  /// \brief Seconds until the earliest deadline along the parent chain,
  /// +infinity when no link has a deadline. Negative once a deadline has
  /// passed. Does NOT fire the token (pure clock read); a manual Cancel()
  /// is not reflected here — poll Check() for liveness.
  double RemainingSeconds() const {
    double remaining = std::numeric_limits<double>::infinity();
    if (parent_ != nullptr) remaining = parent_->RemainingSeconds();
    if (has_deadline_) {
      double own = std::chrono::duration<double>(
                       deadline_ - std::chrono::steady_clock::now())
                       .count();
      if (own < remaining) remaining = own;
    }
    return remaining;
  }

 private:
  static constexpr int kLive = 0;
  static constexpr int kCancelled = 1;
  static constexpr int kDeadline = 2;

  /// First firing wins (CAS); polls mutate lazily, hence mutable.
  mutable std::atomic<int> fired_{kLive};
  bool has_deadline_ = false;
  double deadline_seconds_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  const CancelToken* parent_ = nullptr;
  mutable Notification fired_event_;
};

/// Poll helper for optional tokens: OK when `token` is null or live.
inline Status CheckCancel(const CancelToken* token) {
  return token == nullptr ? Status::OK() : token->Check();
}

}  // namespace explain3d

#endif  // EXPLAIN3D_COMMON_CANCEL_H_
