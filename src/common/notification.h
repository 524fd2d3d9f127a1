// One-shot notification: a latch a producer fires exactly once and any
// number of consumers wait on (abseil's Notification shape). The
// RequestTicket future in service/service.h builds its completion signal
// on this; it is generally the right primitive whenever "has this
// happened yet" needs a blocking wait, a poll, and a timed wait.

#ifndef EXPLAIN3D_COMMON_NOTIFICATION_H_
#define EXPLAIN3D_COMMON_NOTIFICATION_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/logging.h"

namespace explain3d {

/// Longest span put on the steady clock (about 31 years). Converted to
/// the clock's nanosecond ticks, a span past ~9.2e9 s (+inf included)
/// overflows and lands in the past, so Notification waits a longer
/// timeout without one and CancelToken treats a longer deadline as none.
inline constexpr double kMaxClockSeconds = 1e9;

/// A one-shot event. Thread-safe; Notify() must be called at most once.
/// Waiters that arrive after the notification return immediately.
class Notification {
 public:
  Notification() = default;
  Notification(const Notification&) = delete;
  Notification& operator=(const Notification&) = delete;

  /// Fires the event, releasing every current and future waiter.
  void Notify() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      E3D_CHECK(!notified_);
      notified_ = true;
    }
    cv_.notify_all();
  }

  /// True once Notify() has run (non-blocking poll).
  bool HasBeenNotified() const {
    std::lock_guard<std::mutex> lock(mu_);
    return notified_;
  }

  /// Blocks until Notify() runs.
  void WaitForNotification() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return notified_; });
  }

  /// Blocks up to `seconds`; returns whether the event fired in time.
  /// A timeout <= 0 is a poll. One past kMaxClockSeconds (+inf
  /// included) waits without a timeout.
  bool WaitForNotificationWithTimeout(double seconds) const {
    std::unique_lock<std::mutex> lock(mu_);
    auto fired = [this] { return notified_; };
    if (!(seconds > 0)) return notified_;
    if (seconds > kMaxClockSeconds) {
      cv_.wait(lock, fired);
      return true;
    }
    return cv_.wait_for(lock, std::chrono::duration<double>(seconds), fired);
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool notified_ = false;
};

}  // namespace explain3d

#endif  // EXPLAIN3D_COMMON_NOTIFICATION_H_
