// Budget-based admission gate for producer → worker-pool handoffs.
//
// Two owners charge it. OnlineParamount holds one per windowed pooled
// driver and charges one unit per in-flight interval: every queued interval
// pins its Gmin, so without a cap a producer that outruns the workers would
// hold the sliding window's watermark back and the poset would grow with
// the stream. paramountd's sessions hold a second gate, counted in bytes
// (`--submit-budget`, or one gate per tenant with `--tenant-budget`): once
// over budget the service stops reading the producer's socket and the
// *client* absorbs the backlog. The unit is the owner's choice; the
// parameters below say "bytes" after the service's use.
//
// Admission rule: a request is admitted when it fits the budget, or when
// nothing is in flight (an oversized single item must still make progress —
// the classic bounded-queue passage rule, so budget < item size degrades to
// serial execution rather than deadlock). Budget 0 disables the gate.
//
// In-process producers use acquire(), which waits for a release(). The
// epoll reactor must never wait, so its sessions use the non-blocking pair:
// acquire_or_notify() either charges at once or queues a one-shot callback
// fired on a later release() — the "pause this connection's reads, resume
// when quota frees" hook — and ready_or_notify() does the same without
// charging, for a gate whose only charger is the caller. One gate may be
// shared by many sessions (per-tenant quotas): released budget wakes queued
// notifiers FIFO-first.
//
// A queued notifier only ever RE-ATTEMPTS admission — it may not win, and
// (when its session died between queueing and firing) it may not even try.
// release() therefore wakes every FIFO-prefix waiter that currently fits
// rather than exactly one: a single wake handed to a waiter that never
// re-acquires would otherwise be lost, stranding the waiters behind it
// forever once nothing is left in flight to trigger another release.
// Owners should still cancel() their queued waiter on teardown so dead
// sessions don't sit at the head of the queue blocking bigger releases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/sync.hpp"

namespace paramount {

class SubmitGate {
 public:
  explicit SubmitGate(std::size_t budget_bytes) : budget_(budget_bytes) {}

  SubmitGate(const SubmitGate&) = delete;
  SubmitGate& operator=(const SubmitGate&) = delete;

  std::size_t budget_bytes() const { return budget_; }

  // Charges and returns true if `bytes` is admissible now; otherwise queues
  // `notify` (FIFO) to be invoked exactly once after a release() frees
  // enough budget for it, counts the stall, and returns false WITHOUT
  // charging. Every charge must be paired with exactly one release of the
  // same size once the work retires. The callback re-attempts admission
  // itself (capacity may have been taken again by the time it runs); it is
  // invoked outside the gate lock and must not re-enter the gate
  // synchronously in a way that blocks. `owner` tags the queued waiter for
  // cancel() — pass the session (or any stable address) that would
  // re-attempt, so its teardown can retract the registration.
  bool acquire_or_notify(std::size_t bytes, std::function<void()> notify,
                         const void* owner = nullptr) {
    return admit_or_queue(bytes, /*charge=*/true, std::move(notify), owner);
  }

  // Like acquire_or_notify(), but charges nothing: returns true if `bytes`
  // is admissible now. Meant for a caller that is the gate's only charger —
  // then nothing but its own next acquire() can take the room back, so that
  // acquire() will not wait.
  bool ready_or_notify(std::size_t bytes, std::function<void()> notify,
                       const void* owner = nullptr) {
    return admit_or_queue(bytes, /*charge=*/false, std::move(notify), owner);
  }

  // Blocking admission for in-process producers: charges `bytes` at once if
  // admissible, else counts one stall and waits until a release() makes it
  // admissible. Never call it on a thread that the pending releases depend
  // on (a worker whose own queued work would release): nothing could then
  // wake it.
  void acquire(std::size_t bytes) {
    if (budget_ == 0) return;
    MutexLock lock(mutex_);
    if (!admissible(bytes)) {
      ++stalls_;
      ++blocked_;
      while (!admissible(bytes)) released_.wait(mutex_);
      --blocked_;
    }
    in_flight_ += bytes;
  }

  // Drops every queued waiter tagged with `owner` without invoking it.
  // Owners MUST call this on teardown after a refused acquire_or_notify:
  // a dead waiter left queued never re-acquires, and while the cascading
  // release() keeps it from stranding waiters behind it, a big dead waiter
  // at the head would still gate smaller releases until in-flight hits 0.
  // A notify already popped by a concurrent release() may still run after
  // cancel() returns; it must no-op safely (the epoll server's does — the
  // posted retry finds the connection gone).
  void cancel(const void* owner) {
    if (budget_ == 0 || owner == nullptr) return;
    MutexLock lock(mutex_);
    for (auto it = waiters_.begin(); it != waiters_.end();) {
      it = it->owner == owner ? waiters_.erase(it) : std::next(it);
    }
  }

  // Returns budget charged by a completed submission and wakes queued
  // notifiers by popping every FIFO-prefix entry that now fits (stop at the
  // first that does not — head-of-line order keeps one big waiter from
  // starving).
  // Cascading over the whole fitting prefix (not just the head) is what
  // makes a wake handed to a waiter that never re-acquires — a session
  // torn down with its registration still queued — harmless: the waiters
  // behind it were woken too, and when the last charge retires the
  // in_flight_ == 0 arm drains the entire queue.
  void release(std::size_t bytes) {
    if (budget_ == 0) return;
    std::vector<std::function<void()>> ready;
    bool wake_blocked = false;
    {
      MutexLock lock(mutex_);
      PM_CHECK_MSG(bytes <= in_flight_, "SubmitGate release exceeds charge");
      in_flight_ -= bytes;
      while (!waiters_.empty() && admissible(waiters_.front().bytes)) {
        ready.push_back(std::move(waiters_.front().notify));
        waiters_.pop_front();
      }
      wake_blocked = blocked_ > 0;
    }
    if (wake_blocked) released_.notify_all();
    for (std::function<void()>& fn : ready) fn();
  }

  std::size_t in_flight_bytes() const {
    if (budget_ == 0) return 0;
    MutexLock lock(mutex_);
    return in_flight_;
  }

  // Number of refused acquire_or_notify()/ready_or_notify() calls plus
  // acquire() calls that had to wait — the backpressure-engaged signal.
  std::uint64_t stalls() const {
    if (budget_ == 0) return 0;
    MutexLock lock(mutex_);
    return stalls_;
  }

 private:
  bool admissible(std::size_t bytes) const PM_REQUIRES(mutex_) {
    return in_flight_ == 0 || in_flight_ + bytes <= budget_;
  }

  bool admit_or_queue(std::size_t bytes, bool charge,
                      std::function<void()> notify, const void* owner) {
    if (budget_ == 0) return true;
    MutexLock lock(mutex_);
    if (admissible(bytes)) {
      if (charge) in_flight_ += bytes;
      return true;
    }
    ++stalls_;
    waiters_.push_back({bytes, std::move(notify), owner});
    return false;
  }

  struct Waiter {
    std::size_t bytes;
    std::function<void()> notify;
    const void* owner;  // cancel() key; null = uncancellable
  };

  const std::size_t budget_;  // immutable after construction; 0 = unbounded
  mutable Mutex mutex_;
  std::size_t in_flight_ PM_GUARDED_BY(mutex_) = 0;
  std::uint64_t stalls_ PM_GUARDED_BY(mutex_) = 0;
  std::deque<Waiter> waiters_ PM_GUARDED_BY(mutex_);
  std::size_t blocked_ PM_GUARDED_BY(mutex_) = 0;  // acquire() calls waiting
  CondVar released_;  // signalled by release() while blocked_ > 0
};

}  // namespace paramount
