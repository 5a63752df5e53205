// Thread-safe accumulation of detected data races.
//
// Detections are reported per variable (the paper's Table 2 counts variables
// with races); the first witnessing pair of events is kept for diagnostics.
//
// The race predicate reports the same variable once per conflicting pair of
// every interval (or, in the per-state oracle, of every enumerated state),
// so almost every add() names a variable that is already recorded. A small
// array of hint slots lets those adds return without the mutex: slot
// `var % kHints` holds `var + 1` only after var's finding is in races_ (the
// store is made under the mutex, after the insert, with release order). A
// slot that holds another variable, or nothing, sends the add down the
// locked path, so collisions cost speed, never exactness.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "poset/event.hpp"
#include "runtime/access.hpp"
#include "util/sync.hpp"

namespace paramount {

struct RaceFinding {
  VarId var = 0;
  EventId first;   // earlier-reported collection event
  EventId second;  // the event whose interval exposed the race
};

class RaceReport {
 public:
  static constexpr std::size_t kHints = 64;

  // Records a race on `var`; only the first witness per variable is kept.
  void add(VarId var, EventId first, EventId second) {
    std::atomic<std::uint64_t>& hint = hints_[var % kHints];
    const std::uint64_t tag = std::uint64_t{var} + 1;  // 0 = empty slot
    if (hint.load(std::memory_order_acquire) == tag) return;
    MutexLock guard(mutex_);
    races_.try_emplace(var, RaceFinding{var, first, second});
    hint.store(tag, std::memory_order_release);
  }

  bool has(VarId var) const {
    MutexLock guard(mutex_);
    return races_.count(var) != 0;
  }

  std::size_t num_racy_vars() const {
    MutexLock guard(mutex_);
    return races_.size();
  }

  // Findings sorted by variable id.
  std::vector<RaceFinding> findings() const;

 private:
  mutable Mutex mutex_;
  std::unordered_map<VarId, RaceFinding> races_ PM_GUARDED_BY(mutex_);
  // Written only under mutex_, read without it (see the header comment).
  std::array<std::atomic<std::uint64_t>, kHints> hints_{};
};

}  // namespace paramount
