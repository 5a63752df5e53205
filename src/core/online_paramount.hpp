// Online ParaMount (Algorithm 4 of the paper).
//
// Events stream in while the monitored program runs. Each submission inserts
// the event into the concurrently readable OnlinePoset (the atomic block of
// Algorithm 4: →p = insertion order, Gmin = the event's clock, Gbnd = a
// snapshot of the maximal frontier), then enumerates the interval I(e) with
// the bounded subroutine. By Theorem 3 the enumeration may run concurrently
// with further insertions, so multiple intervals are processed in parallel.
//
// Two execution modes:
//   * inline (async_workers == 0): the submitting thread enumerates its own
//     interval before returning — the configuration of the paper's online
//     detector ("after a thread executes an event, the thread is immediately
//     used to enumerate the interval");
//   * pooled (async_workers > 0): intervals are queued to a dedicated worker
//     pool and submission returns once the interval is queued; call drain()
//     to synchronize. With a window policy, at most in_flight_cap()
//     intervals are in flight (each holds a window pin): submit() waits
//     while the cap is reached, until a finished interval wakes it. Without
//     a window policy submission never waits.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "enumeration/dispatch.hpp"
#include "poset/online_poset.hpp"
#include "util/submit_gate.hpp"
#include "util/thread_pool.hpp"

namespace paramount {

class OnlineParamount {
 public:
  // Sliding-window reclamation policy (see OnlinePoset). When enabled, every
  // interval pins its Gmin for the duration of its enumeration and submit()
  // periodically runs OnlinePoset::collect() to retire settled prefix
  // storage. In pooled mode the policy also caps the in-flight intervals
  // (kInFlightIntervalsPerWorker), so a producer that outruns the workers
  // waits instead of holding the watermark back: the resident poset stays
  // bounded by the cap, the collect cadence and the longest interval's box,
  // not by the stream's length — what keeps week-long monitored runs in
  // bounded memory.
  struct WindowPolicy {
    std::uint64_t gc_every = 0;   // collect() every N inserts (0 = off)
    std::size_t window_bytes = 0;  // collect() when heap_bytes() exceeds this
    bool enabled() const { return gc_every > 0 || window_bytes > 0; }
  };

  // In-flight cap of a windowed pooled driver, per pool worker. Rule: the
  // queue only has to keep each worker busy while the producer is off the
  // CPU, which a runnable thread can be for about one scheduler period
  // (6 ms by default on Linux). The cheapest interval — one state, as in a
  // lock convoy — takes a worker 1–2 µs (perfbench convoy-8, offline: 1.8 M
  // one-state intervals/s on 3 workers of a 4-core x86 box), so 4096
  // queued intervals per worker cover it; a deeper queue adds pinned memory
  // and verdict latency, not throughput. Fixed: no flag or option.
  static constexpr std::size_t kInFlightIntervalsPerWorker = 4096;

  struct Options {
    EnumAlgorithm subroutine = EnumAlgorithm::kLexical;
    std::size_t async_workers = 0;  // 0 = enumerate inline on submit
    // Optional telemetry sink (see src/obs/). Shard layout: submitting
    // program thread t writes shard t; pooled enumeration worker w writes
    // shard num_threads + w. Requires num_threads + async_workers shards.
    obs::Telemetry* telemetry = nullptr;
    WindowPolicy window_policy;  // default: no reclamation (unbounded)
    // Optional shared state store: interval subroutines intern into it
    // instead of keeping private working sets (see ParamountOptions::store).
    // The store filling up is NOT fatal here — pooled workers must never
    // throw — it latches store_full() and the driver stops enumerating
    // further intervals (pins are still released and interval_done still
    // fires, so service backpressure budgets stay balanced); the owner
    // checks store_full() and surfaces its typed error.
    StateStore* store = nullptr;
    // Invoked once per interval after its enumeration finished AND its
    // window pin (if any) was released — the point where the interval has
    // stopped holding any poset storage alive. Service-mode backpressure
    // returns submit-queue budget here. Runs on whichever thread enumerated
    // the interval (a pool worker in pooled mode), so it must be
    // thread-safe; it must not call back into this driver.
    std::function<void(EventId)> interval_done;
  };

  // Visitor invoked once per enumerated global state, possibly from several
  // threads at once. `owner` is the event whose interval is being enumerated
  // (the predicate's "new event e"); `state` is only valid during the call.
  using IntervalStateVisitor =
      std::function<void(const OnlinePoset& poset, EventId owner,
                         const Frontier& state)>;

  OnlineParamount(std::size_t num_threads, Options options,
                  IntervalStateVisitor visit);
  ~OnlineParamount();

  OnlineParamount(const OnlineParamount&) = delete;
  OnlineParamount& operator=(const OnlineParamount&) = delete;

  // Inserts an event (clock already computed per Algorithm 3) and enumerates
  // its interval per the execution mode. Thread-safe. Returns the event id.
  // In windowed pooled mode it first waits while in_flight_cap() intervals
  // are in flight; the wait holds no poset lock. Never call it from a
  // visitor or interval_done: on a pool worker that wait could never end.
  EventId submit(ThreadId tid, OpKind kind, std::uint32_t object,
                 VectorClock clock);

  // The non-waiting admission check for a caller that must never block
  // (paramountd's reactor) and is this driver's only producer: returns true
  // if the next submit() will not wait; otherwise queues `on_ready` to run
  // once, on the pool worker that retires an interval, and returns false.
  // Only submit() takes a slot, so the answer holds until the caller's own
  // submit(). Always true when the driver is uncapped.
  bool ready_or_notify(std::function<void()> on_ready) {
    return slots_.ready_or_notify(1, std::move(on_ready));
  }

  // Most intervals in flight at once: kInFlightIntervalsPerWorker × pool
  // workers with a window policy in pooled mode, 0 (uncapped) otherwise.
  std::size_t in_flight_cap() const { return slots_.budget_bytes(); }

  // submit() calls that waited at the cap plus refused ready_or_notify()
  // calls (0 when uncapped).
  std::uint64_t admission_stalls() const { return slots_.stalls(); }

  // Waits until every queued interval has been enumerated (no-op inline).
  void drain();

  // One explicit sliding-window reclamation pass (also runs automatically
  // per the window policy). Updates the poset.* telemetry gauges.
  OnlinePoset::CollectStats collect();

  const OnlinePoset& poset() const { return poset_; }

  // relaxed: monotone statistics counters — exact once drain() returned,
  // merely fresh while intervals are still in flight.
  std::uint64_t states_enumerated() const {
    return states_.load(std::memory_order_relaxed);
  }
  std::uint64_t intervals_processed() const {
    return intervals_.load(std::memory_order_relaxed);
  }

  // True once any interval's enumeration hit the shared store's typed kFull
  // result. Latched; subsequent intervals are skipped (their states would be
  // incomplete anyway). Meaningful only with Options::store set.
  // relaxed: advisory flag read at reply points; the racing interval's other
  // effects are ordered by drain()/the frame writer's own synchronization.
  bool store_full() const {
    return store_full_.load(std::memory_order_relaxed);
  }

 private:
  void enumerate_interval(const OnlinePoset::Inserted& ins);
  void maybe_collect();

  OnlinePoset poset_;
  Options options_;
  IntervalStateVisitor visit_;
  // In-flight interval cap, one unit per interval (budget 0 = uncapped).
  // Declared before pool_ so it outlives the workers that release it.
  SubmitGate slots_;
  std::unique_ptr<ThreadPool> pool_;  // null in inline mode
  std::atomic<std::uint64_t> states_{0};
  std::atomic<std::uint64_t> intervals_{0};
  std::atomic<std::uint64_t> inserts_since_gc_{0};
  std::atomic<bool> store_full_{false};
};

}  // namespace paramount
