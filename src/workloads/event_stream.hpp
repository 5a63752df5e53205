// SyntheticEventStream: an unbounded, online-generated event stream for
// long-run monitoring experiments (the 1M-event bounded-memory smoke runs).
//
// Unlike make_random_poset, nothing is materialized up front: per-thread and
// per-lock clocks are rolled forward with Algorithm 3 behind a pluggable
// ClockEngine (flat/tree) and each next() yields one ready-to-submit
// event —
// so the generator itself runs in O(num_threads) memory regardless of how
// many events are drawn, and the poset under test is the only thing whose
// footprint the experiment measures.
//
// Threads take turns round-robin (every thread keeps producing, which lets
// the sliding-window watermark advance); each event is a lock synchronization
// with probability sync_probability (joining the thread's clock with a
// uniformly chosen lock's clock) and a local step otherwise.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "poset/clock_backend.hpp"
#include "poset/event.hpp"
#include "poset/vector_clock.hpp"
#include "util/rng.hpp"

namespace paramount {

class SyntheticEventStream {
 public:
  struct Params {
    std::size_t num_threads = 8;
    std::size_t num_locks = 4;
    double sync_probability = 0.2;
    // Probability that a sync picks the thread's home lock (tid % num_locks)
    // instead of a uniformly random one. 0 reproduces the historical
    // all-uniform streams bit for bit; high values model the convoy/locality
    // regime real lock usage exhibits (a thread mostly reacquiring the same
    // lock), where sublinear clock backends pay off.
    double lock_affinity = 0.0;
    // When a sync misses the home lock: 0 picks uniformly over all locks
    // (global mixing); k > 0 picks one of the k locks after the home lock
    // (wrapping), modeling neighbor/shard contention where information still
    // diffuses across the whole system but each transfer stays small.
    std::size_t lock_spread = 0;
    std::uint64_t seed = 1;
    // Clock representation used to roll the stream forward; event clocks are
    // bit-identical across backends (see clock_backend.hpp).
    ClockBackend clock_backend = ClockBackend::kFlat;
  };

  struct StreamEvent {
    ThreadId tid;
    OpKind kind;
    std::uint32_t object;  // lock id for kAcquire, 0 for kInternal
    VectorClock clock;
  };

  explicit SyntheticEventStream(Params params)
      : params_(params),
        rng_(params.seed),
        engine_(ClockEngine::make(params.clock_backend, params.num_threads)) {
    PM_CHECK(params.num_threads > 0);
    PM_CHECK(params.num_locks > 0);
  }

  std::size_t num_threads() const { return params_.num_threads; }
  const ClockEngine& engine() const { return *engine_; }

  // Generates the next event of the stream (round-robin over threads).
  StreamEvent next() {
    const ThreadId tid = next_tid_;
    next_tid_ = static_cast<ThreadId>((next_tid_ + 1) % params_.num_threads);

    StreamEvent ev;
    ev.tid = tid;
    if (rng_.next_double() < params_.sync_probability) {
      // The affinity draw is skipped entirely at 0.0 so the default stream's
      // random sequence (and every committed golden) is unchanged.
      const bool home = params_.lock_affinity > 0.0 &&
                        rng_.next_double() < params_.lock_affinity;
      std::uint32_t lock;
      if (home) {
        lock = static_cast<std::uint32_t>(tid % params_.num_locks);
      } else if (params_.lock_spread > 0) {
        lock = static_cast<std::uint32_t>(
            (tid + 1 + rng_.next_below(params_.lock_spread)) %
            params_.num_locks);
      } else {
        lock = static_cast<std::uint32_t>(rng_.next_below(params_.num_locks));
      }
      ev.kind = OpKind::kAcquire;
      ev.object = lock;
      engine_->sync_step(tid, lock, &ev.clock);
    } else {
      ev.kind = OpKind::kInternal;
      ev.object = 0;
      engine_->local_step(tid, &ev.clock);
    }
    return ev;
  }

 private:
  Params params_;
  Rng rng_;
  ThreadId next_tid_ = 0;
  std::unique_ptr<ClockEngine> engine_;
};

}  // namespace paramount
