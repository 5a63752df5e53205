#include "core/paramount.hpp"

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/timer.hpp"
#include "util/work_stealing.hpp"

namespace paramount {

ParamountResult enumerate_paramount(const Poset& poset,
                                    const ParamountOptions& options,
                                    StateVisitor visit) {
  const std::vector<Interval> intervals =
      compute_intervals(poset, options.topo_policy, options.seed);
  return enumerate_paramount(poset, intervals, options, visit);
}

namespace {

// One work acquisition (deque pop, steal, or cursor claim): the claims
// counter plus the queue-wait histogram. `seek_ns` is when the work was
// first sought, so the wait covers lock latency and any time the interval
// spent parked in a deque.
void record_claim(obs::Telemetry* tel, std::size_t worker,
                  std::uint64_t seek_ns, std::uint64_t index) {
  if (tel == nullptr) return;
  const std::uint64_t got_ns = tel->tracer().now_ns();
  tel->metrics().add(tel->claims, worker);
  tel->metrics().observe(tel->queue_wait_ns, worker, got_ns - seek_ns);
  tel->tracer().record(worker, "claim", "queue", seek_ns, got_ns - seek_ns,
                       "interval", index);
}

// Outcome of one steal sweep: failed probes always count toward
// pool.steal_fail; a successful sweep also bumps pool.steals and emits a
// "steal" span covering the whole sweep.
void record_steal(obs::Telemetry* tel, std::size_t worker,
                  std::uint64_t sweep_start_ns, bool success,
                  std::uint64_t failed_probes) {
  if (tel == nullptr) return;
  if (failed_probes > 0) {
    tel->metrics().add(tel->steal_fail, worker, failed_probes);
  }
  if (success) {
    tel->metrics().add(tel->steals, worker);
    tel->tracer().record(worker, "steal", "queue", sweep_start_ns,
                         tel->tracer().now_ns() - sweep_start_ns,
                         "failed_probes", failed_probes);
  }
}

// Runs `worker(index)` on num_workers threads, index 0 on the caller.
template <typename Worker>
void run_workers(std::size_t num_workers, const Worker& worker) {
  if (num_workers == 1) {
    worker(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_workers - 1);
  for (std::size_t w = 1; w < num_workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();
}

// One interval handed to a worker: its position in →p, its event, and the
// box [*gmin, *gbnd] to enumerate. Each worker owns one Claim for its whole
// run, so `scratch` is a per-worker frontier a claim function may snapshot
// Gbnd into without allocating per event.
struct Claim {
  std::size_t index = 0;
  EventId event;
  const Frontier* gmin = nullptr;
  const Frontier* gbnd = nullptr;
  Frontier scratch;
};

// Algorithm 1's ParaMountWorker, shared by both drivers. Each worker calls
// `claim(worker, &claim)` until it returns false (no interval left) and
// enumerates every claimed interval with the bounded subroutine. The
// `num_intervals` intervals must partition the lattice minus the empty
// state, which is delivered with interval 0 (Figure 6a). The first
// exception stops every worker and is rethrown to the caller.
template <typename ClaimFn>
ParamountResult run_paramount(const Poset& poset, std::size_t num_intervals,
                              const ParamountOptions& options,
                              StateVisitor visit, const ClaimFn& claim) {
  obs::Telemetry* const tel = options.telemetry;
  PM_CHECK_MSG(tel == nullptr || tel->num_shards() >= options.num_workers,
               "telemetry needs one shard per ParaMount worker");
  ParamountResult result;

  if (num_intervals == 0) {
    // An empty poset has exactly one consistent state: the empty frontier.
    visit(poset.empty_frontier());
    result.states = 1;
    return result;
  }
  if (options.collect_interval_stats) {
    result.interval_stats.resize(num_intervals);
  }

  std::atomic<std::uint64_t> total_states{0};
  std::atomic<bool> abort_flag{false};
  Mutex error_mutex;
  std::exception_ptr first_error;

  auto worker = [&](std::size_t worker_index) {
    try {
      Claim c;
      // relaxed: advisory stop flag — a worker that misses it only processes
      // one more interval; the error itself is published under error_mutex.
      while (!abort_flag.load(std::memory_order_relaxed)) {
        const std::uint64_t seek_ns =
            tel != nullptr ? tel->tracer().now_ns() : 0;
        if (!claim(worker_index, &c)) return;
        record_claim(tel, worker_index, seek_ns, c.index);

        WallTimer timer;
        const std::uint64_t start_ns =
            tel != nullptr ? tel->tracer().now_ns() : 0;
        std::uint64_t states = 0;
        if (c.index == 0) {
          visit(poset.empty_frontier());
          ++states;
        }
        states += enumerate_box(options.subroutine, poset, *c.gmin, *c.gbnd,
                                visit, options.meter, options.store)
                      .states;
        // relaxed: monotone counter; the final load happens after the
        // workers join, which orders every contribution.
        total_states.fetch_add(states, std::memory_order_relaxed);
        if (tel != nullptr) {
          tel->record_interval(worker_index, start_ns, states);
        }
        if (options.collect_interval_stats) {
          result.interval_stats[c.index] =
              IntervalStat{c.event, states, timer.elapsed_ns()};
        }
      }
    } catch (...) {
      MutexLock guard(error_mutex);
      if (!first_error) first_error = std::current_exception();
      // relaxed: advisory stop flag, see the worker loop.
      abort_flag.store(true, std::memory_order_relaxed);
    }
  };
  run_workers(options.num_workers, worker);

  if (first_error) std::rethrow_exception(first_error);
  // relaxed: read after run_workers' joins, which order all contributions.
  result.states = total_states.load(std::memory_order_relaxed);
  if (options.meter != nullptr) {
    result.peak_bytes = options.meter->peak_bytes();
  }
  return result;
}

}  // namespace

ParamountResult enumerate_paramount(const Poset& poset,
                                    const std::vector<Interval>& intervals,
                                    const ParamountOptions& options,
                                    StateVisitor visit) {
  PM_CHECK(options.num_workers > 0);
  obs::Telemetry* const tel = options.telemetry;

  // The intervals are dealt round-robin into per-worker deques up front;
  // each worker drains its own deque and steals once empty. No shared claim
  // point — the deque owner's pop is uncontended.
  WorkStealingScheduler<std::size_t> scheduler(
      options.num_workers, options.seed,
      /*initial_capacity=*/intervals.size() / options.num_workers + 1);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    scheduler.push(i % options.num_workers, i);
  }

  auto claim = [&](std::size_t worker, Claim* c) {
    std::size_t i = 0;
    bool found = scheduler.pop(worker, i);
    if (!found) {
      const std::uint64_t sweep_ns =
          tel != nullptr ? tel->tracer().now_ns() : 0;
      std::uint64_t failed_probes = 0;
      found = scheduler.steal(worker, i, &failed_probes);
      record_steal(tel, worker, sweep_ns, found, failed_probes);
    }
    // Refresh the live pool.queue_depth gauge, also on the way out so a
    // deque that thieves drained doesn't leave a stale depth behind.
    if (tel != nullptr) {
      tel->metrics().set(tel->queue_depth, worker,
                         scheduler.size_approx(worker));
    }
    // A failed sweep is definitive: nothing is pushed after the initial
    // deal, and every deque's residue is drained by its owner.
    if (!found) return false;
    const Interval& iv = intervals[i];
    c->index = i;
    c->event = iv.event;
    c->gmin = &iv.gmin;
    c->gbnd = &iv.gbnd;
    return true;
  };
  return run_paramount(poset, intervals.size(), options, visit, claim);
}

ParamountResult enumerate_paramount_streaming(
    const Poset& poset, const std::vector<EventId>& order,
    const ParamountOptions& options, StateVisitor visit) {
  PM_CHECK(options.num_workers > 0);
  PM_CHECK_MSG(is_linear_extension(poset, order),
               "streaming ParaMount requires a linear extension");
  obs::Telemetry* const tel = options.telemetry;

  Mutex cursor_mutex;
  std::size_t cursor = 0;                     // guarded by cursor_mutex
  Frontier running = poset.empty_frontier();  // guarded by cursor_mutex

  // The paper's atomic block: advance the cursor to the next event of →p
  // and snapshot the running Gbnd frontier into the worker's own scratch
  // frontier (after the first claim the copy reuses its buffer). Nothing
  // else runs under the lock.
  auto claim = [&](std::size_t worker, Claim* c) {
    std::size_t i = 0;
    std::uint64_t acquired_ns = 0;
    std::uint64_t snapshot_done_ns = 0;
    {
      MutexLock guard(cursor_mutex);
      if (cursor == order.size()) return false;
      acquired_ns = tel != nullptr ? tel->tracer().now_ns() : 0;
      i = cursor++;
      running[order[i].tid] = order[i].index;
      c->scratch = running;
      snapshot_done_ns = tel != nullptr ? tel->tracer().now_ns() : 0;
    }
    if (tel != nullptr) {
      tel->metrics().observe(tel->gbnd_ns, worker,
                             snapshot_done_ns - acquired_ns);
      tel->tracer().record(worker, "gbnd_snapshot", "queue", acquired_ns,
                           snapshot_done_ns - acquired_ns, "event", i);
    }
    const EventId id = order[i];
    c->index = i;
    c->event = id;
    c->gmin = &poset.vc(id.tid, id.index);
    c->gbnd = &c->scratch;
    return true;
  };
  return run_paramount(poset, order.size(), options, visit, claim);
}

}  // namespace paramount
