// hedc: a meta-crawler over astronomy archives, after the ETH benchmark of
// [5,10,33].
//
// The main thread builds MetaSearchRequest tasks and hands them to a pooled
// set of workers through a locked task queue; each worker "fetches" an
// archive (a deterministic pseudo-download), then fills in the result fields
// of its task. The original's bug: task/result fields are written by the
// worker and read by the coordinating thread without synchronization — four
// racy variables (status, size, date, rating), matching the four detections
// Table 2 reports for hedc.
#include "workloads/programs_internal.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace paramount::programs {

namespace {

// A deterministic stand-in for the HTTP fetch: hashes the query through a
// few rounds so the worker does real (if tiny) computation per task.
int pseudo_fetch(int query, int salt) {
  std::uint64_t h = static_cast<std::uint64_t>(query) * 2654435761u + salt;
  for (int round = 0; round < 64; ++round) h = splitmix64(h);
  return static_cast<int>(h % 100000);
}

}  // namespace

void run_hedc(TraceRuntime& rt, std::size_t scale) {
  constexpr std::size_t kWorkers = 7;
  const std::size_t num_tasks = 2 * kWorkers * scale;

  TracedMutex queue_lock(rt, "taskQueue");
  TracedVar<int> next_task(rt, "nextTask", 0);
  TracedVar<int> tasks_done(rt, "tasksDone", 0);

  // The shared result fields of the "current best" answer. The fields are
  // one set of variables (not per-task) like the original's MetaSearchResult
  // aggregation: workers write them racily, the poller reads them racily.
  TracedVar<int> res_status(rt, "result.status", 0);
  TracedVar<int> res_size(rt, "result.size", 0);
  TracedVar<int> res_date(rt, "result.date", 0);
  TracedVar<int> res_rating(rt, "result.rating", 0);

  std::vector<int> queries(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    queries[i] = static_cast<int>(i * 37 + 11);
  }

  // Untraced first-round gate: a worker that has claimed its first task
  // waits until every worker has claimed one. A task takes less time than
  // forking a thread, so without the gate the first worker can run every
  // task before the others exist or the poller reads, and the
  // initialization-write exemption then hides all four races. With it,
  // every worker's first result writes follow all first claims, so they are
  // pairwise concurrent in every run. The gate adds real-time overlap and no
  // traced happened-before edge.
  std::atomic<std::size_t> first_claims{0};
  const std::size_t gate = std::min(kWorkers, num_tasks);

  std::vector<std::unique_ptr<TracedThread>> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.push_back(std::make_unique<TracedThread>(rt, [&, w] {
      bool first_task = true;
      while (true) {
        int index;
        {
          TracedLockGuard guard(queue_lock);
          index = next_task.load();
          if (index >= static_cast<int>(num_tasks)) break;
          next_task.store(index + 1);
        }
        if (first_task) {
          first_task = false;
          // relaxed: the counter only paces the workers; it publishes no data.
          first_claims.fetch_add(1, std::memory_order_relaxed);
          while (first_claims.load(std::memory_order_relaxed) < gate) {
            rt.sched_yield();
          }
        }
        const int fetched = pseudo_fetch(queries[index], static_cast<int>(w));

        // BUG (from the original): the aggregated result fields are written
        // without synchronization...
        res_status.store(2);
        res_size.store(fetched % 4096);
        res_date.store(20150207 + fetched % 28);
        res_rating.store(fetched % 5);

        {
          TracedLockGuard guard(queue_lock);
          tasks_done.store(tasks_done.load() + 1);
        }
      }
    }));
  }

  // ...and the coordinating thread polls them, also without synchronization.
  // The number of traced polls is bounded so the recorded poset size is
  // deterministic; afterwards the poller waits untraced.
  for (std::size_t poll = 0; poll < num_tasks; ++poll) {
    (void)res_status.load();
    (void)res_size.load();
    (void)res_date.load();
    (void)res_rating.load();
    {
      TracedLockGuard guard(queue_lock);
      if (tasks_done.load() >= static_cast<int>(num_tasks)) break;
    }
    rt.sched_yield();
  }
  while (tasks_done.unsafe_load() < static_cast<int>(num_tasks)) {
    rt.sched_yield();
  }
  for (auto& worker : workers) worker->join();
}

}  // namespace paramount::programs
